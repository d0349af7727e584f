"""Benchmark of the CA-DPS experiment: cost and quality, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smoke-grid --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in the checkout's BENCHMARK.json.
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics from spans kept around the calls
between cadps layers.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result, with the machine it ran on, goes to
``perfbench/out/<workload>-seed<n>-trace<t>/result.json``.

This file uses the standard library only.  The workload itself runs in a
child process (``workload.py``) with BLAS threads capped at the number of
usable cores, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-up is timed in this many extra processes besides the workload's own
SETUP_PROBES = 2
IMPORTTIME_PROBES = 3
IMPORT_METRICS = {
    "import_s.cadps": "cadps",
    "import_s.cadps.metrics": "cadps.metrics",
    "import_s.cadps.linalg": "cadps.linalg",
}
RUN_LIMIT_S = 175.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    """PYTHONPATH on the checkout's sources, BLAS threads capped at the usable cores."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(len(os.sched_getaffinity(0)))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def workload_cmd(args, *extra, python_flags=()) -> list[str]:
    return [
        sys.executable,
        *python_flags,
        str(HERE / "workload.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        *extra,
    ]


def time_to_ready(cmd, env, deadline):
    """Start cmd; return (process, seconds until it printed 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    if line.strip() != "ready":
        out, err = finish(proc, deadline)
        raise RuntimeError(f"workload did not start: {line}{out}{err[-2000:]}")
    return proc, t1 - t0


def finish(proc, deadline):
    """Wait for proc until the deadline; kill it past the deadline."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("workload ran past the time limit and was stopped")
    return out, err


def probe_setup(args, env, deadline) -> float:
    proc, ready = time_to_ready(workload_cmd(args, "--probe"), env, deadline)
    finish(proc, deadline)
    return ready


def probe_imports(args, env, deadline) -> dict:
    """Cumulative import times, in seconds, from ``python -X importtime``."""
    proc, _ = time_to_ready(
        workload_cmd(args, "--probe", python_flags=("-X", "importtime")), env, deadline
    )
    _, err = finish(proc, deadline)
    cumulative = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) / 1e6
    return {name: cumulative[module] for name, module in IMPORT_METRICS.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "cadps" / "__init__.py").is_file():
        return fail(f"no cadps sources under {ROOT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            imports = [probe_imports(args, env, deadline) for _ in range(IMPORTTIME_PROBES)]
        else:
            setups = [probe_setup(args, env, deadline) for _ in range(SETUP_PROBES)]
        cmd = workload_cmd(
            args,
            "--seconds",
            str(args.seconds),
            "--trace",
            str(args.trace),
            "--out",
            str(out_dir),
        )
        proc, ready = time_to_ready(cmd, env, deadline)
        out, err = finish(proc, deadline)
    except RuntimeError as exc:
        return fail(str(exc))
    sys.stderr.write(err)
    if proc.returncode != 0:
        return fail(f"workload exited with code {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])

    measured = dict(raw["metrics"])
    if args.trace:
        for name in IMPORT_METRICS:
            measured[name] = statistics.median(r[name] for r in imports)
    else:
        setups.append(ready)
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted
    }
    result = {
        "correct": raw["ok"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": raw["machine"],
        "rounds": raw["rounds"],
        "round_walls_s": raw["round_walls_s"],
        "problems": raw["problems"],
        "faults": raw["faults"],
        "setup_samples_s": None if args.trace else setups,
        **result,
    }
    (out_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")

    for problem in raw["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

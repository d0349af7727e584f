"""One benchmark workload in its own process.

Run by ``run.py``, never on its own.  It prints ``ready`` on stdout just
before its first call into the harness (the end of set-up), runs whole
rounds of the workload through ``cadps.harness.run_model`` and
``emit_results`` until ``--seconds`` have passed, checks the outputs,
and prints one JSON line with the raw figures.  With ``--probe`` it
stops after ``ready``; ``run.py`` uses that to time set-up again.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import cadps
from cadps import gmm, guidance, harness, sampler
from cadps.harness import ExperimentGrid

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import ModelCheck, posterior_mismatch  # noqa: E402
from tracing import Tracer  # noqa: E402

METHODS = ("cadps", "dps", "pigdm")
# a run stops starting rounds past this point, so that it ends well
# inside the 180 s a run may take
_ROUND_BUDGET_S = 140.0


def build_workload(name: str):
    """(grid, cells) for a workload; each cell runs grid.models_per_cell models."""
    smoke = replace(ExperimentGrid().smoke(), models_per_cell=1)
    if name == "fullscale-cell":
        return replace(ExperimentGrid(), models_per_cell=2), [(8, 4, 0.01)]
    if name == "smoke-grid":
        cells = [(d, m, s) for d in smoke.dims for m in smoke.ms for s in smoke.sigmas]
        return smoke, cells
    if name == "d800":
        return smoke, [(800, 1, 0.1), (800, 4, 0.1)]
    raise ValueError(f"unknown workload {name!r}")


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def install_tracer(tracer: Tracer) -> None:
    """Wrap the attributes through which one layer calls the next."""
    rows = lambda args, kw, res: {"rows": _rows(args[1])}  # noqa: E731
    tracer.wrap(sampler, "smoothed_score", "gmm.smoothed_score", describe=rows)
    tracer.wrap(gmm, "smoothed_score_hvp", "gmm.smoothed_score_hvp", describe=rows)
    for tag in METHODS:
        tracer.wrap(sampler, f"guidance_gradient_{tag}", f"guidance.{tag}")
    tracer.wrap(sampler, "sample_final_conditional", "guidance.final")
    tracer.wrap(
        guidance,
        "conjugate_gradient_solve",
        "linalg.cg",
        describe=lambda a, kw, res: {
            "iterations": res[1].iterations,
            "converged": res[1].converged,
        },
    )
    tracer.wrap(
        harness,
        "run_guided_chains",
        "sampler.run_guided_chains",
        method_of=lambda a, kw: a[2].method.tag,
        describe=lambda a, kw, res: {
            "steps": a[2].schedule.n_steps,
            "delivered": int(a[2].n_chains - res[1].n_aborted),
        },
    )
    tracer.wrap(
        harness,
        "sliced_wasserstein",
        "metrics.sliced_wasserstein",
        describe=lambda a, kw, res: {
            "slices": int(kw["directions"].shape[0])
            if kw.get("directions") is not None
            else a[2].n_slices
        },
    )
    tracer.wrap(harness, "exact_posterior", "harness.exact_posterior")
    tracer.wrap(harness, "sample_mixture", "harness.reference")
    tracer.wrap(harness, "emit_results", "harness.emit_results")
    tracer.wrap(harness, "run_model", "harness.run_model")


def capture_models(store: list) -> None:
    """Keep each model's measurement and exact posterior for the checks."""
    original = harness.exact_posterior

    def capture(prior, meas):
        post = original(prior, meas)
        store.append((meas, post))
        return post

    harness.exact_posterior = capture


def run_round(grid, cells, seed, out_dir: Path, models: list):
    """One pass over the workload; returns (wall_s, per-model outputs)."""
    del models[:]
    outputs, records = [], []
    t0 = time.perf_counter()
    for d, m, sigma in cells:
        for k in range(grid.models_per_cell):
            recs, _, _, samples = harness.run_model(
                d, m, sigma, grid, seed, k, keep_samples=True
            )
            records.extend(recs)
            outputs.append(((d, m, sigma, k), recs, samples))
    harness.emit_results(records, "csv", out_dir / "records.csv")
    harness.emit_results(records, "jsonl", out_dir / "records.jsonl")
    return time.perf_counter() - t0, outputs


def operation_faults(grid, outputs) -> dict:
    """(cell, model, method) -> reason, for aborts, CG failures and non-finite SW."""
    faults = {}
    for key, recs, samples in outputs:
        for r in recs:
            got = samples[r.method]
            if got.shape[0] != grid.chains_per_model:
                faults[key + (r.method,)] = f"{grid.chains_per_model - got.shape[0]} chains aborted"
            elif r.cg_failures:
                faults[key + (r.method,)] = f"{r.cg_failures} CG solves did not converge"
            elif not np.isfinite(r.sw):
                faults[key + (r.method,)] = "non-finite SW"
    return faults


def check_outputs(grid, outputs, models, seed, faults) -> list[str]:
    """Independent checks on every operation that did not fail."""
    problems = []
    for (key, recs, samples), (meas, post) in zip(outputs, models):
        if not np.all(np.isfinite(samples["reference"])):
            problems.append(f"{key}: non-finite reference sample")
        bad = posterior_mismatch(post, meas.a, meas.y, meas.sigma)
        if bad:
            problems.append(f"{key}: {bad}")
        rng = np.random.default_rng([seed, 0xBE, *key[:2], round(key[2] * 1e6), key[3]])
        check = ModelCheck(meas.a, meas.y, meas.sigma, samples["reference"], grid.n_slices, rng)
        if (bad := check.reference_mismatch()) is not None:
            problems.append(f"{key}: {bad}")
        for r in recs:
            op = key + (r.method,)
            if op in faults:
                continue
            if not np.all(np.isfinite(samples[r.method])):
                faults[op] = "non-finite sample"
            elif (bad := check.sw_mismatch(samples[r.method], r.sw)) is not None:
                faults[op] = bad
            if op in faults:
                problems.append(f"{op}: {faults[op]}")
    return problems


def end_to_end(walls, rounds) -> dict:
    out = {"wall_s": statistics.median(walls)}
    for tag in METHODS:
        rates = []
        for outputs in rounds:
            n = sum(s[tag].shape[0] for _, _, s in outputs)
            wall = sum(r.wall_ms for _, recs, _ in outputs for r in recs if r.method == tag)
            rates.append(n / (wall / 1000.0))
        out[f"samples_per_s.{tag}"] = statistics.median(rates)
    return out


def per_layer(spans, root) -> dict:
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)
    total = lambda name: sum(s.duration for s in by[name])  # noqa: E731
    out = {}
    score = by["gmm.smoothed_score"]
    score_rows = sum(s.attrs["rows"] for s in score)
    out["gmm.smoothed_score.s"] = total("gmm.smoothed_score")
    out["gmm.smoothed_score.calls"] = len(score)
    out["gmm.smoothed_score.rows_per_s"] = score_rows / out["gmm.smoothed_score.s"]
    chains = by["sampler.run_guided_chains"]
    for tag in METHODS:
        delivered = sum(s.attrs["delivered"] for s in chains if s.method == tag)
        rows = sum(s.attrs["rows"] for s in score if s.method == tag)
        out[f"gmm.nfe_per_sample.{tag}"] = rows / delivered
    out["gmm.smoothed_score_hvp.s"] = total("gmm.smoothed_score_hvp")
    for tag in METHODS:
        out[f"guidance.{tag}.self_s"] = sum(s.self_s for s in by[f"guidance.{tag}"])
    out["guidance.final.s"] = total("guidance.final")
    cg = by["linalg.cg"]
    out["linalg.cg.s"] = total("linalg.cg")
    out["linalg.cg.calls"] = len(cg)
    out["linalg.cg.iterations_per_call"] = sum(s.attrs["iterations"] for s in cg) / len(cg)
    out["linalg.cg.failures"] = sum(not s.attrs["converged"] for s in cg)
    for tag in METHODS:
        out[f"sampler.self_s.{tag}"] = sum(s.self_s for s in chains if s.method == tag)
    guided = sum(len(by[f"guidance.{tag}"]) for tag in METHODS)
    out["sampler.guided_step_share"] = guided / sum(s.attrs["steps"] for s in chains)
    sw = by["metrics.sliced_wasserstein"]
    out["metrics.sliced_wasserstein.s"] = total("metrics.sliced_wasserstein")
    out["metrics.sliced_wasserstein.slices_per_s"] = (
        sum(s.attrs["slices"] for s in sw) / out["metrics.sliced_wasserstein.s"]
    )
    out["harness.exact_posterior.s"] = total("harness.exact_posterior")
    out["harness.reference.s"] = total("harness.reference")
    out["harness.emit_results.s"] = total("harness.emit_results")
    out["harness.run_model.self_s"] = sum(s.self_s for s in by["harness.run_model"])
    out["trace.wall_s"] = root.duration
    out["trace.unattributed_s"] = root.self_s
    accounted = sum(s.self_s for s in spans)
    if abs(accounted - root.duration) > 1e-6 * max(1.0, root.duration):
        raise RuntimeError(f"self times sum to {accounted}, round took {root.duration}")
    return out


def machine() -> dict:
    """The machine, interpreter, libraries and BLAS thread cap of this run."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_thread_cap": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cadps": cadps.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args(argv)

    grid, cells = build_workload(args.workload)
    print("ready", flush=True)
    if args.probe:
        return 0
    args.out.mkdir(parents=True, exist_ok=True)

    models: list = []
    capture_models(models)
    tracer = Tracer() if args.trace else None
    if tracer:
        install_tracer(tracer)

    walls, rounds, layer_rounds = [], [], []
    start = time.perf_counter()
    while True:
        if tracer:
            root = tracer.begin("round")
        wall, outputs = run_round(grid, cells, args.seed, args.out, models)
        if tracer:
            tracer.end(root)
            layer_rounds.append(per_layer(tracer.spans[root.id :], root))
        walls.append(wall)
        rounds.append(outputs)
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed + wall > _ROUND_BUDGET_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.restore()

    # rounds repeat the same inputs, so every round must give the same SW
    problems = []
    sw_first = [r.sw for _, recs, _ in rounds[0] for r in recs]
    for i, outputs in enumerate(rounds[1:], 1):
        if [r.sw for _, recs, _ in outputs for r in recs] != sw_first:
            problems.append(f"round {i} SW differs from round 0 on the same inputs")
    # models holds the last round's measurements and posteriors
    faults = operation_faults(grid, rounds[-1])
    problems += check_outputs(grid, rounds[-1], models, args.seed, faults)

    ops = len(sw_first)
    if tracer:
        metrics = {
            k: statistics.median(r[k] for r in layer_rounds) for k in layer_rounds[0]
        }
        for tag in METHODS:
            sws = [r.sw for _, recs, _ in rounds[0] for r in recs if r.method == tag]
            metrics[f"sw.{tag}"] = float(np.mean(sws))
        header = {"workload": args.workload, "seed": args.seed, "machine": machine()}
        tracer.write(args.out / "trace.jsonl", header)
    else:
        metrics = end_to_end(walls, rounds)
        metrics["peak_rss_mb"] = peak_rss_mb
    result = {
        "ok": not problems,
        "problems": problems,
        "rounds": len(rounds),
        "attempted": ops * len(rounds),
        "failed": len(faults) * len(rounds),
        "faults": {"/".join(map(str, k)): v for k, v in faults.items()},
        "metrics": metrics,
        "round_walls_s": walls,
        "machine": machine(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

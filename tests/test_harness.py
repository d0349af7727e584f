import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cadps import (
    ExperimentGrid,
    GuidanceMethod,
    build_linear_vp_schedule,
    emit_results,
    emit_scatter,
    guidance,
    harness,
)
from cadps.cli import build_parser, main as cli_main
from cadps.harness import (
    ExperimentRecord,
    parse_results_csv,
    run_grid,
    run_model,
)
from cadps.sampler import _GUIDANCE_AB_MIN, ChainDiagnostics


def _tiny_grid(**kw):
    base = dict(
        dims=(8,),
        ms=(1,),
        sigmas=(1.0,),
        models_per_cell=2,
        chains_per_model=50,
        n_steps=40,
        n_slices=100,
        record_timing=False,
    )
    base.update(kw)
    return ExperimentGrid(**base)


def test_smoke_cell_plumbing():
    grid = _tiny_grid(chains_per_model=100)
    records, valid = run_grid(grid, 0, cells=[(8, 1, 1.0)])
    assert len(records) == 2 * 3
    assert valid
    assert all(r.sw >= 0 for r in records)


def test_method_filtering():
    grid = _tiny_grid(methods=(GuidanceMethod(tag="dps"),))
    records, _ = run_grid(grid, 0, cells=[(8, 1, 1.0)])
    assert {r.method for r in records} == {"dps"}
    assert len(records) == 2


def test_record_count_full_grid():
    grid = _tiny_grid(dims=(8,), ms=(1, 2), sigmas=(1.0,), models_per_cell=1, chains_per_model=20)
    records, _ = run_grid(grid, master_seed=0)
    assert len(records) == 2 * 1 * 3


def test_grid_abort_budget_is_per_cell(monkeypatch):
    # 10 of 100 chains aborted per model is within the 10% budget; 11 is not
    aborts = {0.1: 10, 1.0: 11}
    monkeypatch.setattr(
        harness, "run_model", lambda d, m, sigma, *a: ([], 100, aborts[sigma], {})
    )
    assert run_grid(_tiny_grid(), 0, cells=[(8, 1, 0.1)]) == ([], True)
    assert run_grid(_tiny_grid(), 0, cells=[(8, 1, 0.1), (8, 1, 1.0)]) == ([], False)


def test_run_model_determinism():
    grid = _tiny_grid()
    r1, *_ = run_model(8, 1, 1.0, grid, 0, 0)
    r2, *_ = run_model(8, 1, 1.0, grid, 0, 0)
    assert [(a.sw, a.cg_failures) for a in r1] == [(b.sw, b.cg_failures) for b in r2]


def test_emit_round_trip(tmp_path):
    records = [
        ExperimentRecord(8, 1, 0.1, "cadps", 0, 1.25, 0, 0.0),
        ExperimentRecord(8, 1, 0.1, "cadps", 1, 1.75, 2, 0.0),
        ExperimentRecord(8, 1, 0.1, "dps", 0, 2.5, 0, 0.0),
    ]
    path = tmp_path / "records.csv"
    emit_results(records, "csv", path)
    back = parse_results_csv(path)
    assert back == sorted(records, key=ExperimentRecord.sort_key)
    header = path.read_text().splitlines()[0]
    assert header == "d,m,sigma,method,model_seed,sw,cg_failures,wall_ms"


def test_emit_summary_mean(tmp_path):
    records = [ExperimentRecord(8, 1, 0.1, "cadps", i, float(v), 0, 0.0) for i, v in enumerate([1, 2, 3, 6])]
    path = tmp_path / "records.csv"
    emit_results(records, "csv", path)
    summary = (tmp_path / "records_summary.csv").read_text().splitlines()
    assert summary[0] == "d,m,sigma,method,sw_mean,sw_ci95"
    fields = summary[1].split(",")
    assert float(fields[4]) == pytest.approx(3.0, abs=1e-12)


def test_emit_summary_one_model_has_no_interval(tmp_path):
    # one model per cell leaves no spread to estimate, so the half-width is
    # nan rather than a zero that claims certainty
    records = [ExperimentRecord(8, 1, 0.1, m, 0, 2.5, 0, 0.0) for m in ("cadps", "dps")]
    emit_results(records, "csv", tmp_path / "records.csv")
    rows = (tmp_path / "records_summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4:] for row in rows] == [["2.5", "nan"], ["2.5", "nan"]]


def test_emit_jsonl(tmp_path):
    records = [ExperimentRecord(8, 1, 0.1, "pigdm", 0, 1.0, 0, 0.0)]
    path = tmp_path / "records.jsonl"
    emit_results(records, "jsonl", path)
    row = json.loads(path.read_text())
    assert row == {
        "d": 8,
        "m": 1,
        "sigma": 0.1,
        "method": "pigdm",
        "model_seed": 0,
        "sw": 1.0,
        "cg_failures": 0,
        "wall_ms": 0.0,
    }


def test_emit_jsonl_writes_nan_sw_as_null(tmp_path):
    # a model that lost every chain has SW nan; strict JSON has no NaN
    records = [
        ExperimentRecord(8, 1, 0.1, "cadps", 0, float("nan"), 0, 0.0),
        ExperimentRecord(8, 1, 0.1, "cadps", 1, 2.0, 0, 0.0),
    ]
    path = tmp_path / "records.jsonl"
    emit_results(records, "jsonl", path)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rows = [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]
    assert [row["sw"] for row in rows] == [None, 2.0]
    emit_results(records, "csv", tmp_path / "records.csv")
    assert np.isnan(parse_results_csv(tmp_path / "records.csv")[0].sw)


def test_emit_rejects_empty():
    with pytest.raises(ValueError):
        emit_results([], "csv", "/tmp/nope.csv")


def test_emit_scatter(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "scatter.csv"
    emit_scatter(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "block,x1,x2"
    assert len(lines) == 11
    assert sum(l.startswith("samples") for l in lines) == 5
    assert sum(l.startswith("reference") for l in lines) == 5
    with pytest.raises(ValueError):
        emit_scatter(np.zeros((3, 1)), np.zeros((3, 1)), path)


def test_cli_end_to_end(tmp_path):
    rc = cli_main(
        [
            "--cell",
            "8,1,1.0",
            "--models",
            "1",
            "--chains",
            "30",
            "--steps",
            "30",
            "--slices",
            "50",
            "--no-timing",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    assert (tmp_path / "records.csv").exists()
    assert (tmp_path / "records.jsonl").exists()
    records = parse_results_csv(tmp_path / "records.csv")
    assert len(records) == 3
    assert all(r.wall_ms == 0.0 for r in records)


def test_cli_determinism(tmp_path):
    args = [
        "--cell",
        "8,1,1.0",
        "--models",
        "1",
        "--chains",
        "30",
        "--steps",
        "30",
        "--slices",
        "50",
        "--no-timing",
        "--seed",
        "3",
    ]
    cli_main(args + ["--out", str(tmp_path / "a")])
    cli_main(args + ["--out", str(tmp_path / "b")])
    assert (tmp_path / "a/records.csv").read_bytes() == (tmp_path / "b/records.csv").read_bytes()


def test_run_model_counts_cg_failures(monkeypatch):
    solve = guidance.conjugate_gradient_solve

    def never_converged(*args, **kwargs):
        x, report = solve(*args, **kwargs)
        return x, replace(report, converged=False)

    monkeypatch.setattr(guidance, "conjugate_gradient_solve", never_converged)
    grid = _tiny_grid()
    sched = build_linear_vp_schedule(grid.n_steps)
    t0 = int(np.flatnonzero(sched.alpha_bar >= _GUIDANCE_AB_MIN)[-1]) + 1
    records, *_ = run_model(8, 2, 0.1, grid, 0, 0)
    # PiGDM and CA-DPS solve once on each of their t0 - 1 guided steps and
    # once in the final draw; DPS never solves
    assert {r.method: r.cg_failures for r in records} == {"cadps": t0, "dps": 0, "pigdm": t0}


def test_cli_flags_cell_that_lost_every_chain(tmp_path, monkeypatch, capsys):
    def abort_every_chain(prior, meas, config):
        n = config.n_chains
        nan = np.full((n, prior.dim), np.nan)
        return nan, ChainDiagnostics(aborted=np.ones(n, dtype=bool))

    monkeypatch.setattr(harness, "run_guided_chains", abort_every_chain)
    args = ["--cell", "8,1,1.0", "--models", "2", "--chains", "20", "--steps", "30"]
    args += ["--slices", "50", "--no-timing", "--out", str(tmp_path)]
    assert cli_main(args) == 1
    assert "10% chain-abort budget" in capsys.readouterr().err
    lines = (tmp_path / "records.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert all(line.split(",")[5] == "nan" for line in lines[1:])
    rows = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
    assert [row["sw"] for row in rows] == [None] * 6


def test_run_model_chain_seed_follows_method_tag():
    grid = _tiny_grid()
    all_methods, *_ = run_model(8, 1, 1.0, grid, 0, 0)
    dps_only, *_ = run_model(8, 1, 1.0, replace(grid, methods=(GuidanceMethod(tag="dps"),)), 0, 0)
    assert [r.sw for r in dps_only] == [r.sw for r in all_methods if r.method == "dps"]


def _rows_by_method(path):
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        rows.setdefault(line.split(",")[3], []).append(line)
    return rows


def test_cli_zeta_sets_default_dps(tmp_path):
    args = ["--cell", "8,1,0.1", "--models", "1", "--chains", "50", "--steps", "50"]
    args += ["--slices", "100", "--no-timing"]
    cli_main(args + ["--out", str(tmp_path / "base")])
    cli_main(args + ["--zeta", "0.3", "--out", str(tmp_path / "zeta")])
    base = _rows_by_method(tmp_path / "base/records.csv")
    zeta = _rows_by_method(tmp_path / "zeta/records.csv")
    assert zeta["dps"] != base["dps"]
    assert zeta["cadps"] == base["cadps"]
    assert zeta["pigdm"] == base["pigdm"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("models_per_cell", 0),
        ("chains_per_model", 0),
        ("n_slices", 0),
        ("n_steps", 0),
        ("n_steps", 1),  # a schedule needs two steps
    ],
    ids=["models_per_cell", "chains_per_model", "n_slices", "n_steps-0", "n_steps-1"],
)
def test_grid_rejects_zero_counts(field, value):
    with pytest.raises(ValueError):
        ExperimentGrid(**{field: value})


@pytest.mark.parametrize(
    "bad", [(8, 1, 0.0), (7, 1, 0.1), (2, 4, 0.1), (0, 1, 0.1), (8, 0, 0.1), (8, 1, float("inf"))]
)
def test_grid_checks_every_cell_before_running(bad, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_model", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match=rf"\(d={bad[0]}, m={bad[1]}, sigma={bad[2]}\)"):
        run_grid(_tiny_grid(), 0, cells=[(8, 1, 0.1), (80, 2, 0.1), bad])
    assert calls == []


def test_repeated_cell_rejected_before_running(tmp_path, monkeypatch):
    # a repeat shares every seed stream, so it would write the same records twice;
    # sigmas that round to one micro-unit share the streams too
    calls = []
    monkeypatch.setattr(harness, "run_model", lambda *a, **kw: calls.append(a))
    with pytest.raises(ValueError, match=r"\(d=8, m=1, sigma=0.1000001\) repeats"):
        run_grid(_tiny_grid(), 0, cells=[(8, 1, 0.1), (80, 2, 0.1), (8, 1, 0.1000001)])
    args = ["--cell", "8,1,0.1", "--cell", "8,1,0.1", "--models", "2", "--chains", "50"]
    args += ["--steps", "50", "--slices", "100", "--methods", "dps", "--no-timing"]
    with pytest.raises(ValueError, match="repeats"):
        cli_main(args + ["--out", str(tmp_path / "out")])
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--chains", "--models", "--slices", "--steps"])
def test_cli_zero_count_flag_rejected(tmp_path, flag):
    counts = {"--chains": "20", "--models": "1", "--slices": "50", "--steps": "30"}
    counts[flag] = "0"
    args = ["--cell", "8,1,1.0", "--no-timing", "--out", str(tmp_path)]
    with pytest.raises(ValueError):
        cli_main(args + [a for kv in counts.items() for a in kv])
    assert not (tmp_path / "records.csv").exists()


def test_duplicate_method_tags_rejected(tmp_path):
    # a repeated tag would run on the same chain seed stream and write every record twice
    with pytest.raises(ValueError, match="once"):
        _tiny_grid(methods=(GuidanceMethod(tag="dps"), GuidanceMethod(tag="dps", zeta=0.5)))
    args = ["--cell", "8,1,0.1", "--models", "2", "--chains", "20", "--steps", "30"]
    args += ["--slices", "50", "--methods", "dps", "dps", "--out", str(tmp_path / "out")]
    with pytest.raises(ValueError, match="once"):
        cli_main(args)
    assert not (tmp_path / "out").exists()


def test_cli_zeta_without_dps_rejected(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run_model", lambda *a, **kw: calls.append(a))
    args = ["--cell", "8,1,0.1", "--methods", "cadps", "pigdm", "--zeta", "0.3"]
    with pytest.raises(ValueError, match="--zeta"):
        cli_main(args + ["--out", str(tmp_path / "out")])
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_readme_flags_match_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("\nFlags:", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    options = {o for a in build_parser()._actions for o in a.option_strings if o.startswith("--")}
    assert named == options - {"--help"}

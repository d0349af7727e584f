"""The benchmark's tracer wraps library attributes by name.

perfbench/workload.py replaces module attributes such as
``cadps.sampler.smoothed_score`` and ``cadps.guidance.conjugate_gradient_solve``
with timing wrappers, and some wrappers read the call's arguments (the SW
span reads ``directions=`` as a keyword).  Renaming or deleting one of them,
or changing how the harness passes them, breaks the traced benchmark run;
these tests make the same break fail here first.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cadps import build_linear_vp_schedule, build_toy_prior, gmm, guidance, harness, sampler
from cadps.measurement import MeasurementModel, residual

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_WORKLOAD = _PERFBENCH / "workload.py"


def _load_workload(monkeypatch):
    # the workload puts its own directory on sys.path to import its helpers
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_workload", _WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tag", ["pigdm", "cadps"])
def test_tracer_installs_and_restores(monkeypatch, tag):
    workload = _load_workload(monkeypatch)
    originals = (sampler.smoothed_score, guidance.conjugate_gradient_solve)
    tracer = workload.Tracer()
    try:
        workload.install_tracer(tracer)
        assert sampler.smoothed_score is not originals[0]
        # one guided step through the wrapped names records its CG solve
        prior = build_toy_prior(2)
        sched = build_linear_vp_schedule(20, 0.1, 500.0)
        meas = MeasurementModel(a=np.array([[0.6, 0.2]]), y=np.array([0.3]), sigma=0.5)
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        ab = sched.alpha_bar_t(1)
        score = sampler.smoothed_score(prior, x, ab)
        r = residual(meas, guidance.tweedie_mean(x, score, ab))
        # each rule's product, as the sampler builds it
        if tag == "pigdm":
            hvp = functools.partial(gmm.smoothed_score_hvp, prior, x, ab)
            sampler.guidance_gradient_pigdm(r, ab, meas, hvp)
        else:
            score_fn = lambda xx: sampler.smoothed_score(prior, xx, ab)  # noqa: E731
            hvp = guidance._forward_score_hvp(score_fn, x, score, ab)
            sampler.guidance_gradient_cadps(r, ab, meas, hvp)
    finally:
        tracer.restore()
    assert (sampler.smoothed_score, guidance.conjugate_gradient_solve) == originals
    names = [s.name for s in tracer.spans]
    # CA-DPS scores the m = 1 perturbed state of its forward HVP before its
    # solve; PiGDM applies its exact HVP to the solve's lam.  Both run
    # inside the rule's span.
    if tag == "cadps":
        inner = ["gmm.smoothed_score", "linalg.cg"]
    else:
        inner = ["linalg.cg", "gmm.smoothed_score_hvp"]
    assert names == ["gmm.smoothed_score", f"guidance.{tag}", *inner]
    assert all(s.parent == tracer.spans[1].id for s in tracer.spans[2:])
    cg = tracer.spans[names.index("linalg.cg")]
    assert cg.attrs["converged"] and cg.attrs["iterations"] >= 1


def test_sliced_wasserstein_span_per_method(monkeypatch):
    workload = _load_workload(monkeypatch)
    original = harness.sliced_wasserstein
    grid = harness.ExperimentGrid(
        dims=(2,), ms=(1,), sigmas=(0.1,), chains_per_model=5, n_steps=20, n_slices=16
    )
    tracer = workload.Tracer()
    try:
        workload.install_tracer(tracer)
        records, _, _, _ = harness.run_model(2, 1, 0.1, grid, 0, 0)
    finally:
        tracer.restore()
    assert harness.sliced_wasserstein is original
    spans = [s for s in tracer.spans if s.name == "metrics.sliced_wasserstein"]
    assert len(spans) == len(records) == len(grid.methods)
    assert [s.attrs["slices"] for s in spans] == [16] * len(grid.methods)


def test_posterior_capture_one_per_model(monkeypatch, tmp_path):
    # the workload zips each round's outputs with the (measurement,
    # posterior) pairs its capture of harness.exact_posterior stored; a
    # short list would skip the posterior, reference and SW checks of the
    # models past its end while the run still reads correct
    workload = _load_workload(monkeypatch)
    monkeypatch.setattr(harness, "exact_posterior", harness.exact_posterior)
    grid = harness.ExperimentGrid(
        dims=(800,),
        ms=(4,),
        sigmas=(0.1,),
        models_per_cell=2,
        chains_per_model=5,
        n_steps=20,
        n_slices=16,
    )
    models = []
    workload.capture_models(models)
    _, outputs = workload.run_round(grid, [(800, 4, 0.1)], 0, tmp_path, models)
    assert len(models) == len(outputs) == grid.models_per_cell
    for meas, posterior in models:
        assert meas.a.shape == (4, 800)
        # checks.posterior_mismatch, as the workload imports it
        assert workload.posterior_mismatch(posterior, meas.a, meas.y, meas.sigma) is None


def test_final_draw_span_per_chain_run(monkeypatch):
    # guidance.final wraps sampler.sample_final_conditional: PiGDM and CA-DPS
    # take their last step from it, once per chain run, and compute no
    # guidance gradient at t = 1; DPS never calls it
    workload = _load_workload(monkeypatch)
    grid = harness.ExperimentGrid(
        dims=(2,), ms=(1,), sigmas=(0.1,), chains_per_model=5, n_steps=20, n_slices=16
    )
    tracer = workload.Tracer()
    try:
        workload.install_tracer(tracer)
        harness.run_model(2, 1, 0.1, grid, 0, 0)
    finally:
        tracer.restore()
    assert sampler.sample_final_conditional is guidance.sample_final_conditional
    sched = build_linear_vp_schedule(grid.n_steps)
    t0 = int(np.flatnonzero(sched.alpha_bar >= sampler._GUIDANCE_AB_MIN)[-1]) + 1
    runs = [s for s in tracer.spans if s.name == "sampler.run_guided_chains"]
    assert sorted(r.method for r in runs) == sorted(m.tag for m in grid.methods)
    for run in runs:
        # the sampler's own calls, step by step from t0 down to t = 1
        steps = [s.name for s in tracer.spans if s.parent == run.id]
        guided = ["gmm.smoothed_score", f"guidance.{run.method}"]
        if run.method == "dps":
            assert steps == guided * t0
        else:
            assert steps == guided * (t0 - 1) + ["gmm.smoothed_score", "guidance.final"]


def test_import_cadps_loads_every_timed_module():
    # perfbench/run.py reads each IMPORT_METRICS module's cumulative time
    # from ``python -X importtime`` of a process that imports cadps, and
    # fails with a KeyError if one of them is never imported
    spec = importlib.util.spec_from_file_location("perfbench_run", _PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    src = str(Path(harness.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, cadps; print(json.dumps(sorted(sys.modules)))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert set(run.IMPORT_METRICS.values()) <= loaded

"""The benchmark's tracer wraps library attributes by name.

perfbench/workload.py replaces module attributes such as
``cadps.sampler.smoothed_score`` and ``cadps.guidance.conjugate_gradient_solve``
with timing wrappers.  Renaming or deleting one of them breaks the traced
benchmark run; this test makes the same break fail here first.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from cadps import build_linear_vp_schedule, build_toy_prior, guidance, sampler
from cadps.measurement import MeasurementModel

_WORKLOAD = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"


def _load_workload(monkeypatch):
    # the workload puts its own directory on sys.path to import its helpers
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_workload", _WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(monkeypatch):
    workload = _load_workload(monkeypatch)
    originals = (sampler.smoothed_score, guidance.conjugate_gradient_solve)
    tracer = workload.Tracer()
    try:
        workload.install_tracer(tracer)
        assert sampler.smoothed_score is not originals[0]
        # one PiGDM step through the wrapped names records its CG solve
        prior = build_toy_prior(2)
        sched = build_linear_vp_schedule(20, 0.1, 500.0)
        meas = MeasurementModel(
            a=np.array([[0.6, 0.2]]), y=np.array([0.3]), sigma=0.5, x_star=np.zeros(2)
        )
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        score = sampler.smoothed_score(prior, x, sched.alpha_bar_t(1))
        sampler.guidance_gradient_pigdm(x, score, sched, 1, meas, lambda v: v)
    finally:
        tracer.restore()
    assert (sampler.smoothed_score, guidance.conjugate_gradient_solve) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["gmm.smoothed_score", "guidance.pigdm", "linalg.cg"]
    cg = tracer.spans[-1]
    assert cg.parent == tracer.spans[1].id
    assert cg.attrs["converged"] and cg.attrs["iterations"] >= 1

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cadps
from cadps import aggregate_ci, draw_slice_directions, sliced_wasserstein


def _dirs(d, n_slices, seed=0):
    return draw_slice_directions(d, n_slices, np.random.default_rng(seed))


def test_identity_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((50, 3))
    assert sliced_wasserstein(a, a.copy(), _dirs(3, 100)) == 0.0


def test_permuted_copy_is_zero():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((64, 2))
    b = a[rng.permutation(64)]
    assert sliced_wasserstein(a, b, _dirs(2, 200)) == pytest.approx(0.0, abs=1e-12)


def test_one_dimensional_shift():
    a = np.zeros((2, 1))
    b = np.ones((2, 1))
    assert sliced_wasserstein(a, b, _dirs(1, 64)) == pytest.approx(1.0)


def test_matches_naive_implementation():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((64, 2))
    b = rng.standard_normal((64, 2))
    dirs = draw_slice_directions(2, 128, np.random.default_rng(3))
    got = sliced_wasserstein(a, b, directions=dirs)
    acc = 0.0
    for u in dirs:
        pa = sorted(a @ u)
        pb = sorted(b @ u)
        acc += sum((x - y) ** 2 for x, y in zip(pa, pb)) / 64
    naive = np.sqrt(acc / 128)
    assert got == pytest.approx(naive, rel=1e-10)


def test_symmetry_and_translation():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 3))
    b = rng.standard_normal((40, 3))
    dirs = draw_slice_directions(3, 100, np.random.default_rng(5))
    assert sliced_wasserstein(a, b, dirs) == sliced_wasserstein(b, a, dirs)
    shift = np.array([5.0, -2.0, 1.0])
    assert sliced_wasserstein(a + shift, b + shift, dirs) == pytest.approx(
        sliced_wasserstein(a, b, dirs), abs=1e-12
    )


def test_slice_count_stability():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((500, 4)) + 2.0
    b = rng.standard_normal((500, 4))
    v1 = sliced_wasserstein(a, b, _dirs(4, 2000, seed=7))
    v2 = sliced_wasserstein(a, b, _dirs(4, 4000, seed=7))
    assert abs(v1 - v2) / v1 < 0.02


def test_shape_validation():
    with pytest.raises(ValueError):
        sliced_wasserstein(np.zeros((3, 2)), np.zeros((4, 2)), _dirs(2, 10))


def test_directions_are_unit_norm():
    dirs = _dirs(5, 300, seed=8)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_aggregate_ci_examples():
    mean, half = aggregate_ci([1.0, 1.0, 1.0, 1.0])
    assert mean == 1.0 and half == 0.0
    mean, half = aggregate_ci([0.0, 2.0])
    assert mean == pytest.approx(1.0)
    assert half == pytest.approx(12.7062, rel=1e-4)
    with pytest.raises(ValueError):
        aggregate_ci([1.0])


def test_aggregate_ci_t_quantile():
    vals = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    mean, half = aggregate_ci(vals)
    assert mean == 0.0
    # Student-t 0.975 quantile with 4 degrees of freedom
    assert half == 2.7764451051977934 * vals.std(ddof=1) / np.sqrt(5)


def test_import_leaves_out_scipy_stats():
    src = str(Path(cadps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, cadps; print([m in sys.modules for m in sys.argv[1:]])"
    modules = ["scipy.stats", "scipy.linalg", "scipy.special"]
    out = subprocess.run(
        [sys.executable, "-c", probe, *modules],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == str([False] * len(modules))


def test_aggregate_ci_coverage():
    rng = np.random.default_rng(9)
    hits = 0
    reps = 1000
    for _ in range(reps):
        vals = rng.normal(5.0, 1.0, size=20)
        mean, half = aggregate_ci(vals)
        hits += mean - half <= 5.0 <= mean + half
    assert 0.93 <= hits / reps <= 0.97

import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cadps
from cadps import aggregate_ci, draw_slice_directions, sliced_wasserstein
from cadps.metrics import _SLICE_CHUNK, _T975


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


@pytest.mark.parametrize("k", [2, 5, 20, 31, 32, 60])
def test_aggregate_ci_quantile_matches_stdtrit(k):
    from scipy.special import stdtrit

    vals = np.random.default_rng(k).normal(size=k)
    _, half = aggregate_ci(vals)
    quantile = stdtrit(k - 1, 0.5 + 0.95 / 2.0)
    assert half == float(quantile * vals.std(ddof=1) / np.sqrt(k))
    if k - 1 <= len(_T975):
        assert _T975[k - 2] == quantile


def test_aggregate_ci_leaves_out_scipy_special():
    src = str(Path(cadps.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, cadps\n"
        "for k in range(2, 32): cadps.aggregate_ci(range(k))\n"
        "print('scipy.special' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_aggregate_ci_coverage():
    rng = np.random.default_rng(9)
    hits = 0
    reps = 1000
    for _ in range(reps):
        vals = rng.normal(5.0, 1.0, size=20)
        mean, half = aggregate_ci(vals)
        hits += mean - half <= 5.0 <= mean + half
    assert 0.93 <= hits / reps <= 0.97


def _per_slice_reference(a, b, dirs):
    """SW_2 with one slice at a time, the form the blocked kernel must match."""
    acc = 0.0
    for u in dirs:
        diff = np.sort(a @ u) - np.sort(b @ u)
        acc += float(np.sum(diff * diff)) / a.shape[0]
    return np.sqrt(acc / dirs.shape[0])


@pytest.mark.parametrize(
    "n, d, n_slices",
    [
        (30, 3, _SLICE_CHUNK - 1),
        (30, 3, _SLICE_CHUNK),
        (30, 3, _SLICE_CHUNK + 1),
        (30, 3, 3 * _SLICE_CHUNK + 5),
        (1, 4, 2 * _SLICE_CHUNK + 3),
        (40, 1, 2 * _SLICE_CHUNK + 3),
    ],
)
def test_blocked_kernel_matches_per_slice_loop(n, d, n_slices):
    rng = np.random.default_rng(n * 1000 + d)
    a = rng.standard_normal((n, d))
    b = 0.7 * rng.standard_normal((n, d)) + 1.5
    dirs = _dirs(d, n_slices, seed=n_slices)
    got = sliced_wasserstein(a, b, dirs)
    assert got == pytest.approx(_per_slice_reference(a, b, dirs), rel=1e-12, abs=0.0)


def test_full_scale_call_allocates_little():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((1000, 8))
    b = rng.standard_normal((1000, 8))
    dirs = _dirs(8, 10_000, seed=11)
    tracemalloc.start()
    try:
        sliced_wasserstein(a, b, directions=dirs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize(
    "directions, shape",
    [
        (np.ones(3), "(3,)"),
        (np.zeros((0, 3)), "(0, 3)"),
        (np.ones((5, 2)), "(5, 2)"),
        (np.ones((2, 5, 3)), "(2, 5, 3)"),
    ],
)
def test_directions_validation(directions, shape):
    a = np.arange(12.0).reshape(4, 3)
    with pytest.raises(ValueError, match=re.escape(shape)):
        sliced_wasserstein(a, a + 1.0, directions)


@pytest.mark.parametrize("seed, d, n_slices", [(0, 1, 7), (1, 8, 1000), (2, 80, 300), (3, 800, 50)])
def test_directions_are_normalized_gaussian_draws(seed, d, n_slices):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_slices, d))
    expected = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    got = draw_slice_directions(d, n_slices, np.random.default_rng(seed))
    assert np.array_equal(got, expected)

"""Sliced-Wasserstein distance SW_2 and confidence-interval aggregation."""

from __future__ import annotations

import numpy as np

__all__ = ["sliced_wasserstein", "aggregate_ci", "draw_slice_directions"]

_SLICE_CHUNK = 2048  # keep the (n_samples, n_slices) projection blocks small


def draw_slice_directions(d: int, n_slices: int, rng_seed) -> np.ndarray:
    """Uniform directions on the unit sphere (normalized Gaussian draws)."""
    rng = np.random.default_rng(rng_seed)
    dirs = rng.standard_normal((n_slices, d))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    while np.any(norms == 0.0):
        redo = norms[:, 0] == 0.0
        dirs[redo] = rng.standard_normal((int(redo.sum()), d))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    return dirs / norms


def sliced_wasserstein(
    sample_a: np.ndarray, sample_b: np.ndarray, directions: np.ndarray
) -> float:
    """SW_2 between two equally sized sample sets along the given slices.

    ``directions`` is (n_slices, d), unit rows as from draw_slice_directions;
    sharing them across calls gives common random numbers for method
    comparisons.  Per slice the squared 1-D Wasserstein-2 distance is the
    sorted matching (1/n) sum (a_(i) - b_(i))^2; the result is the square
    root of its mean over slices.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"sample sets must share shape (n, d), got {a.shape} vs {b.shape}")
    n, d = a.shape
    if d < 1:
        raise ValueError("dimension must be >= 1")
    total = 0.0
    for start in range(0, directions.shape[0], _SLICE_CHUNK):
        dirs = directions[start : start + _SLICE_CHUNK]
        proj_a = np.sort(a @ dirs.T, axis=0)
        proj_b = np.sort(b @ dirs.T, axis=0)
        total += float(np.sum((proj_a - proj_b) ** 2)) / n
    return float(np.sqrt(total / directions.shape[0]))


def aggregate_ci(values):
    """Mean and 95% t-distribution halfwidth over repeated measurement models."""
    # imported here: scipy.special alone doubles the package's import cost
    from scipy.special import stdtrit

    values = np.asarray(values, dtype=np.float64)
    k = values.size
    if k < 2:
        raise ValueError("need at least 2 values for a confidence interval")
    mean = float(values.mean())
    s = float(values.std(ddof=1))
    halfwidth = float(stdtrit(k - 1, 0.5 + 0.95 / 2.0) * s / np.sqrt(k))
    return mean, halfwidth

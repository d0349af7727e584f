"""Sliced-Wasserstein distance and confidence-interval aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SwConfig", "sliced_wasserstein", "aggregate_ci", "draw_slice_directions"]

_SLICE_CHUNK = 2048  # keep the (n_samples, n_slices) projection blocks small


@dataclass(frozen=True)
class SwConfig:
    n_slices: int = 10_000
    order: int = 2
    rng_seed: int | np.random.Generator = 0

    def __post_init__(self):
        if self.n_slices < 1:
            raise ValueError("n_slices must be >= 1")
        if self.order not in (1, 2):
            raise ValueError("Wasserstein order must be 1 or 2")


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
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    cfg: SwConfig = SwConfig(),
    directions: np.ndarray | None = None,
) -> float:
    """SW_p between two equally sized sample sets.

    Per slice the 1-D Wasserstein-p distance is the sorted matching
    (1/n) sum |a_(i) - b_(i)|^p; the result is the mean over slices
    raised to 1/p.  Passing ``directions`` shares slices across calls
    (common random numbers for method comparisons).
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"sample sets must share shape (n, d), got {a.shape} vs {b.shape}")
    n, d = a.shape
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if directions is None:
        directions = draw_slice_directions(d, cfg.n_slices, cfg.rng_seed)
    p = cfg.order
    total = 0.0
    for start in range(0, directions.shape[0], _SLICE_CHUNK):
        dirs = directions[start : start + _SLICE_CHUNK]
        proj_a = np.sort(a @ dirs.T, axis=0)
        proj_b = np.sort(b @ dirs.T, axis=0)
        diff = np.abs(proj_a - proj_b)
        total += float(np.sum(diff if p == 1 else diff**2)) / n
    mean = total / directions.shape[0]
    return mean if p == 1 else float(np.sqrt(mean))


def aggregate_ci(values, level: float = 0.95):
    """Mean and t-distribution halfwidth over repeated measurement models."""
    # imported here: scipy.special alone doubles the package's import cost
    from scipy.special import stdtrit

    values = np.asarray(values, dtype=np.float64)
    k = values.size
    if k < 2:
        raise ValueError("need at least 2 values for a confidence interval")
    mean = float(values.mean())
    s = float(values.std(ddof=1))
    halfwidth = float(stdtrit(k - 1, 0.5 + level / 2.0) * s / np.sqrt(k))
    return mean, halfwidth

"""Sliced-Wasserstein distance SW_2 and confidence-interval aggregation.

``sliced_wasserstein`` projects both sample sets onto blocks of
``_SLICE_CHUNK`` slice directions at a time, one contiguous row per slice,
sorts the rows in place and sums the squared differences of the sorted
rows in place, so one call holds two ``(_SLICE_CHUNK, n)`` blocks and no
copy of either.

``aggregate_ci`` reads the Student-t quantile from a table for up to 31
values and imports ``scipy.special`` only past that.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sliced_wasserstein", "aggregate_ci", "draw_slice_directions"]

# slices per (slices, samples) projection block: two blocks hold 4 MB at
# n = 1000; 512 doubles that and saves under 1 ms a call at n = 200
_SLICE_CHUNK = 256

# t_{0.975} for df = 1..30, bitwise equal to scipy.special.stdtrit(df, 0.975):
# importing scipy.special costs 0.2 s and 23 MB of resident memory, and the
# harness asks for a CI once per cell, with df = models_per_cell - 1
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378,
)


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
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim != 2 or directions.shape[0] < 1 or directions.shape[1] != d:
        raise ValueError(
            f"directions must have shape (n_slices >= 1, {d}), got {directions.shape}"
        )
    total = 0.0
    for start in range(0, directions.shape[0], _SLICE_CHUNK):
        dirs = directions[start : start + _SLICE_CHUNK]
        proj_a = dirs @ a.T  # one contiguous row per slice
        proj_b = dirs @ b.T
        proj_a.sort(axis=1)
        proj_b.sort(axis=1)
        proj_a -= proj_b
        proj_a *= proj_a
        total += float(proj_a.sum()) / n
    return float(np.sqrt(total / directions.shape[0]))


def aggregate_ci(values):
    """Mean and 95% t-distribution halfwidth over repeated measurement models."""
    values = np.asarray(values, dtype=np.float64)
    k = values.size
    if k < 2:
        raise ValueError("need at least 2 values for a confidence interval")
    if k - 1 <= len(_T975):
        quantile = _T975[k - 2]
    else:
        from scipy.special import stdtrit

        quantile = stdtrit(k - 1, 0.5 + 0.95 / 2.0)
    mean = float(values.mean())
    s = float(values.std(ddof=1))
    halfwidth = float(quantile * s / np.sqrt(k))
    return mean, halfwidth

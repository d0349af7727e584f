"""Dense finite-difference Hessian of a score, the reference for the
analytic Hessian-vector product and the conditional-covariance oracle."""

from typing import Callable

import numpy as np


def fd_score_hessian(
    score_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Full (d, d) Hessian of log p at a single point x, by central FD.

    Symmetrized; intended for small d, not for the sampling loop.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    h = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = eps
        h[:, i] = (score_fn(x + e) - score_fn(x - e)) / (2.0 * eps)
    return 0.5 * (h + h.T)

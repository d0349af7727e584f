"""Conjugate gradient for SPD systems, batched over independent systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CgReport",
    "conjugate_gradient_solve",
]


@dataclass(frozen=True)
class CgReport:
    iterations: int
    residual_norm: float
    converged: bool


def conjugate_gradient_solve(
    apply_operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float = 1e-4,
    max_iter: int | None = None,
):
    """Solve SPD systems A x = rhs with plain conjugate gradient.

    ``rhs`` may be a single vector of shape (m,) or a batch (n, m) of
    independent right-hand sides; ``apply_operator`` must map the same
    shape, acting on the last axis.  Convergence is a relative residual
    test against max(1, ||rhs||) per system.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = np.asarray(rhs, dtype=np.float64)
    single = rhs.ndim == 1
    b = rhs[None, :] if single else rhs
    m = b.shape[-1]
    if max_iter is None:
        max_iter = 10 * m

    def op(v: np.ndarray) -> np.ndarray:
        out = apply_operator(v[0] if single else v)
        return np.asarray(out)[None, :] if single else np.asarray(out)

    thresh = tol * np.maximum(1.0, np.linalg.norm(b, axis=-1))
    x = np.zeros_like(b)
    r = b - op(x)
    p = r.copy()
    rs = np.einsum("...i,...i->...", r, r)
    iterations = 0
    for _ in range(max_iter):
        res = np.sqrt(rs)
        if np.all(res <= thresh):
            break
        ap = op(p)
        pap = np.einsum("...i,...i->...", p, ap)
        # systems already converged get a neutral step
        safe = np.where(pap > 0, pap, 1.0)
        step = np.where(res > thresh, rs / safe, 0.0)
        x = x + step[..., None] * p
        r = r - step[..., None] * ap
        rs_new = np.einsum("...i,...i->...", r, r)
        beta = np.where(rs > 0, rs_new / np.where(rs > 0, rs, 1.0), 0.0)
        p = r + beta[..., None] * p
        rs = rs_new
        iterations += 1
        if not np.all(np.isfinite(x)):
            raise ValueError(
                "non-finite CG iterate: operator is likely not SPD or is "
                "severely ill-conditioned"
            )
    res = np.sqrt(rs)
    report = CgReport(
        iterations=iterations,
        residual_norm=float(np.max(res)),
        converged=bool(np.all(res <= thresh)),
    )
    return (x[0] if single else x), report

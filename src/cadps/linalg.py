"""Conjugate gradient for shifted SPD Gram systems, batched over independent systems."""

from __future__ import annotations

from dataclasses import dataclass

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
    gram: np.ndarray,
    rhs: np.ndarray,
    shift: float,
    tol: float = 1e-4,
    max_iter: int | None = None,
):
    """Solve (shift I + gram) x = rhs with plain conjugate gradient.

    ``gram`` is an explicit (m, m) matrix or a stack (n, m, m), one per
    system; ``rhs`` is (m,) or (n, m), and the leading axes broadcast.
    ``shift I + gram`` must be SPD.  Convergence is a relative residual
    test against max(1, ||rhs||) per system.  Returns (x, CgReport).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(rhs, dtype=np.float64)
    if max_iter is None:
        max_iter = 10 * b.shape[-1]

    def op(v: np.ndarray) -> np.ndarray:
        return shift * v + np.einsum("...ij,...j->...i", gram, v)

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
                "non-finite CG iterate: shift I + gram is likely not SPD or is "
                "severely ill-conditioned"
            )
    res = np.sqrt(rs)
    report = CgReport(
        iterations=iterations,
        residual_norm=float(np.max(res)),
        converged=bool(np.all(res <= thresh)),
    )
    return x, report

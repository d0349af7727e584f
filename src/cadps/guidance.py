"""Likelihood-score corrections: DPS, PiGDM, and the covariance-aware rule.

Each rule returns its approximation of grad log p_t(y | x_t), which the
sampler adds to the prior score, and reads the noise level only as
ab = alpha_bar_t.  Each function accepts a single state vector (d,) or a
batch (n, d) of independent chains; per-chain quantities broadcast along
the leading axis.  PiGDM, CA-DPS and the final conditional draw solve the
same likelihood system (sigma^2 I + G) lam = y - A x0_hat, differing only
in the m x m Gram G = A C A^T of their covariance C.  CA-DPS takes its
covariance from forward differences of the score along the measurement
directions against the step's own score, at m extra score evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import conjugate_gradient_solve
from .measurement import MeasurementModel, residual

__all__ = [
    "METHOD_TAGS",
    "GuidanceMethod",
    "tweedie_mean",
    "guidance_gradient_cadps",
    "guidance_gradient_dps",
    "guidance_gradient_pigdm",
    "sample_final_conditional",
]

# the guidance rules; the harness seeds each method's chains from its index
METHOD_TAGS = ("cadps", "dps", "pigdm")

# ceiling on the eigenvalues of the CA-DPS Gram in the _clip_psd fallback.
# No sampler path reaches it: chains start at the first step with
# alpha_bar >= 1e-12 (sampler._GUIDANCE_AB_MIN), so there (1 - ab)/ab <= 1e12.
# It guards direct callers only, whose (1 - ab)/ab factor or Hessian can
# pass 1e200 and overflow the likelihood solve.  Guidance is O(sqrt(ab))
# there, so capping changes nothing observable.
SIGMA_DIAG_CEIL = 1e100


@dataclass(frozen=True)
class GuidanceMethod:
    """Method selector plus hyperparameters; zeta is the DPS guidance strength."""

    tag: str  # one of METHOD_TAGS
    zeta: float = 1.0

    def __post_init__(self):
        if self.tag not in METHOD_TAGS:
            raise ValueError(f"unknown guidance tag {self.tag!r}")
        if self.tag != "dps" and self.zeta != 1.0:
            raise ValueError(f"zeta is a DPS setting; {self.tag} takes none")
        if not 0 < self.zeta < np.inf:
            raise ValueError("zeta must be finite and positive for DPS")


def tweedie_mean(x_t: np.ndarray, score: np.ndarray, alpha_bar_t: float) -> np.ndarray:
    """x0_hat = (x_t + (1 - alpha_bar) score) / sqrt(alpha_bar)."""
    if not 0.0 < alpha_bar_t <= 1.0:
        raise ValueError(f"alpha_bar must be in (0, 1], got {alpha_bar_t}")
    return (x_t + (1.0 - alpha_bar_t) * score) / np.sqrt(alpha_bar_t)


def _forward_score_hvp(
    score_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    score: np.ndarray,
    v: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Hessian-vector product H(x) v by forward differencing of the score.

    score is score_fn(x), already held by the caller, so this costs one
    score evaluation.  x is (d,) or batched (n, d); the direction v of
    shape (d,) is shared by every row.  The difference is taken along the
    unit direction of v, so eps is the absolute step size.  v = 0 returns
    zeros without evaluating the score.
    """
    norm = np.linalg.norm(v[None], axis=-1)[0]
    if norm == 0.0:
        return np.zeros(np.shape(x))
    return (norm / eps) * (score_fn(x + (eps / norm) * v) - score)


def _solve_likelihood(meas: MeasurementModel, gram: np.ndarray, rhs: np.ndarray):
    """Solve (sigma^2 I + G) lam = rhs by CG for an explicit Gram G.

    G is (m, m), shared by every chain, or (n, m, m), one per chain; rhs
    is (m,) or (n, m).  Returns (lam, cg_report).
    """
    return conjugate_gradient_solve(gram, rhs, meas.sigma**2)


def _clip_psd(g: np.ndarray) -> np.ndarray:
    """Symmetrize small (..., m, m) Gram blocks and clip their eigenvalues.

    The exact covariance Gram matrix A Sigma A^T is PSD; finite-difference
    noise can push estimated eigenvalues slightly negative (or, for a
    direct caller deep in the noise regime, wildly large), which would
    break the SPD contract of the likelihood solve.

    The clip to [0, SIGMA_DIAG_CEIL] is the identity on a positive-definite
    block whose trace is at most the ceiling, since its eigenvalues are
    positive and sum to the trace.  So a batch whose blocks are all finite,
    pass the trace test and pass one batched Cholesky factorization comes
    back symmetrized but otherwise unchanged.  Any other batch (indefinite,
    singular, huge or non-finite blocks) is eigendecomposed and clipped
    block by block.  The finiteness test is needed because the Cholesky
    factorization lets a NaN off the diagonal through.
    """
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    trace = np.trace(g, axis1=-2, axis2=-1)
    if np.all(np.isfinite(g)) and np.all(trace <= SIGMA_DIAG_CEIL):
        try:
            np.linalg.cholesky(g)
            return g
        except np.linalg.LinAlgError:
            pass
    evals, evecs = np.linalg.eigh(g)
    evals = np.clip(evals, 0.0, SIGMA_DIAG_CEIL)
    return (evecs * evals[..., None, :]) @ np.swapaxes(evecs, -1, -2)


def guidance_gradient_cadps(
    x_t: np.ndarray,
    score: np.ndarray,
    ab: float,
    meas: MeasurementModel,
    score_fn: Callable[[np.ndarray], np.ndarray],
):
    """Covariance-aware likelihood gradient; returns (gradient, cg_report).

    The gradient is the single quantity (sqrt(ab)/(1-ab)) Sigma_t A^T lam,
    which bakes in the Jacobian identity d(x0_hat)/d(x_t) =
    (sqrt(ab)/(1-ab)) Sigma_t.  Sigma_t enters only through the m rows
    Sigma_t a_i, computed from forward-difference Hessian-vector products of
    score_fn against the step's own score; they give both the Gram
    A Sigma_t A^T and Sigma_t A^T lam = lam @ rows, so the full
    cross-coordinate covariance structure is retained at a cost of m extra
    score evaluations per step (none for a zero row of A).
    """
    rhs = residual(meas, tweedie_mean(x_t, score, ab))
    # the mixture smoothing length is at least sqrt(1 - ab), so the FD step
    # tracks it
    eps = max(1e-3 * np.sqrt(1.0 - ab), 1e-8)
    cov_fac = (1.0 - ab) / ab

    # filled in place: stacking a list would hold every row twice
    rows = np.empty(np.shape(x_t)[:-1] + meas.a.shape)  # (..., m, d)
    for i in range(meas.m):
        hv = _forward_score_hvp(score_fn, x_t, score, meas.a[i], eps)
        rows[..., i, :] = cov_fac * (meas.a[i] + (1.0 - ab) * hv)
    lam, report = _solve_likelihood(meas, _clip_psd(rows @ meas.a.T), rhs)
    jac = np.sqrt(ab) / (1.0 - ab)
    return jac * np.einsum("...i,...id->...d", lam, rows), report


def sample_final_conditional(
    x0: np.ndarray,
    var: float,
    meas: MeasurementModel,
    noise_u: np.ndarray,
    noise_w: np.ndarray,
):
    """Draw from N(x0, var I) conditioned on y = A x + sigma eps.

    Matheron update: with u ~ N(0, var I) and w ~ N(0, sigma^2 I),
        x = (x0 + u) + var A^T (sigma^2 I + var A A^T)^{-1} (y - A (x0 + u) - w)
    has exactly the conditional mean and covariance.  The callers supply
    noise_u and noise_w as standard normals so the RNG stream stays under
    the sampler's control.  Returns (sample, cg_report).
    """
    xu = x0 + np.sqrt(var) * noise_u
    rhs = residual(meas, xu) - meas.sigma * noise_w
    lam, report = _solve_likelihood(meas, (var * meas.a) @ meas.a.T, rhs)
    return xu + var * (lam @ meas.a), report


def guidance_gradient_dps(
    x_t: np.ndarray,
    score: np.ndarray,
    ab: float,
    meas: MeasurementModel,
    jacobian_vp: Callable[[np.ndarray], np.ndarray],
    zeta: float = 1.0,
) -> np.ndarray:
    """DPS correction (2 zeta / ||r||) J^T A^T r, zero where r vanishes.

    jacobian_vp applies the symmetric Tweedie Jacobian J, so J^T v = J v.
    """
    if not 0 < zeta < np.inf:
        raise ValueError("zeta must be finite and positive")
    r = residual(meas, tweedie_mean(x_t, score, ab))
    rnorm = np.linalg.norm(r, axis=-1, keepdims=True)
    coeff = np.where(rnorm > 0, 2.0 * zeta / np.where(rnorm > 0, rnorm, 1.0), 0.0)
    return coeff * jacobian_vp(r @ meas.a)


def guidance_gradient_pigdm(
    x_t: np.ndarray,
    score: np.ndarray,
    ab: float,
    meas: MeasurementModel,
    jacobian_vp: Callable[[np.ndarray], np.ndarray],
):
    """PiGDM correction J^T A^T (sigma^2 I + r_t^2 A A^T)^{-1} (y - A x0_hat).

    r_t^2 = 1 - ab is the variance of the VP form; jacobian_vp applies J as
    for DPS.  Returns (gradient, cg_report).
    """
    rhs = residual(meas, tweedie_mean(x_t, score, ab))
    lam, report = _solve_likelihood(meas, (1.0 - ab) * (meas.a @ meas.a.T), rhs)
    return jacobian_vp(lam @ meas.a), report

"""Likelihood-score corrections: DPS, PiGDM, and the covariance-aware rule.

Each rule returns its approximation of grad log p_t(y | x_t), which the
sampler adds to the prior score.  Every rule takes the same arguments:
the residual r = y - A x0_hat of the step's Tweedie mean, the noise level
ab = alpha_bar_t, the measurement, and hvp(v) = H(x_t) v, the product with
the Hessian of log p_t at the step's state.  r is (m,) for one chain or
(n, m) for a batch; hvp returns one product per chain.  With
jac = sqrt(ab) / (1 - ab) and Sigma_t = ((1 - ab) / ab) (I + (1 - ab) H),
each gradient is jac Sigma_t A^T lam, and only lam differs: 2 zeta r / |r|
for DPS, and the solution of (sigma^2 I + G) lam = r for PiGDM and CA-DPS.
Those two and the final conditional draw solve that one system, differing
only in the m x m Gram G = A C A^T of their covariance C.  The sampler
passes DPS and PiGDM the exact product and CA-DPS a forward difference of
the score, at m extra score evaluations.
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
    ab: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """hvp(v) = H(x) v by forward differencing of the score at x.

    score is score_fn(x), already held by the caller, so each product
    costs one score evaluation.  x is (d,) or batched (n, d); the direction
    v of shape (d,) is shared by every row.  The difference is taken along
    the unit direction of v, so eps is the absolute step size; the mixture
    smoothing length is at least sqrt(1 - ab), so eps tracks it.  v = 0
    returns zeros without evaluating the score.
    """
    eps = max(1e-3 * np.sqrt(1.0 - ab), 1e-8)

    def hvp(v: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(v[None], axis=-1)[0]
        if norm == 0.0:
            return np.zeros(np.shape(x))
        return (norm / eps) * (score_fn(x + (eps / norm) * v) - score)

    return hvp


def _tweedie_jvp(v: np.ndarray, ab: float, hvp: Callable[[np.ndarray], np.ndarray]):
    """J v = (v + (1 - ab) H v) / sqrt(ab), with J = d(x0_hat)/d(x_t) symmetric."""
    hv = hvp(v)
    return (v + (1.0 - ab) * hv) / np.sqrt(ab)


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
    r: np.ndarray,
    ab: float,
    meas: MeasurementModel,
    hvp: Callable[[np.ndarray], np.ndarray],
):
    """Covariance-aware likelihood gradient; returns (gradient, cg_report).

    Sigma_t enters only through the m rows Sigma_t a_i, one product hvp(a_i)
    each; they give both the Gram A Sigma_t A^T and Sigma_t A^T lam =
    lam @ rows, so the full cross-coordinate covariance structure is
    retained.  With the sampler's forward-difference product that costs m
    extra score evaluations per step (none for a zero row of A).
    """
    cov_fac = (1.0 - ab) / ab
    # filled in place: stacking a list would hold every row twice
    rows = np.empty(np.shape(r)[:-1] + meas.a.shape)  # (..., m, d)
    for i in range(meas.m):
        hv = hvp(meas.a[i])
        rows[..., i, :] = cov_fac * (meas.a[i] + (1.0 - ab) * hv)
    lam, report = _solve_likelihood(meas, _clip_psd(rows @ meas.a.T), r)
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
    r: np.ndarray,
    ab: float,
    meas: MeasurementModel,
    hvp: Callable[[np.ndarray], np.ndarray],
    zeta: float = 1.0,
) -> np.ndarray:
    """DPS correction (2 zeta / ||r||) J^T A^T r, zero where r vanishes.

    J is symmetric, so J^T v = J v.
    """
    if not 0 < zeta < np.inf:
        raise ValueError("zeta must be finite and positive")
    rnorm = np.linalg.norm(r, axis=-1, keepdims=True)
    coeff = np.where(rnorm > 0, 2.0 * zeta / np.where(rnorm > 0, rnorm, 1.0), 0.0)
    return coeff * _tweedie_jvp(r @ meas.a, ab, hvp)


def guidance_gradient_pigdm(
    r: np.ndarray,
    ab: float,
    meas: MeasurementModel,
    hvp: Callable[[np.ndarray], np.ndarray],
):
    """PiGDM correction J^T A^T (sigma^2 I + r_t^2 A A^T)^{-1} r.

    r_t^2 = 1 - ab is the variance of the VP form.  Returns (gradient,
    cg_report).
    """
    lam, report = _solve_likelihood(meas, (1.0 - ab) * (meas.a @ meas.a.T), r)
    return _tweedie_jvp(lam @ meas.a, ab, hvp), report

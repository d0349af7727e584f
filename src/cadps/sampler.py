"""Ancestral reverse diffusion with optional measurement guidance.

Chains are batched along the leading axis: one RNG drives the whole
batch, so a batch of size one reproduces the single-chain stream
exactly.  Every chain starts from N(0, I) at the first guided step t0,
the last step with alpha_bar >= _GUIDANCE_AB_MIN: the steps above t0
map N(0, I) to itself up to O(sqrt(alpha_bar)) <= 1e-6 and are not run.
Each guided step is one ancestral step with the posterior score: the
prior score plus the guidance rule's approximation of the likelihood
score grad log p_t(y | x_t).  The prior score is evaluated once per step
and reused for the Tweedie mean, whose residual every guidance rule takes,
and as the base point of CA-DPS's forward-difference Hessian-vector
products.  DPS and PiGDM take the exact product gmm.smoothed_score_hvp.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gmm
from .gmm import GaussianMixture, smoothed_score
from .guidance import (
    GuidanceMethod,
    _forward_score_hvp,
    guidance_gradient_cadps,
    guidance_gradient_dps,
    guidance_gradient_pigdm,
    sample_final_conditional,
    tweedie_mean,
)
from .measurement import MeasurementModel, residual
from .schedule import NoiseSchedule

# below this alpha_bar the exact likelihood correction is O(sqrt(alpha_bar))
# <= 1e-6, a numerical zero, while the floating-point Tweedie mean and the
# (1 - ab)/ab covariance factor degenerate to amplified cancellation noise.
# Such a step is x -> sqrt(1 - beta) x + sqrt(beta) z up to the same order,
# which keeps N(0, I) fixed, and the diffused prior is N(0, I) to within
# sqrt(alpha_bar) max_k |U_k|; so chains start at the last step above it.
_GUIDANCE_AB_MIN = 1e-12

__all__ = [
    "ChainConfig",
    "ChainDiagnostics",
    "reverse_step",
    "run_guided_chains",
]


@dataclass(frozen=True)
class ChainConfig:
    schedule: NoiseSchedule
    method: GuidanceMethod
    rng_seed: int | np.random.Generator = 0
    n_chains: int = 1


@dataclass
class ChainDiagnostics:
    aborted: np.ndarray  # bool mask of chains that went non-finite
    cg_failures: int = 0

    @property
    def n_aborted(self) -> int:
        return int(np.count_nonzero(self.aborted))


def reverse_step(
    x_t: np.ndarray,
    score: np.ndarray,
    schedule: NoiseSchedule,
    t: int,
    z: np.ndarray,
) -> np.ndarray:
    """One ancestral DDPM step, (x_t + beta_t score) / sqrt(1 - beta_t) + sigma_tilde_t z.

    z is standard normal.  This equals the posterior-mean form of the step
    wherever alpha_bar_t = (1 - beta_t) alpha_bar_{t-1}, that is wherever
    the schedule's 1e-250 floor does not bind: on every step the sampler runs.
    """
    beta = schedule.beta_t(t)
    return (x_t + beta * score) / np.sqrt(1.0 - beta) + schedule.sigma_tilde_t(t) * z


def run_guided_chains(
    prior: GaussianMixture,
    meas: MeasurementModel,
    config: ChainConfig,
):
    """Guided reverse diffusion; returns (samples (n, d), diagnostics).

    Each step adds the method's likelihood gradient to the score and steps
    with the sum.  Chains whose state goes non-finite are frozen at NaN and
    flagged in the diagnostics.  Chains start at the first guided step t0,
    and DPS guides every step from there.

    For a nonzero A, PiGDM and CA-DPS guide down to t = 2 and then draw
    their final x0 from N(x0_hat, (1 - ab_1) I) conditioned on the
    observation, so they compute no guidance gradient at t = 1.
    """
    if prior.dim != meas.d:
        raise ValueError("prior dimension does not match measurement matrix")
    schedule = config.schedule
    method = config.method
    rng = np.random.default_rng(config.rng_seed)
    n = config.n_chains
    x, t0 = _start_chains(schedule, n, prior.dim, rng)
    aborted = np.zeros(n, dtype=bool)
    cg_failures = 0

    for t in range(t0, 0, -1):
        ab = schedule.alpha_bar_t(t)
        # flag runaway chains before they overflow downstream products; the
        # comparison is False for NaN and inf, so this also flags those
        aborted |= ~np.all(np.abs(x) <= 1e10, axis=1)
        x_safe = np.where(aborted[:, None], 0.0, x)
        score = smoothed_score(prior, x_safe, ab)
        # drawn every step, also where sigma_tilde = 0 or the final draw
        # below replaces the step, so the RNG stream is the same for every
        # method and every measurement
        z = rng.standard_normal(x.shape)

        x0_hat = tweedie_mean(x_safe, score, ab)
        if t == 1 and method.tag != "dps" and np.any(meas.a):
            # final step: the deterministic Tweedie output collapses the
            # posterior spread whenever 1 - alpha_bar_1 exceeds the target
            # variance, so draw x0 from the method's Gaussian model
            # N(x0_hat, (1 - ab_1) I) conditioned on the observation instead
            noise_u = rng.standard_normal(x.shape)
            noise_w = rng.standard_normal((n, meas.m))
            x, report = sample_final_conditional(x0_hat, 1.0 - ab, meas, noise_u, noise_w)
        else:
            r = residual(meas, x0_hat)
            report = None
            # the exact product is looked up on the gmm module every step, so
            # a wrapper installed there sees every call.  Binding x_safe by
            # value and not keeping CA-DPS's closure gave the lowest peak RSS
            # on perfbench's d800 workload (110.6 MB after five rounds, against
            # 114 to 119 MB for other bindings), through where the n x d
            # temporaries land on the heap.
            if method.tag == "cadps":
                score_fn = lambda xx: smoothed_score(prior, xx, ab)  # noqa: E731
                grad, report = guidance_gradient_cadps(
                    r, ab, meas, _forward_score_hvp(score_fn, x_safe, score, ab)
                )
            else:
                hvp = functools.partial(gmm.smoothed_score_hvp, prior, x_safe, ab)
                if method.tag == "dps":
                    grad = guidance_gradient_dps(r, ab, meas, hvp, zeta=method.zeta)
                else:
                    grad, report = guidance_gradient_pigdm(r, ab, meas, hvp)
            # one ancestral step with the posterior score
            x = reverse_step(x_safe, score + grad, schedule, t, z)
        if report is not None and not report.converged:
            cg_failures += 1

    aborted |= ~np.all(np.isfinite(x), axis=1)
    x[aborted] = np.nan
    return x, ChainDiagnostics(aborted=aborted, cg_failures=cg_failures)


def _start_chains(schedule: NoiseSchedule, n: int, d: int, rng: np.random.Generator):
    """x_{t0} ~ N(0, I) of shape (n, d) and t0 = max{t : alpha_bar_t >= floor}."""
    informative = np.flatnonzero(schedule.alpha_bar >= _GUIDANCE_AB_MIN)
    if informative.size == 0:
        raise ValueError(f"no step of the schedule has alpha_bar >= {_GUIDANCE_AB_MIN}")
    return rng.standard_normal((n, d)), int(informative[-1]) + 1

"""Discrete variance-preserving diffusion noise schedule.

The sampler reads every per-step table from one schedule object; the
Gaussian-mixture smoothing formulas take alpha_bar as a number.  Step
indices are 1-based: t runs from 1 (least noisy) to n_steps (near-pure
noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["NoiseSchedule", "build_linear_vp_schedule"]


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise tables for an N-step reverse diffusion, built from beta.

    beta[i], alpha_bar[i] (the running product of 1 - beta) and
    sigma_tilde[i] (the ancestral-step noise scales, with sigma_tilde[0] = 0
    so the final step is deterministic) are stored 0-based; use the
    accessors with 1-based t.  alpha_bar and sigma_tilde are derived from
    beta once, when the schedule is built.
    """

    beta: np.ndarray
    alpha_bar: np.ndarray = field(init=False)
    sigma_tilde: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=np.float64)
        # heavily capped schedules (small N with large beta_max) underflow the
        # running product to exactly 0; floor it so 1/sqrt(alpha_bar) stays finite
        alpha_bar = np.maximum(np.cumprod(1.0 - beta), 1e-250)
        alpha_bar_prev = np.concatenate(([1.0], alpha_bar[:-1]))
        # DDPM posterior-variance choice; the first entry is forced to zero so
        # the returned x0 is the guided posterior mean.
        sigma_tilde = np.sqrt(beta * (1.0 - alpha_bar_prev) / (1.0 - alpha_bar))
        sigma_tilde[0] = 0.0
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha_bar", alpha_bar)
        object.__setattr__(self, "sigma_tilde", sigma_tilde)

    @property
    def n_steps(self) -> int:
        return len(self.beta)

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.n_steps:
            raise IndexError(f"step index {t} outside [1, {self.n_steps}]")

    def beta_t(self, t: int) -> float:
        self._check_t(t)
        return float(self.beta[t - 1])

    def alpha_bar_t(self, t: int) -> float:
        self._check_t(t)
        return float(self.alpha_bar[t - 1])

    def sigma_tilde_t(self, t: int) -> float:
        self._check_t(t)
        return float(self.sigma_tilde[t - 1])


def build_linear_vp_schedule(
    n_steps: int, beta_min: float = 0.1, beta_max: float = 500.0
) -> NoiseSchedule:
    """Build the linear VP schedule beta_i = min(beta(i/N)/N, 0.999).

    The 0.999 cap keeps alpha_i > 0 so alpha_bar never degenerates to
    exactly zero.  The default beta range is the toy study's.
    """
    if n_steps < 2:
        raise ValueError(f"n_steps must be >= 2, got {n_steps}")
    if not (0.0 < beta_min <= beta_max):
        raise ValueError(
            f"need 0 < beta_min <= beta_max, got ({beta_min}, {beta_max})"
        )
    i = np.arange(1, n_steps + 1, dtype=np.float64)
    return NoiseSchedule(
        np.minimum((beta_min + (i / n_steps) * (beta_max - beta_min)) / n_steps, 0.999)
    )

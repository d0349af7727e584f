"""Random linear-Gaussian measurement models for the toy study."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmm import GaussianMixture, sample_mixture

__all__ = [
    "MeasurementModel",
    "generate_measurement_matrix",
    "generate_observation",
    "residual",
]


@dataclass(frozen=True)
class MeasurementModel:
    """The observation y = A x0 + N(0, sigma^2 I); the ground truth is not kept."""

    a: np.ndarray  # (m, d)
    y: np.ndarray  # (m,)
    sigma: float

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]


def generate_measurement_matrix(
    d: int, m: int, rng_seed: int | np.random.Generator
) -> np.ndarray:
    """Gaussian seed matrix with its m singular values redrawn Uniform[0, 1].

    The SVD of the m x d seed comes from the eigendecomposition of its
    m x m Gram matrix (m <= 4 in all experiments), taken in descending
    order, with right singular vectors A~^T u_i / s_i.  Zero draws are
    rejected so A A^T stays nonsingular.
    """
    if not 1 <= m <= d:
        raise ValueError(f"need 1 <= m <= d, got m={m}, d={d}")
    rng = np.random.default_rng(rng_seed)
    seed_mat = rng.standard_normal((m, d))
    gram_evals, u = np.linalg.eigh(seed_mat @ seed_mat.T)
    gram_evals, u = gram_evals[::-1], u[:, ::-1]
    seed_svals = np.sqrt(np.maximum(gram_evals, 0.0))
    v = (seed_mat.T @ u) / seed_svals  # (d, m), orthonormal columns
    s = rng.uniform(0.0, 1.0, size=m)
    while np.any(s == 0.0):
        s = np.where(s == 0.0, rng.uniform(0.0, 1.0, size=m), s)
    return (u * s) @ v.T


def generate_observation(
    a: np.ndarray,
    prior: GaussianMixture,
    sigma: float,
    rng_seed: int | np.random.Generator,
) -> MeasurementModel:
    """Observe y = A x* + sigma * z, drawing x* = sample_mixture(prior, 1, rng)[0]
    and then z = rng.standard_normal(m) from one generator."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[1] != prior.dim:
        raise ValueError(
            f"matrix has {a.shape[1]} columns but prior dimension is {prior.dim}"
        )
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    x_star = sample_mixture(prior, 1, rng)[0]
    y = a @ x_star + sigma * rng.standard_normal(a.shape[0])
    return MeasurementModel(a=a, y=y, sigma=float(sigma))


def residual(meas: MeasurementModel, x0_hat: np.ndarray) -> np.ndarray:
    """y - A x0_hat."""
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if x0_hat.shape[-1] != meas.d:
        raise ValueError("dimension mismatch in residual")
    return meas.y - x0_hat @ meas.a.T

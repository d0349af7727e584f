"""The analytic Gaussian-mixture world.

A 25-component lattice prior with unit component variance, its smoothed
score at any diffusion time, the exact conditional moments E[x0|xt] and
Cov(x0|xt), and the exact Gaussian-mixture posterior under a
linear-Gaussian measurement.  These are the ground-truth oracles every
sampler is judged against, so everything here is computed in log-space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GaussianMixture",
    "ConditionalMoments",
    "build_toy_prior",
    "smoothed_score",
    "smoothed_score_hvp",
    "make_tweedie_jacobian_vp",
    "conditional_moments",
    "exact_posterior",
    "sample_mixture",
]

TOY_LATTICE = list(itertools.product(range(-2, 3), repeat=2))


@dataclass(frozen=True)
class GaussianMixture:
    """Weighted Gaussian mixture with the shared covariance I - B^T B.

    ``factor`` is the (r, d) matrix B; the default has r = 0, unit
    components, as the prior and every smoothing formula need.
    exact_posterior returns its (m, d) B.  log_weights are kept
    normalized (logsumexp == 0).
    """

    means: np.ndarray  # (K, d)
    log_weights: np.ndarray  # (K,)
    factor: np.ndarray | None = None  # (r, d); None means r = 0

    def __post_init__(self):
        if self.means.ndim != 2 or self.means.shape[0] != self.log_weights.shape[0]:
            raise ValueError("means must be (K, d), one row per log-weight")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("non-finite component means")
        if self.factor is None:
            object.__setattr__(self, "factor", np.zeros((0, self.dim)))
        elif self.factor.ndim != 2 or self.factor.shape[1] != self.dim:
            raise ValueError("factor must be (r, d), one column per coordinate")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def cov(self) -> np.ndarray:
        """The shared (d, d) covariance I - B^T B, formed on demand."""
        return np.eye(self.dim) - self.factor.T @ self.factor


@dataclass(frozen=True)
class ConditionalMoments:
    mean: np.ndarray  # (d,)
    cov: np.ndarray  # (d, d), symmetric PSD


def _normalize_log_weights(log_w: np.ndarray) -> np.ndarray:
    """log_w - logsumexp(log_w), shifted by the maximum so exp cannot overflow."""
    top = np.max(log_w)
    return log_w - (top + np.log(np.sum(np.exp(log_w - top))))


def build_toy_prior(d: int) -> GaussianMixture:
    """25-component lattice prior: means repeat (8i, 8j) to length d."""
    if d < 2 or d % 2 != 0:
        raise ValueError(f"dimension must be even and >= 2, got {d}")
    means = np.array(
        [np.tile([8.0 * i, 8.0 * j], d // 2) for i, j in TOY_LATTICE]
    )
    log_w = _normalize_log_weights(np.zeros(len(TOY_LATTICE)))
    return GaussianMixture(means=means, log_weights=log_w)


def _require_unit_variance(prior: GaussianMixture) -> None:
    if prior.factor.shape[0]:
        raise ValueError("smoothing formulas require unit component variance")


def _responsibilities(prior: GaussianMixture, x: np.ndarray, alpha_bar: float):
    """Responsibilities under p_t = sum_k w_k N(x; sqrt(ab) U_k, I).

    x has shape (n, d); returns (resp (n, K), smoothed means (K, d)).
    Smoothed components keep unit variance because the prior components
    do: alpha_bar * 1 + (1 - alpha_bar) = 1.  The logits
    log w_k - 0.5 ||x - m_k||^2 are formed as one matmul without the
    -0.5 ||x||^2 term, which is shared by every component and cancels in
    the softmax.
    """
    means_t = np.sqrt(alpha_bar) * prior.means
    logits = x @ means_t.T + (
        prior.log_weights - 0.5 * np.einsum("kd,kd->k", means_t, means_t)
    )
    top = logits.max(axis=1, keepdims=True)
    resp = np.exp(logits - top)
    total = resp.sum(axis=1, keepdims=True)
    resp /= total
    return resp, means_t


def smoothed_score(prior: GaussianMixture, x_t: np.ndarray, alpha_bar: float):
    """grad_x log p_t(x_t); x_t is (d,) or (n, d)."""
    _require_unit_variance(prior)
    x = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    r, means_t = _responsibilities(prior, x, alpha_bar)
    score = r @ means_t - x
    return score[0] if np.asarray(x_t).ndim == 1 else score


def smoothed_score_hvp(
    prior: GaussianMixture, x_t: np.ndarray, alpha_bar: float, v: np.ndarray
):
    """Hessian-vector product (grad^2 log p_t(x)) v, batched like x_t.

    For unit-variance components the Hessian is Cov_r(m) - I, the
    responsibility-weighted covariance of the smoothed means minus the
    identity, so with mu = sum_k r_k m_k:
        H v = sum_k r_k (m_k - mu) ((m_k - mu) . v) - v.
    """
    _require_unit_variance(prior)
    squeeze = np.asarray(x_t).ndim == 1
    x = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    vv = np.atleast_2d(np.asarray(v, dtype=np.float64))
    r, means_t = _responsibilities(prior, x, alpha_bar)
    mu = r @ means_t
    w = r * (vv @ means_t.T - np.einsum("nd,nd->n", mu, vv)[:, None])
    out = w @ means_t - mu * w.sum(axis=1, keepdims=True) - vv
    return out[0] if squeeze else out


def make_tweedie_jacobian_vp(prior: GaussianMixture, alpha_bar: float, x_t: np.ndarray):
    """Exact d(x0_hat)/d(x_t) at x_t applied to a vector, via the analytic Hessian.

    J = (1/sqrt(ab)) (I + (1 - ab) H); the returned callable maps
    v -> J v with the same batching as smoothed_score.
    """

    def jvp(v: np.ndarray) -> np.ndarray:
        hv = smoothed_score_hvp(prior, x_t, alpha_bar, v)
        return (v + (1.0 - alpha_bar) * hv) / np.sqrt(alpha_bar)

    return jvp


def conditional_moments(
    prior: GaussianMixture, x_t: np.ndarray, alpha_bar: float
) -> ConditionalMoments:
    """Exact E[x0 | x_t] and Cov(x0 | x_t) under the mixture prior."""
    _require_unit_variance(prior)
    x = np.asarray(x_t, dtype=np.float64)
    resp, _ = _responsibilities(prior, x[None, :], alpha_bar)
    r = resp[0]
    sab = np.sqrt(alpha_bar)
    # per-component posterior: mean U_k + sqrt(ab)(x - sqrt(ab) U_k),
    # covariance (1 - ab) I
    comp_means = prior.means + sab * (x - sab * prior.means)
    mean = r @ comp_means
    d = prior.dim
    cov = (1.0 - alpha_bar) * np.eye(d)
    cov += np.einsum("k,kd,ke->de", r, comp_means, comp_means)
    cov -= np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    return ConditionalMoments(mean=mean, cov=cov)


def exact_posterior(prior: GaussianMixture, meas) -> GaussianMixture:
    """Exact Gaussian-mixture posterior under y = A x0 + N(0, sigma^2 I).

    With L the m x m Cholesky factor of S = sigma^2 I + A A^T, B = L^{-1} A and
    z_k = L^{-1} (y - A U_k), Woodbury gives the shared covariance I - B^T B
    and the means U_k + B^T z_k; the weights are re-weighted by N(y; A U_k, S).
    The result keeps B as its factor, so no (d, d) array is formed.
    """
    _require_unit_variance(prior)
    a = np.asarray(meas.a, dtype=np.float64)
    y = np.asarray(meas.y, dtype=np.float64)
    sigma = float(meas.sigma)
    if sigma <= 0:
        raise ValueError("measurement noise sigma must be positive")
    m = a.shape[0]
    chol = np.linalg.cholesky(sigma**2 * np.eye(m) + a @ a.T)
    # numpy, not scipy.linalg, which would double the package's import cost
    b = np.linalg.solve(chol, a)  # (m, d)
    z = np.linalg.solve(chol, y[:, None] - a @ prior.means.T)  # (m, K)
    log_w = prior.log_weights + (
        -0.5 * np.einsum("ik,ik->k", z, z)
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * m * np.log(2.0 * np.pi)
    )
    means = prior.means + z.T @ b
    return GaussianMixture(means=means, log_weights=_normalize_log_weights(log_w), factor=b)


def sample_mixture(
    mix: GaussianMixture, n: int, rng_seed: int | np.random.Generator
) -> np.ndarray:
    """n i.i.d. draws from the mixture; deterministic given the seed.

    The generator draws the component indices (``choice``), then z with
    ``standard_normal((n, d))``.  With B B^T = V diag(g) V^T and
    K = V diag(1 / (1 + sqrt(1 - g))) V^T, the noise z - ((z B^T) K) B has
    covariance exactly I - B^T B, at the cost of one r x r eigh.  For the
    exact posterior 1 - g is about sigma^2 / s^2 for each singular value s
    of A, so at tiny sigma it can round below 0; it is clamped there.  An
    empty B returns z untouched.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(rng_seed)
    w = np.exp(mix.log_weights)
    w = w / w.sum()
    idx = rng.choice(mix.n_components, size=n, p=w)
    z = rng.standard_normal((n, mix.dim))
    b = mix.factor
    g, v = np.linalg.eigh(b @ b.T)
    k = (v / (1.0 + np.sqrt(np.maximum(1.0 - g, 0.0)))) @ v.T
    return mix.means[idx] + (z - ((z @ b.T) @ k) @ b)

import numpy as np
import pytest
from scipy.special import logsumexp

from cadps import (
    GaussianMixture,
    build_toy_prior,
    conditional_moments,
    exact_posterior,
    sample_mixture,
    smoothed_score,
    tweedie_mean,
)
from cadps.gmm import _normalize_log_weights, _responsibilities, smoothed_score_hvp
from cadps.measurement import MeasurementModel
from fd_hessian import fd_score_hessian


# Loop-over-components forms of the responsibilities, score and Hessian-vector
# product, as the kernel computed them before it became one matmul.  They are
# the reference the matmul kernel is checked against.
def _loop_log_resp(prior, x, ab):
    means_t = np.sqrt(ab) * prior.means
    logp = np.empty((x.shape[0], prior.n_components))
    for k in range(prior.n_components):
        diff = x - means_t[k]
        logp[:, k] = prior.log_weights[k] - 0.5 * np.einsum("nd,nd->n", diff, diff)
    return logp - logsumexp(logp, axis=1, keepdims=True), logp, means_t


def _loop_score(prior, x, ab):
    logr, _, means_t = _loop_log_resp(prior, x, ab)
    return np.exp(logr) @ means_t - x


def _loop_log_pdf(prior, x, ab):
    """log p_t(x) of the diffused mixture, the oracle for the score's
    central differences."""
    _, logp, _ = _loop_log_resp(prior, x, ab)
    return logsumexp(logp, axis=1) - 0.5 * prior.dim * np.log(2.0 * np.pi)


def _loop_hvp(prior, x, ab, v):
    """sum_k r_k (m_k - x)((m_k - x) . v) - v - s (s . v), and the size of
    the terms it sums (its rounding error is relative to that size)."""
    logr, _, means_t = _loop_log_resp(prior, x, ab)
    r = np.exp(logr)
    s = r @ means_t - x
    out = -v - s * np.einsum("nd,nd->n", s, v)[:, None]
    size = np.linalg.norm(v, axis=1) * (1.0 + np.einsum("nd,nd->n", s, s))
    for k in range(prior.n_components):
        diff = means_t[k] - x
        out += (r[:, k] * np.einsum("nd,nd->n", diff, v))[:, None] * diff
        size += r[:, k] * np.einsum("nd,nd->n", diff, diff) * np.linalg.norm(v, axis=1)
    return out, size


def _kernel_inputs(d, ab, rng):
    """Rows near the smoothed modes, rows between modes, and rows just inside
    the sampler's 1e10 runaway guard (returned separately)."""
    prior = build_toy_prior(d)
    near = np.sqrt(ab) * prior.means[rng.integers(0, 25, size=20)] + rng.standard_normal((20, d))
    between = np.sqrt(ab) * rng.uniform(-20.0, 20.0, size=(20, d)) + rng.standard_normal((20, d))
    edge = rng.standard_normal((6, d))
    edge *= 0.99e10 / np.max(np.abs(edge), axis=1, keepdims=True)
    return prior, np.vstack([near, between]), edge


def _rel_err(a, b):
    return np.linalg.norm(a - b, axis=1) / np.linalg.norm(b, axis=1)


@pytest.mark.parametrize("d", [8, 80, 800])
@pytest.mark.parametrize("ab", [0.9, 1e-3, 1e-250])
def test_matmul_kernel_matches_loop_form(d, ab):
    rng = np.random.default_rng(d)
    prior, x, edge = _kernel_inputs(d, ab, rng)
    rows = np.vstack([x, edge])
    logr_loop, logp_loop, _ = _loop_log_resp(prior, rows, ab)
    r, _ = _responsibilities(prior, rows, ab)
    assert np.all(np.isfinite(r))
    assert np.max(np.abs(r[: len(x)] - np.exp(logr_loop[: len(x)]))) <= 1e-10
    # at the runaway edge the loop form rounds -0.5 ||x - m_k||^2 ~ -1e20 to
    # a multiple of about 1e5: its log-normalizer loses log(25) and its
    # responsibilities no longer sum to 1.  Check the exact limits instead:
    # one-hot where sqrt(ab) U_k . x separates the components by ~1e9, the
    # prior weights where sqrt(ab) = 1e-125 leaves them inseparable.
    if ab == 1e-250:
        limit = np.broadcast_to(np.exp(prior.log_weights), r[len(x) :].shape)
    else:
        limit = np.eye(25)[np.argmax(logp_loop[len(x) :], axis=1)]
    assert np.max(np.abs(r[len(x) :] - limit)) <= 1e-10

    score = smoothed_score(prior, rows, ab)
    assert np.all(np.isfinite(score))
    assert np.max(_rel_err(score, _loop_score(prior, rows, ab))) <= 1e-10

    v = rng.standard_normal(x.shape)
    hv = smoothed_score_hvp(prior, x, ab, v)
    hv_loop, size = _loop_hvp(prior, x, ab, v)
    assert np.all(np.isfinite(hv))
    assert np.all(np.linalg.norm(hv - hv_loop, axis=1) <= 1e-10 * size)

    # at the runaway edge one component takes all the responsibility, so
    # H v = Cov_r(m) v - v is exactly -v; the loop form cancels terms of
    # size ||x||^2 ||v|| ~ 1e20 there and keeps no digit of it
    v_edge = rng.standard_normal(edge.shape)
    hv_edge = smoothed_score_hvp(prior, edge, ab, v_edge)
    assert np.max(_rel_err(hv_edge, -v_edge)) <= 1e-10


def _single_gaussian(d=1):
    return GaussianMixture(means=np.zeros((1, d)), log_weights=np.zeros(1))


def test_toy_prior_lattice_d2():
    prior = build_toy_prior(2)
    assert prior.n_components == 25
    lattice = {(8.0 * i, 8.0 * j) for i in range(-2, 3) for j in range(-2, 3)}
    assert {tuple(m) for m in prior.means} == lattice
    assert np.allclose(np.exp(prior.log_weights), 1 / 25)
    assert any(np.allclose(m, 0.0) for m in prior.means)


def test_toy_prior_repetition_pattern():
    prior = build_toy_prior(8)
    target = np.array([16.0, -8.0] * 4)
    assert any(np.allclose(m, target) for m in prior.means)


def test_toy_prior_rejects_odd_dim():
    with pytest.raises(ValueError):
        build_toy_prior(3)


def test_mixture_width_comes_from_means():
    mix = GaussianMixture(means=np.zeros((3, 5)), log_weights=np.zeros(3))
    assert mix.dim == 5
    assert mix.factor.shape == (0, 5)
    for factor in (np.zeros((2, 4)), np.zeros(5), np.zeros((1, 5, 1))):
        with pytest.raises(ValueError, match="factor must be"):
            GaussianMixture(means=np.zeros((3, 5)), log_weights=np.zeros(3), factor=factor)
    with pytest.raises(ValueError, match="one row per log-weight"):
        GaussianMixture(means=np.zeros(3), log_weights=np.zeros(3))
    with pytest.raises(ValueError, match="one row per log-weight"):
        GaussianMixture(means=np.zeros((2, 5)), log_weights=np.zeros(3))


def test_score_single_component_is_minus_x():
    prior = _single_gaussian(3)
    x = np.array([0.3, -1.0, 2.0])
    for ab in (0.1, 0.5, 0.99):
        assert np.allclose(smoothed_score(prior, x, ab), -x)


def test_score_zero_at_origin_by_symmetry():
    prior = build_toy_prior(2)
    assert np.allclose(smoothed_score(prior, np.zeros(2), 0.5), 0.0, atol=1e-12)


def test_score_matches_fd_of_log_pdf():
    prior = build_toy_prior(2)
    x = np.array([1.0, 1.0])
    ab = 0.5
    eps = 1e-5
    steps = eps * np.eye(2)
    fd = (_loop_log_pdf(prior, x + steps, ab) - _loop_log_pdf(prior, x - steps, ab)) / (2 * eps)
    assert np.max(np.abs(smoothed_score(prior, x, ab) - fd)) <= 1e-6


def test_score_hvp_matches_fd_hessian():
    prior = build_toy_prior(2)
    x = np.array([0.7, -0.4])
    ab = 0.4
    h = fd_score_hessian(lambda z: smoothed_score(prior, z, ab), x, eps=1e-5)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(2)
    assert np.allclose(smoothed_score_hvp(prior, x, ab, v), h @ v, atol=1e-6)


def test_conditional_moments_scalar_gaussian():
    prior = _single_gaussian(1)
    mom = conditional_moments(prior, np.array([2.0]), 0.5)
    assert mom.mean[0] == pytest.approx(np.sqrt(0.5) * 2.0, rel=1e-12)
    assert mom.cov[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_conditional_moments_noiseless_limit():
    prior = build_toy_prior(2)
    x = np.array([7.9, -8.1])
    mom = conditional_moments(prior, x, 1.0 - 1e-12)
    assert np.allclose(mom.mean, x, atol=1e-5)
    assert np.all(np.abs(mom.cov) < 1e-5)


def test_conditional_moments_monte_carlo():
    prior = build_toy_prior(2)
    x = np.array([4.0, 4.0])
    ab = 0.3
    mom = conditional_moments(prior, x, ab)
    rng = np.random.default_rng(11)
    # self-normalized importance sampling in independent batches; the
    # batch spread gives an honest standard error
    batches = []
    for _ in range(20):
        x0 = sample_mixture(prior, 50_000, rng)
        logw = -0.5 * np.sum((x - np.sqrt(ab) * x0) ** 2, axis=1) / (1 - ab)
        w = np.exp(logw - logw.max())
        w /= w.sum()
        batches.append(w @ x0)
    batches = np.array(batches)
    mean_mc = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
    assert np.all(np.abs(mean_mc - mom.mean) <= 3 * se)


def test_tweedie_consistency_with_moments():
    prior = build_toy_prior(2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = rng.uniform(-16, 16, size=2)
        ab = float(rng.uniform(0.05, 0.99))
        s = smoothed_score(prior, x, ab)
        assert np.allclose(
            tweedie_mean(x, s, ab), conditional_moments(prior, x, ab).mean, atol=1e-8
        )


def test_corollary_covariance_identity():
    prior = build_toy_prior(4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-10, 10, size=4)
        ab = float(rng.uniform(0.1, 0.95))
        h = fd_score_hessian(lambda z: smoothed_score(prior, z, ab), x, eps=1e-4)
        cov_fd = ((1 - ab) / ab) * (np.eye(4) + (1 - ab) * h)
        cov = conditional_moments(prior, x, ab).cov
        assert np.allclose(cov_fd, cov, atol=1e-4)


def test_exact_posterior_uninformative():
    # A = 0: the general form keeps the prior's means and weights, with
    # the prior's unit covariance as a matrix
    prior = build_toy_prior(2)
    meas = MeasurementModel(a=np.zeros((1, 2)), y=np.array([0.7]), sigma=1.0)
    post = exact_posterior(prior, meas)
    assert np.array_equal(post.means, prior.means)
    assert np.array_equal(post.cov, np.eye(2))
    assert np.allclose(post.log_weights, prior.log_weights, rtol=0.0, atol=1e-14)


def test_exact_posterior_scalar_conjugate():
    prior = _single_gaussian(1)
    meas = MeasurementModel(a=np.eye(1), y=np.array([2.0]), sigma=1.0)
    post = exact_posterior(prior, meas)
    assert post.means[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert post.cov[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_exact_posterior_weights_normalized():
    prior = build_toy_prior(2)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1, 2))
    meas = MeasurementModel(a=a, y=np.array([1.3]), sigma=0.1)
    post = exact_posterior(prior, meas)
    assert abs(logsumexp(post.log_weights)) <= 1e-12


def test_exact_posterior_log_weights_match_dense_inverse():
    # log w_k + log N(y; A U_k, sigma^2 I + A A^T), normalized, one component
    # at a time from an explicit inverse and log-determinant.  Each solve is
    # refined once: at d = 2, m = 4, sigma = 0.01 the covariance has
    # condition number ~1e4, and the unrefined inverse is off by 8e-13.
    # Normalized weights of dominant components sit near 0, so the error is
    # taken relative to the largest log-weight.
    rng = np.random.default_rng(22)
    for d in (2, 8, 80):
        prior = build_toy_prior(d)
        for m in (1, 2, 4):
            for sigma in (0.01, 0.1, 1.0):
                a = rng.standard_normal((m, d)) / np.sqrt(d)
                x_star = sample_mixture(prior, 1, rng)[0]
                y = a @ x_star + sigma * rng.standard_normal(m)
                cov = sigma**2 * np.eye(m) + a @ a.T
                inv = np.linalg.inv(cov)
                logdet = np.linalg.slogdet(cov)[1]
                log_w = []
                for lw, u in zip(prior.log_weights, prior.means):
                    r = y - a @ u
                    z = inv @ r
                    z = z + inv @ (r - cov @ z)
                    log_w.append(lw - 0.5 * (r @ z + logdet + m * np.log(2 * np.pi)))
                log_w = np.array(log_w)
                expect = log_w - logsumexp(log_w)
                meas = MeasurementModel(a=a, y=y, sigma=sigma)
                got = exact_posterior(prior, meas).log_weights
                err = np.max(np.abs(got - expect)) / np.max(np.abs(expect))
                assert err <= 1e-12, (d, m, sigma, err)


def _dense_inverse_posterior(prior, a, y, sigma):
    """(means, cov, weights) with the d x d precision inverted directly."""
    m, d = a.shape
    cov = np.linalg.inv(np.eye(d) + a.T @ a / sigma**2)
    cov = 0.5 * (cov + cov.T)
    means = (a.T @ y / sigma**2 + prior.means) @ cov.T
    s_inv = np.linalg.inv(sigma**2 * np.eye(m) + a @ a.T)
    resid = y - prior.means @ a.T
    log_w = prior.log_weights - 0.5 * np.einsum("ki,ij,kj->k", resid, s_inv, resid)
    return means, cov, np.exp(log_w - logsumexp(log_w))


def test_exact_posterior_matches_dense_inverse():
    # the Woodbury form from the m x m Cholesky against the d x d inverse
    rng = np.random.default_rng(25)
    for d in (2, 8, 80):
        prior = build_toy_prior(d)
        for m in (1, 2, 4):
            for sigma in (0.01, 0.1, 1.0):
                a = rng.standard_normal((m, d)) / np.sqrt(d)
                y = a @ sample_mixture(prior, 1, rng)[0] + sigma * rng.standard_normal(m)
                means, cov, w = _dense_inverse_posterior(prior, a, y, sigma)
                post = exact_posterior(prior, MeasurementModel(a=a, y=y, sigma=sigma))
                scale = 1.0 + np.max(np.abs(means))
                assert np.max(np.abs(post.means - means)) <= 1e-10 * scale, (d, m, sigma)
                assert np.max(np.abs(post.cov - cov)) <= 1e-10, (d, m, sigma)
                assert np.max(np.abs(np.exp(post.log_weights) - w)) <= 1e-10, (d, m, sigma)


def test_normalize_log_weights_matches_scipy_logsumexp():
    rng = np.random.default_rng(21)
    for scale in (1.0, 50.0, 800.0):
        log_w = scale * rng.standard_normal(25)
        expect = log_w - logsumexp(log_w)
        assert np.allclose(_normalize_log_weights(log_w), expect, rtol=1e-12, atol=0.0)
    # large common offsets neither overflow nor lose the normalization
    out = _normalize_log_weights(np.array([1000.0, 1000.0]))
    assert np.allclose(out, -np.log(2.0), rtol=1e-12, atol=0.0)


def test_sample_mixture_moments():
    prior = _single_gaussian(3)
    xs = sample_mixture(prior, 100_000, np.random.default_rng(5))
    assert np.all(np.abs(xs.mean(axis=0)) < 0.02)


def test_sample_mixture_degenerate_weights():
    mix = GaussianMixture(
        means=np.array([[0.0, 0.0], [100.0, 100.0]]),
        log_weights=np.array([-np.inf, 0.0]),
    )
    xs = sample_mixture(mix, 100, np.random.default_rng(6))
    assert np.all(np.linalg.norm(xs - 100.0, axis=1) < 10)


def test_sample_mixture_lattice_frequencies():
    prior = build_toy_prior(2)
    n = 25_000
    xs = sample_mixture(prior, n, np.random.default_rng(7))
    # nearest lattice assignment on the two coordinates
    cells = np.clip(np.round(xs / 8.0), -2, 2)
    _, counts = np.unique(cells, axis=0, return_counts=True)
    p = 1 / 25
    sigma = np.sqrt(n * p * (1 - p))
    assert counts.size == 25
    assert np.all(np.abs(counts - n * p) <= 3 * sigma)


def _replay_draw(mix, n, seed):
    """sample_mixture's documented draws: the indices, then z."""
    rng = np.random.default_rng(seed)
    w = np.exp(mix.log_weights)
    idx = rng.choice(mix.n_components, size=n, p=w / w.sum())
    return idx, rng.standard_normal((n, mix.dim))


def _posterior_factor(d, m, sigma, a_scale, rng):
    prior = build_toy_prior(d)
    a = a_scale * rng.standard_normal((m, d)) / np.sqrt(d)
    y = a @ sample_mixture(prior, 1, rng)[0] + sigma * rng.standard_normal(m)
    return exact_posterior(prior, MeasurementModel(a=a, y=y, sigma=sigma)).factor


@pytest.mark.parametrize(
    "d,m,sigma,a_scale",
    [
        (d, m, sigma, 1.0)
        for d in (2, 8, 80)
        for m in (1, 2, 4)
        for sigma in (0.01, 0.1, 1.0)
        if m <= d
    ]
    + [(800, 4, 0.1, 1.0), (8, 2, 1.0, 0.0)],
)
def test_sample_mixture_draw_is_a_square_root(d, m, sigma, a_scale):
    # the draw is x = T z for one component at 0; recover T from the
    # replayed z and check T T^T = I - B^T B.  a_scale = 0 is A = 0.
    b = _posterior_factor(d, m, sigma, a_scale, np.random.default_rng(28))
    mix = GaussianMixture(means=np.zeros((1, d)), log_weights=np.zeros(1), factor=b)
    n = 2 * d + 10
    xs = sample_mixture(mix, n, 7)
    _, z = _replay_draw(mix, n, 7)
    t_transpose = np.linalg.lstsq(z, xs, rcond=None)[0]
    cov = t_transpose.T @ t_transpose
    assert np.max(np.abs(cov - (np.eye(d) - b.T @ b))) <= 1e-10


@pytest.mark.parametrize("d", [2, 8, 800])
def test_sample_mixture_prior_draws_are_the_replay(d):
    # an empty factor adds nothing: every observation and chain seeded from
    # a prior draw stays bitwise the same
    prior = build_toy_prior(d)
    idx, z = _replay_draw(prior, 300, 11)
    assert np.array_equal(sample_mixture(prior, 300, 11), prior.means[idx] + z)


@pytest.mark.parametrize("sigma", [1e-9, 1e-12])
def test_sample_mixture_finite_at_tiny_sigma(sigma):
    # the smallest eigenvalues of I - B^T B are about sigma^2 / s^2 and
    # round away, so a (d, d) Cholesky of it fails here
    rng = np.random.default_rng(9)
    prior = build_toy_prior(8)
    a = rng.standard_normal((4, 8)) / np.sqrt(8)
    y = a @ sample_mixture(prior, 1, rng)[0] + sigma * rng.standard_normal(4)
    post = exact_posterior(prior, MeasurementModel(a=a, y=y, sigma=sigma))
    xs = sample_mixture(post, 500, 3)
    assert np.all(np.isfinite(xs))
    assert np.max(np.abs(xs @ a.T - y)) <= 1e-6

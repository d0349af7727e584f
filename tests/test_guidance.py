import numpy as np
import pytest

from cadps import (
    GuidanceMethod,
    build_linear_vp_schedule,
    build_toy_prior,
    conditional_moments,
    guidance_gradient_cadps,
    guidance_gradient_dps,
    guidance_gradient_pigdm,
    smoothed_score,
    tweedie_mean,
)
from cadps import guidance
from cadps.gmm import GaussianMixture, sample_mixture, smoothed_score_hvp
from cadps.guidance import (
    SIGMA_DIAG_CEIL,
    _clip_psd,
    _forward_score_hvp,
    sample_final_conditional,
)
from cadps.linalg import CgReport
from cadps.measurement import MeasurementModel, residual


def _single_gaussian(d=1):
    return GaussianMixture(means=np.zeros((1, d)), log_weights=np.zeros(1))


def _schedule():
    return build_linear_vp_schedule(100, 0.1, 500.0)


def _step_near(sched, target_ab):
    return int(np.argmin(np.abs(sched.alpha_bar - target_ab))) + 1


def _fd_hvp(prior, x, score, ab):
    """The sampler's product for CA-DPS: forward differences of the score."""
    return _forward_score_hvp(lambda z: smoothed_score(prior, z, ab), x, score, ab)


def _exact_hvp(prior, x, ab):
    """The sampler's product for DPS and PiGDM: the analytic Hessian."""
    return lambda v: smoothed_score_hvp(prior, x, ab, v)


def _residual(meas, x, score, ab):
    return residual(meas, tweedie_mean(x, score, ab))


def test_method_validation():
    with pytest.raises(ValueError):
        GuidanceMethod(tag="nope")
    with pytest.raises(ValueError):
        GuidanceMethod(tag="dps", zeta=0.0)
    # NaN passes a zeta <= 0 test; an infinite zeta aborts every DPS chain
    meas = MeasurementModel(a=np.eye(1), y=np.zeros(1), sigma=0.1)
    for zeta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            GuidanceMethod(tag="dps", zeta=zeta)
        with pytest.raises(ValueError, match="finite and positive"):
            guidance_gradient_dps(np.ones(1), 0.5, meas, lambda v: v, zeta=zeta)
    # zeta is a DPS setting; the other rules would ignore it
    for tag, zeta in (("pigdm", -3.0), ("pigdm", 3.0), ("cadps", 0.5), ("cadps", np.nan)):
        with pytest.raises(ValueError, match="DPS setting"):
            GuidanceMethod(tag=tag, zeta=zeta)
    assert GuidanceMethod(tag="pigdm", zeta=1.0) == GuidanceMethod(tag="pigdm")


def test_tweedie_examples():
    x = np.array([1.0, -2.0])
    assert np.allclose(tweedie_mean(x, np.zeros(2), 1.0), x)
    # d=1 standard normal prior: E[x0|xt] = sqrt(ab) xt
    assert tweedie_mean(np.array([2.0]), np.array([-2.0]), 0.5)[0] == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError):
        tweedie_mean(x, x, 0.0)


def test_tweedie_matches_analytic_moments():
    prior = build_toy_prior(2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-16, 16, 2)
        ab = float(rng.uniform(0.05, 0.99))
        s = smoothed_score(prior, x, ab)
        assert np.allclose(tweedie_mean(x, s, ab), conditional_moments(prior, x, ab).mean, atol=1e-8)


def test_clip_psd_clips_negative_eigenvalue_to_zero():
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
    g = (q * np.array([-0.5, 0.2, 2.0])) @ q.T
    out = _clip_psd(g)
    assert np.allclose(out, (q * np.array([0.0, 0.2, 2.0])) @ q.T, atol=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_clip_psd_caps_huge_eigenvalue_at_ceiling():
    # batched (n, m, m) blocks; diagonal blocks keep eigh exact
    g = np.stack([np.diag([1e150, 1.0]), np.diag([3.0, 1e101])])
    out = _clip_psd(g)
    want = np.stack([np.diag([SIGMA_DIAG_CEIL, 1.0]), np.diag([3.0, SIGMA_DIAG_CEIL])])
    assert np.array_equal(out, want)


def _eigh_clip(block):
    """The eigendecomposition clip of _clip_psd, one (m, m) block at a time."""
    evals, evecs = np.linalg.eigh(0.5 * (block + block.T))
    return (evecs * np.clip(evals, 0.0, SIGMA_DIAG_CEIL)) @ evecs.T


def _spy_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


def test_clip_psd_returns_positive_definite_batch_unchanged(monkeypatch):
    # slightly asymmetric, as a finite-difference Gram is
    rng = np.random.default_rng(12)
    b = rng.standard_normal((50, 4, 6))
    g = b @ np.swapaxes(b, -1, -2) + 1e-9 * rng.standard_normal((50, 4, 4))
    calls = _spy_eigh(monkeypatch)
    out = _clip_psd(g)
    assert calls == []
    assert np.array_equal(out, 0.5 * (g + np.swapaxes(g, -1, -2)))


def test_clip_psd_trace_at_the_ceiling_is_its_edge(monkeypatch):
    # trace exactly SIGMA_DIAG_CEIL passes the check: no eigh, block unchanged
    half = 0.5 * SIGMA_DIAG_CEIL
    g = np.stack([np.array([[half, 1.0], [1.0, half]]), np.eye(2)])
    assert np.trace(g[0]) == SIGMA_DIAG_CEIL
    calls = _spy_eigh(monkeypatch)
    assert np.array_equal(_clip_psd(g), g)
    assert calls == []
    # one ulp above: positive definite, but only eigh can clip it to the ceiling
    g = np.stack([np.diag([np.nextafter(SIGMA_DIAG_CEIL, np.inf), 1.0]), np.eye(2)])
    out = _clip_psd(g)
    assert calls == [g.shape]
    assert np.array_equal(out, np.stack([np.diag([SIGMA_DIAG_CEIL, 1.0]), np.eye(2)]))


def test_clip_psd_one_indefinite_block_clips_the_batch_by_eigh(monkeypatch):
    rng = np.random.default_rng(13)
    b = rng.standard_normal((50, 4, 6))
    g = b @ np.swapaxes(b, -1, -2)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    g[7] = (q * np.array([-0.5, 0.2, 1.0, 2.0])) @ q.T
    want = np.stack([_eigh_clip(block) for block in g])
    calls = _spy_eigh(monkeypatch)
    out = _clip_psd(g)
    assert calls == [g.shape]
    assert np.array_equal(out, want)
    assert np.linalg.eigvalsh(out[7]).min() >= -1e-12


def test_clip_psd_rank_one_block_takes_the_fallback(monkeypatch):
    # v v^T is PSD but singular: its second Cholesky pivot is exactly 0
    v = np.array([1.0, 2.0])
    g = np.stack([np.outer(v, v), 2.0 * np.eye(2)])
    calls = _spy_eigh(monkeypatch)
    out = _clip_psd(g)
    assert calls == [g.shape]
    assert np.linalg.eigvalsh(out[0]).min() >= -1e-12
    assert np.allclose(out, g, rtol=0.0, atol=1e-12)


def test_clip_psd_nan_off_the_diagonal_takes_the_fallback(monkeypatch):
    # the Cholesky factorization alone would let this block through
    g = np.stack([np.array([[2.0, np.nan], [np.nan, 3.0]]), np.eye(2)])
    calls = _spy_eigh(monkeypatch)
    out = _clip_psd(g)
    assert calls == [g.shape]
    assert np.all(np.isnan(out[0]))
    assert np.array_equal(out[1], np.eye(2))


def test_all_gradients_vanish_for_zero_operator():
    prior = build_toy_prior(2)
    sched = _schedule()
    t = _step_near(sched, 0.5)
    ab = sched.alpha_bar_t(t)
    x = np.array([1.0, -0.5])
    s = smoothed_score(prior, x, ab)
    meas = MeasurementModel(a=np.zeros((1, 2)), y=np.zeros(1), sigma=0.1)
    r = _residual(meas, x, s, ab)
    g, _ = guidance_gradient_cadps(r, ab, meas, _fd_hvp(prior, x, s, ab))
    assert np.allclose(g, 0.0)
    hvp = _exact_hvp(prior, x, ab)
    assert np.allclose(guidance_gradient_dps(r, ab, meas, hvp), 0.0)
    g, _ = guidance_gradient_pigdm(r, ab, meas, hvp)
    assert np.allclose(g, 0.0)


def test_cadps_scalar_closed_form():
    # unit Gaussian prior: the score is -x, so the forward HVP is exact and
    # Sigma_t = (1 - ab) I
    prior = _single_gaussian(1)
    sched = _schedule()
    t = _step_near(sched, 0.4)
    ab = sched.alpha_bar_t(t)
    x = np.array([0.4])
    score = smoothed_score(prior, x, ab)
    meas = MeasurementModel(a=np.eye(1), y=np.array([0.9]), sigma=0.3)
    g, report = guidance_gradient_cadps(
        _residual(meas, x, score, ab), ab, meas, _fd_hvp(prior, x, score, ab)
    )
    s = 1 - ab
    x0 = tweedie_mean(x, score, ab)
    expect = (np.sqrt(ab) / (1 - ab)) * s * (meas.y[0] - x0[0]) / (meas.sigma**2 + s)
    assert g[0] == pytest.approx(expect, rel=1e-9)
    assert report.converged


def _dense_solve(gram, rhs, shift):
    """conjugate_gradient_solve's contract, solved exactly."""
    m = np.shape(gram)[-1]
    x = np.linalg.solve(shift * np.eye(m) + gram, rhs[..., None])[..., 0]
    return x, CgReport(iterations=0, residual_norm=0.0, converged=True)


@pytest.mark.parametrize("product", ["fd", "exact"])
def test_cadps_directional_matches_dense_analytic_covariance(product, monkeypatch):
    # with the forward-difference product the error is the FD step's; with
    # the exact product and a dense solve in place of CG's 1e-4 tolerance,
    # only the rule's own algebra is left
    prior = build_toy_prior(4)
    sched = _schedule()
    t = _step_near(sched, 0.5)
    ab = sched.alpha_bar_t(t)
    rng = np.random.default_rng(3)
    x = rng.uniform(-4, 4, 4)
    score = smoothed_score(prior, x, ab)
    a = rng.standard_normal((2, 4))
    meas = MeasurementModel(a=a, y=rng.standard_normal(2), sigma=0.2)
    if product == "fd":
        hvp = _fd_hvp(prior, x, score, ab)
    else:
        hvp = _exact_hvp(prior, x, ab)
        monkeypatch.setattr(guidance, "conjugate_gradient_solve", _dense_solve)
    g, _ = guidance_gradient_cadps(_residual(meas, x, score, ab), ab, meas, hvp)
    cov = conditional_moments(prior, x, ab).cov
    x0 = tweedie_mean(x, score, ab)
    lam = np.linalg.solve(meas.sigma**2 * np.eye(2) + a @ cov @ a.T, meas.y - a @ x0)
    dense = (np.sqrt(ab) / (1 - ab)) * cov @ (a.T @ lam)
    if product == "fd":
        assert np.allclose(g, dense, rtol=1e-3, atol=1e-4)
    else:
        assert np.linalg.norm(g - dense) <= 1e-10 * np.linalg.norm(dense)


def test_dps_zero_residual_guard():
    prior = _single_gaussian(1)
    sched = _schedule()
    t = 10
    ab = sched.alpha_bar_t(t)
    x = np.array([0.5])
    score = smoothed_score(prior, x, ab)
    x0 = tweedie_mean(x, score, ab)
    meas = MeasurementModel(a=np.eye(1), y=np.array([x0[0]]), sigma=0.1)
    r = _residual(meas, x, score, ab)
    assert np.allclose(guidance_gradient_dps(r, ab, meas, _exact_hvp(prior, x, ab)), 0.0)


def test_dps_unit_arithmetic():
    prior = _single_gaussian(1)
    sched = _schedule()
    t = 10
    ab = sched.alpha_bar_t(t)
    x = np.array([0.0])
    score = smoothed_score(prior, x, ab)  # zero at the origin
    x0 = tweedie_mean(x, score, ab)
    meas = MeasurementModel(a=np.eye(1), y=np.array([x0[0] + 2.0]), sigma=0.1)
    r = _residual(meas, x, score, ab)
    g = guidance_gradient_dps(r, ab, meas, hvp=_exact_hvp(prior, x, ab), zeta=1.0)
    # (2 zeta / ||r||) * J^T A^T r with r = 2, A = 1 and, for one unit
    # Gaussian, H = -I, so J = (1 + (1 - ab) H) / sqrt(ab) = sqrt(ab)
    assert g[0] == pytest.approx(2.0 * np.sqrt(ab), rel=1e-12)


def test_dps_matches_fd_of_objective():
    prior = build_toy_prior(2)
    sched = _schedule()
    t = _step_near(sched, 0.6)
    ab = sched.alpha_bar_t(t)
    rng = np.random.default_rng(4)
    a = rng.standard_normal((1, 2))
    meas = MeasurementModel(a=a, y=np.array([1.5]), sigma=0.1)
    x = np.array([2.0, -1.0])
    score = smoothed_score(prior, x, ab)

    def robj(z):
        s = smoothed_score(prior, z, ab)
        r = meas.y - a @ tweedie_mean(z, s, ab)
        return float(r @ r)

    r0 = _residual(meas, x, score, ab)
    g = guidance_gradient_dps(r0, ab, meas, hvp=_exact_hvp(prior, x, ab), zeta=1.0)
    eps = 1e-6
    fd = np.zeros(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = eps
        fd[i] = (robj(x + e) - robj(x - e)) / (2 * eps)
    expect = -(1.0 / np.linalg.norm(r0)) * fd
    assert np.allclose(g, expect, rtol=1e-3)


def test_pigdm_scalar_closed_form():
    prior = _single_gaussian(1)
    sched = _schedule()
    t = _step_near(sched, 0.4)
    ab = sched.alpha_bar_t(t)
    x = np.array([0.7])
    score = smoothed_score(prior, x, ab)
    meas = MeasurementModel(a=0.6 * np.eye(1), y=np.array([1.1]), sigma=0.2)
    r = _residual(meas, x, score, ab)
    g, report = guidance_gradient_pigdm(r, ab, meas, _exact_hvp(prior, x, ab))
    rt2 = 1 - ab
    x0 = tweedie_mean(x, score, ab)
    # one unit Gaussian: H = -I, so J = (1 + (1 - ab) H) / sqrt(ab) = sqrt(ab)
    expect = np.sqrt(ab) * 0.6 * (meas.y[0] - 0.6 * x0[0]) / (meas.sigma**2 + rt2 * 0.36)
    assert g[0] == pytest.approx(expect, rel=1e-4)
    assert report.converged


def test_pigdm_reduction_from_cadps():
    # unit Gaussian prior: CA-DPS's exact forward HVP gives Sigma_t = rt^2 I,
    # so it reproduces PiGDM run with the exact Jacobian sqrt(ab) I
    prior = _single_gaussian(2)
    sched = _schedule()
    t = _step_near(sched, 0.3)
    ab = sched.alpha_bar_t(t)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((1, 2))
    meas = MeasurementModel(a=a, y=np.array([0.8]), sigma=0.3)
    x = np.array([1.2, -0.4])
    score = smoothed_score(prior, x, ab)
    r = _residual(meas, x, score, ab)
    g_cadps, _ = guidance_gradient_cadps(r, ab, meas, _fd_hvp(prior, x, score, ab))
    # the exact Hessian is -I, so J = sqrt(ab) I
    g_pigdm, _ = guidance_gradient_pigdm(r, ab, meas, lambda v: -v)
    assert np.allclose(g_cadps, g_pigdm, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("d", [2, 8, 80])
def test_forward_score_hvp_matches_exact(d):
    # states drawn from p_t at the production step eps; over d in {2, 8, 80},
    # alpha_bar from 1e-12 to 0.999 and 750 such batches the worst error was
    # 2.5e-3 of the batch's largest exact HVP norm, at d = 2, alpha_bar = 0.6
    prior = build_toy_prior(d)
    rng = np.random.default_rng(40 + d)
    for ab in (1e-12, 1e-4, 0.1, 0.3, 0.6, 0.9, 0.999):
        x0 = sample_mixture(prior, 50, rng)
        x = np.sqrt(ab) * x0 + np.sqrt(1 - ab) * rng.standard_normal(x0.shape)
        v = rng.standard_normal(d)  # one direction shared by every row
        fd = _fd_hvp(prior, x, smoothed_score(prior, x, ab), ab)(v)
        exact = smoothed_score_hvp(prior, x, ab, np.broadcast_to(v, x.shape))
        bound = 5e-3 * np.max(np.linalg.norm(exact, axis=-1))
        assert fd.shape == x.shape
        assert np.max(np.linalg.norm(fd - exact, axis=-1)) <= bound
        # a single (d,) state
        one = _fd_hvp(prior, x[0], smoothed_score(prior, x[0], ab), ab)(v)
        assert one.shape == (d,)
        assert np.linalg.norm(one - exact[0]) <= bound


def test_cadps_directional_zero_row_of_a(monkeypatch):
    # a zero measurement row costs no score call and gives a zero
    # covariance row, so a zero row and column of the Gram, and no NaN
    prior = build_toy_prior(4)
    sched = _schedule()
    t = _step_near(sched, 0.5)
    ab = sched.alpha_bar_t(t)
    rng = np.random.default_rng(8)
    x = rng.uniform(-4, 4, (6, 4))
    score = smoothed_score(prior, x, ab)
    a = rng.standard_normal((3, 4))
    a[1] = 0.0
    meas = MeasurementModel(a=a, y=rng.standard_normal(3), sigma=0.2)
    calls, grams = [], []

    def score_fn(z):
        calls.append(z.shape)
        return smoothed_score(prior, z, ab)

    def spy(g):
        grams.append(g)
        return _clip_psd(g)

    monkeypatch.setattr(guidance, "_clip_psd", spy)
    for xs, ss in ((x, score), (x[0], score[0])):  # a batch and a single (d,) state
        calls.clear()
        hvp = _forward_score_hvp(score_fn, xs, ss, ab)
        g, report = guidance_gradient_cadps(_residual(meas, xs, ss, ab), ab, meas, hvp)
        assert calls == [xs.shape, xs.shape]
        assert np.all(grams[-1][..., 1, :] == 0.0) and np.all(grams[-1][..., :, 1] == 0.0)
        assert np.all(np.isfinite(g)) and report.converged


def test_sample_final_conditional_moments():
    # N(x0, s) conditioned on y = x + sigma eps: conjugate scalar posterior
    meas = MeasurementModel(a=np.eye(1), y=np.array([1.0]), sigma=0.1)
    rng = np.random.default_rng(7)
    n = 200_000
    x0 = np.zeros((n, 1))
    xs, report = sample_final_conditional(
        x0, 0.04, meas, rng.standard_normal((n, 1)), rng.standard_normal((n, 1))
    )
    var = 1.0 / (1 / 0.04 + 1 / 0.01)
    mean = var * (1.0 / 0.01)
    assert report.converged
    assert xs.mean() == pytest.approx(mean, abs=4 * np.sqrt(var / n))
    assert xs.std() == pytest.approx(np.sqrt(var), rel=0.02)


def test_pigdm_batched_matches_dense_solve():
    # d = 8, m = 4, n = 5 chains with the exact Tweedie Jacobian
    # J = (sqrt(ab) / (1 - ab)) Cov(x0 | x_t), against np.linalg.solve
    prior = build_toy_prior(8)
    sched = _schedule()
    t = _step_near(sched, 0.5)
    ab = sched.alpha_bar_t(t)
    rng = np.random.default_rng(8)
    x = rng.uniform(-8, 8, (5, 8))
    score = smoothed_score(prior, x, ab)
    a = rng.standard_normal((4, 8))
    meas = MeasurementModel(a=a, y=rng.standard_normal(4), sigma=0.2)
    r = _residual(meas, x, score, ab)
    g, report = guidance_gradient_pigdm(r, ab, meas, hvp=_exact_hvp(prior, x, ab))
    assert report.converged
    gram = meas.sigma**2 * np.eye(4) + (1 - ab) * a @ a.T
    for i in range(5):
        jac = (np.sqrt(ab) / (1 - ab)) * conditional_moments(prior, x[i], ab).cov
        r = meas.y - a @ tweedie_mean(x[i], score[i], ab)
        dense = jac @ a.T @ np.linalg.solve(gram, r)
        assert np.allclose(g[i], dense, rtol=1e-6, atol=1e-8)


def test_sample_final_conditional_matches_gaussian_conditional():
    # d = 3, m = 2: N(x0, s I) conditioned on y = A x + sigma eps has
    # mean x0 + s A^T M^-1 (y - A x0) and covariance s I - s^2 A^T M^-1 A,
    # with M = sigma^2 I + s A A^T
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3))
    meas = MeasurementModel(a=a, y=np.array([0.7, -0.4]), sigma=0.3)
    s = 0.5
    x0 = np.array([0.2, -0.3, 1.0])
    gain = s * a.T @ np.linalg.inv(meas.sigma**2 * np.eye(2) + s * a @ a.T)
    mean = x0 + gain @ (meas.y - a @ x0)
    cov = s * np.eye(3) - s * gain @ a

    n = 200_000
    noise_u = rng.standard_normal((n, 3))
    noise_w = rng.standard_normal((n, 2))
    xs, report = sample_final_conditional(np.tile(x0, (n, 1)), s, meas, noise_u, noise_w)
    assert report.converged
    assert np.all(np.abs(xs.mean(axis=0) - mean) <= 4 * np.sqrt(np.diag(cov) / n))
    var = np.diag(cov)
    se_cov = np.sqrt((np.outer(var, var) + cov**2) / n)
    assert np.all(np.abs(np.cov(xs.T) - cov) <= 5 * se_cov)

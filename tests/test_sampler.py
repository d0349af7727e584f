import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cadps import (
    ChainConfig,
    GuidanceMethod,
    build_linear_vp_schedule,
    build_toy_prior,
    generate_measurement_matrix,
    generate_observation,
    run_guided_chains,
    smoothed_score,
)
from cadps import gmm, sampler
from cadps.gmm import GaussianMixture
from cadps.guidance import METHOD_TAGS
from cadps.measurement import MeasurementModel
from cadps.sampler import _GUIDANCE_AB_MIN, reverse_step
from cadps.schedule import NoiseSchedule


def _single_gaussian(d=1, mean=0.0):
    return GaussianMixture(means=np.full((1, d), mean), log_weights=np.zeros(1))


def _unguided_chains(prior, sched, n, seed, tag="dps"):
    """run_guided_chains with A = 0, which adds no guidance."""
    d = prior.dim
    meas = MeasurementModel(a=np.zeros((1, d)), y=np.zeros(1), sigma=0.5)
    cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag=tag), rng_seed=seed, n_chains=n)
    return run_guided_chains(prior, meas, cfg)


def test_reverse_step_zero_beta_is_noop():
    sched = build_linear_vp_schedule(4, 1e-6, 1e-6)
    x = np.array([1.0, -2.0])
    z = np.random.default_rng(0).standard_normal(2)
    out = reverse_step(x, np.zeros(2), sched, 3, z)
    assert np.allclose(out, x, atol=2e-3)


def test_reverse_step_final_is_deterministic():
    sched = build_linear_vp_schedule(100, 0.1, 500.0)
    x = np.array([0.5])
    s = np.array([-0.5])
    a = reverse_step(x, s, sched, 1, np.random.default_rng(1).standard_normal(1))
    b = reverse_step(x, s, sched, 1, np.random.default_rng(2).standard_normal(1))
    assert np.array_equal(a, b)


@given(
    n_steps=st.integers(2, 2000),
    beta_max=st.floats(0.1, 500.0),
    d=st.integers(1, 8),
    log_scales=st.tuples(*3 * [st.floats(-3.0, 3.0)]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_posterior_score_step_adds_weighted_gradient(
    n_steps, beta_max, d, log_scales, seed, data
):
    # stepping with score + g adds beta_t sqrt(ab_prev / ab) g to the
    # prior-only step, and the step is the DDPM posterior-mean form, on
    # every step the sampler runs
    sched = build_linear_vp_schedule(n_steps, 0.1, beta_max)
    t0 = int(np.flatnonzero(sched.alpha_bar >= _GUIDANCE_AB_MIN)[-1]) + 1
    t = data.draw(st.integers(1, t0))
    rng = np.random.default_rng(seed)
    x, s, g = rng.standard_normal((3, d)) * 10.0 ** np.array(log_scales)[:, None]
    z = rng.standard_normal(d)
    beta, ab = sched.beta_t(t), sched.alpha_bar_t(t)
    ab_prev = sched.alpha_bar[t - 2] if t > 1 else 1.0
    weight = beta * np.sqrt(ab_prev / ab)
    step = reverse_step(x, s + g, sched, t, z)
    expect = reverse_step(x, s, sched, t, z) + weight * g
    scale = max(np.max(np.abs(x)), np.max(np.abs(s)), np.max(np.abs(g)))
    assert np.max(np.abs(step - expect)) <= 1e-10 * scale
    # reference: the posterior mean of x_{t-1} given x_t and the Tweedie x0
    x0 = (x + (1.0 - ab) * s) / np.sqrt(ab)
    mean = (np.sqrt(1.0 - beta) * (1.0 - ab_prev) * x + np.sqrt(ab_prev) * beta * x0) / (1.0 - ab)
    reference = mean + sched.sigma_tilde_t(t) * z
    assert np.max(np.abs(reverse_step(x, s, sched, t, z) - reference)) <= 1e-10 * scale


def test_unconditional_chain_recovers_gaussian_prior():
    prior = _single_gaussian(2)
    sched = build_linear_vp_schedule(1000, 0.1, 500.0)
    xs, diags = _unguided_chains(prior, sched, 10_000, 3)
    assert diags.n_aborted == 0
    assert np.all(np.abs(xs.mean(axis=0)) < 0.05)
    cov = np.cov(xs.T)
    assert np.allclose(cov, np.eye(2), atol=0.1)


@pytest.mark.parametrize("tag", ["cadps", "dps", "pigdm"])
def test_zero_operator_matches_unconditional(tag):
    prior = build_toy_prior(2)
    sched = build_linear_vp_schedule(50, 0.1, 500.0)
    guided, diags = _unguided_chains(prior, sched, 8, 4, tag)
    t0 = int(np.flatnonzero(sched.alpha_bar >= _GUIDANCE_AB_MIN)[-1]) + 1
    assert diags.n_aborted == 0
    assert np.array_equal(guided, _unconditional_from(prior, sched, 8, 4, t0))


@pytest.mark.parametrize(
    "scale, aborted", [(1.0 + 1e-3, True), (1.0 - 1e-3, False)], ids=["above", "below"]
)
def test_runaway_guard_at_its_edge(scale, aborted):
    # a one-component prior puts x_1, the last state the guard inspects, at
    # sqrt(alpha_bar_1) times its mean up to O(1) noise
    sched = build_linear_vp_schedule(50, 0.1, 500.0)
    prior = _single_gaussian(1, mean=scale * 1e10 / np.sqrt(sched.alpha_bar_t(1)))
    xs, diags = _unguided_chains(prior, sched, 6, 17)
    if aborted:
        assert diags.n_aborted == 6
        assert np.all(np.isnan(xs))
    else:
        assert diags.n_aborted == 0
        # the final draw lies past 1e10 but is not inspected
        assert np.all(np.isfinite(xs)) and np.all(xs > 1e10)


def test_determinism_bit_identical():
    prior = build_toy_prior(2)
    sched = build_linear_vp_schedule(50, 0.1, 500.0)
    rng = np.random.default_rng(5)
    a = rng.standard_normal((1, 2))
    meas = MeasurementModel(a=a, y=np.array([1.0]), sigma=0.1)
    cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag="cadps"), rng_seed=6, n_chains=16)
    x1, _ = run_guided_chains(prior, meas, cfg)
    x2, _ = run_guided_chains(prior, meas, cfg)
    assert np.array_equal(x1, x2)


def test_all_outputs_finite():
    prior = build_toy_prior(8)
    sched = build_linear_vp_schedule(100, 0.1, 500.0)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 8)) * 0.3
    meas = MeasurementModel(a=a, y=rng.standard_normal(2), sigma=0.1)
    for tag in ("cadps", "dps", "pigdm"):
        cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag=tag), rng_seed=10, n_chains=32)
        xs, diags = run_guided_chains(prior, meas, cfg)
        assert diags.n_aborted == 0
        assert np.all(np.isfinite(xs))


def test_dimension_mismatch_rejected():
    prior = build_toy_prior(4)
    sched = build_linear_vp_schedule(10, 0.1, 500.0)
    meas = MeasurementModel(a=np.zeros((1, 2)), y=np.zeros(1), sigma=0.1)
    cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag="dps"), rng_seed=0)
    with pytest.raises(ValueError):
        run_guided_chains(prior, meas, cfg)


def test_scalar_posterior_chain_mean():
    # d = m = 1, A = [1], sigma = 0.01, y = 0.7: exact posterior mean
    # y/(1 + sigma^2) ~= 0.69993
    prior = _single_gaussian(1)
    sched = build_linear_vp_schedule(200, 0.1, 500.0)
    meas = MeasurementModel(a=np.eye(1), y=np.array([0.7]), sigma=0.01)
    cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag="cadps"), rng_seed=11, n_chains=1000)
    xs, diags = run_guided_chains(prior, meas, cfg)
    assert diags.n_aborted == 0
    post_var = 1.0 / (1.0 + 1.0 / 0.01**2)
    post_mean = post_var * 0.7 / 0.01**2
    se = np.sqrt(post_var / 1000)
    assert abs(xs.mean() - post_mean) <= 3 * se



def _betas_for(alpha_bar):
    """The beta table whose running product of 1 - beta is alpha_bar (t = 1 first)."""
    ab = np.asarray(alpha_bar, dtype=np.float64)
    return 1.0 - ab / np.concatenate(([1.0], ab[:-1]))


@pytest.mark.parametrize("tag", ["cadps", "dps", "pigdm"])
def test_guidance_skipped_below_alpha_bar_floor(tag, monkeypatch):
    above = _GUIDANCE_AB_MIN * (1.0 + 1e-6)
    below = _GUIDANCE_AB_MIN * (1.0 - 1e-6)
    # steps of ratio 0.1 keep 1 - beta well resolved, so the derived table
    # lands on its targets and straddles the floor by the full margins
    target = [0.5, *10.0 ** -np.arange(1, 12), above, below]
    sched = NoiseSchedule(_betas_for(target))
    assert np.allclose(sched.alpha_bar, target, rtol=1e-13, atol=0.0)
    seen = []
    original = getattr(sampler, f"guidance_gradient_{tag}")

    def counting(r, ab, *args, **kwargs):
        seen.append(ab)
        return original(r, ab, *args, **kwargs)

    monkeypatch.setattr(sampler, f"guidance_gradient_{tag}", counting)
    prior = _single_gaussian(2)
    meas = MeasurementModel(a=np.array([[0.6, 0.2]]), y=np.array([0.3]), sigma=0.5)
    cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag=tag), rng_seed=13, n_chains=4)
    run_guided_chains(prior, meas, cfg)
    # PiGDM and CA-DPS draw the last step from their final conditional and
    # compute no guidance there
    guided = list(sched.alpha_bar[-2::-1])
    assert seen == (guided if tag == "dps" else guided[:-1])


def _harness_schedule():
    # the smoke grid's schedule: 200 steps, beta from 0.1 to 500
    return build_linear_vp_schedule(200, 0.1, 500.0)


# m = 1 gives CA-DPS the fewest extra score evaluations; m = 4 is the
# full-scale cell's m
@pytest.mark.parametrize(
    "tag, m",
    [
        pytest.param(tag, m, id=tag if m == 2 else f"{tag}-m{m}")
        for tag in ("cadps", "dps", "pigdm")
        for m in (2, 1, 4)
    ],
)
def test_score_never_evaluated_below_alpha_bar_floor(tag, m, monkeypatch):
    sched = _harness_schedule()
    seen, seen_hvp = [], []
    original = sampler.smoothed_score
    original_hvp = gmm.smoothed_score_hvp

    def counting(prior, x, alpha_bar):
        seen.append(alpha_bar)
        return original(prior, x, alpha_bar)

    def counting_hvp(prior, x, alpha_bar, v):
        seen_hvp.append(alpha_bar)
        return original_hvp(prior, x, alpha_bar, v)

    # the benchmark's tracer wraps both names the same way, so a product the
    # sampler reaches by another name would go uncounted there too
    monkeypatch.setattr(sampler, "smoothed_score", counting)
    monkeypatch.setattr(gmm, "smoothed_score_hvp", counting_hvp)
    rng = np.random.default_rng(14)
    meas = MeasurementModel(a=rng.standard_normal((m, 4)), y=rng.standard_normal(m), sigma=0.1)
    cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag=tag), rng_seed=15, n_chains=4)
    _, diags = run_guided_chains(build_toy_prior(4), meas, cfg)
    assert diags.n_aborted == 0
    assert min(seen) >= _GUIDANCE_AB_MIN
    # CA-DPS adds one score evaluation per measurement direction on every
    # step but the last, which draws from the final conditional
    assert len(seen) == (55 + 54 * m if tag == "cadps" else 55)
    # one exact Jacobian product per guided step for DPS and PiGDM, whose
    # last step is the final conditional draw; CA-DPS takes none
    assert len(seen_hvp) == {"cadps": 0, "dps": 55, "pigdm": 54}[tag]
    assert min(seen_hvp, default=_GUIDANCE_AB_MIN) >= _GUIDANCE_AB_MIN


@settings(max_examples=20)
@given(
    d=st.sampled_from([2, 4, 8]),
    log10_sigma=st.floats(-4.0, 1.0),
    n_steps=st.integers(2, 2000),
    beta_max=st.floats(10.0, 500.0),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_every_method_finite_across_cells_and_schedules(
    d, log10_sigma, n_steps, beta_max, seed, data
):
    # a random measurement model, noise level and linear schedule: no
    # method may abort a chain, miss a solve or return a non-finite sample
    m = data.draw(st.integers(1, min(4, d)), label="m")
    rng = np.random.default_rng(seed)
    prior = build_toy_prior(d)
    a = generate_measurement_matrix(d, m, rng)
    meas = generate_observation(a, prior, 10.0**log10_sigma, rng)
    sched = build_linear_vp_schedule(n_steps, 0.1, beta_max)
    for tag in METHOD_TAGS:
        cfg = ChainConfig(schedule=sched, method=GuidanceMethod(tag=tag), rng_seed=rng, n_chains=16)
        x, diags = run_guided_chains(prior, meas, cfg)
        assert diags.n_aborted == 0, tag
        assert diags.cg_failures == 0, tag
        assert np.all(np.isfinite(x)), tag


def _unconditional_from(prior, sched, n, seed, t_start):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, prior.dim))
    for t in range(t_start, 0, -1):
        score = smoothed_score(prior, x, sched.alpha_bar_t(t))
        x = reverse_step(x, score, sched, t, rng.standard_normal(x.shape))
    return x


def test_unconditional_chains_start_at_first_guided_step():
    prior = build_toy_prior(2)
    # every step above the floor: the chains run all N steps, as before
    mild = build_linear_vp_schedule(50, 0.1, 20.0)
    assert mild.alpha_bar[-1] >= _GUIDANCE_AB_MIN
    got, _ = _unguided_chains(prior, mild, 8, 16)
    assert np.array_equal(got, _unconditional_from(prior, mild, 8, 16, 50))
    # the harness schedule: steps 56..200 lie below the floor and are not run
    sched = _harness_schedule()
    assert sched.alpha_bar_t(55) >= _GUIDANCE_AB_MIN > sched.alpha_bar_t(56)
    got, _ = _unguided_chains(prior, sched, 8, 16)
    assert np.array_equal(got, _unconditional_from(prior, sched, 8, 16, 55))


def test_schedule_without_guided_step_rejected():
    sched = NoiseSchedule(_betas_for([_GUIDANCE_AB_MIN / 2, _GUIDANCE_AB_MIN / 4]))
    assert np.all(sched.alpha_bar < _GUIDANCE_AB_MIN)
    with pytest.raises(ValueError, match="alpha_bar"):
        _unguided_chains(_single_gaussian(2), sched, 2, 0)

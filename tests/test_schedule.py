import numpy as np
import pytest

from cadps import NoiseSchedule, build_linear_vp_schedule


def test_toy_parameters_reach_pure_noise():
    sched = build_linear_vp_schedule(1000, 0.1, 500.0)
    assert sched.alpha_bar_t(1000) <= 1e-20


def test_zero_noise_limit():
    sched = build_linear_vp_schedule(2, 1e-12, 1e-12)
    assert np.allclose(sched.alpha_bar, 1.0, atol=1e-9)


def test_constant_schedule_closed_form():
    sched = build_linear_vp_schedule(4, 0.4, 0.4)
    assert np.allclose(sched.beta, 0.1)
    assert np.allclose(sched.alpha_bar, [0.9, 0.81, 0.729, 0.6561])


def test_beta_cap():
    sched = build_linear_vp_schedule(10, 0.1, 100.0)
    assert np.all(sched.beta <= 0.999)
    assert np.all(sched.beta > 0.0)


def test_invariants():
    sched = build_linear_vp_schedule(500, 0.1, 500.0)
    assert np.all(np.diff(sched.beta) >= 0)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    # running-product identity (above the underflow floor)
    prod = np.cumprod(1.0 - sched.beta)
    mask = prod > 1e-200
    assert np.allclose(sched.alpha_bar[mask], prod[mask], rtol=1e-12)
    # ancestral noise is the DDPM posterior-variance choice
    for t in (2, 10, 499):
        ab = sched.alpha_bar_t(t)
        ab_prev = sched.alpha_bar[t - 2]
        expect = np.sqrt(sched.beta_t(t) * (1 - ab_prev) / (1 - ab))
        assert sched.sigma_tilde_t(t) == pytest.approx(expect, rel=1e-12)
    assert sched.sigma_tilde_t(1) == 0.0


def test_step_index_is_one_based():
    sched = build_linear_vp_schedule(10, 0.1, 500.0)
    assert sched.beta_t(1) == sched.beta[0]
    assert sched.beta_t(10) == sched.beta[-1]
    for t in (0, 11):
        with pytest.raises(IndexError, match=rf"step index {t} outside \[1, 10\]"):
            sched.beta_t(t)


def test_alpha_bar_floor_at_its_edge():
    # the smoke schedule's running product underflows on its last 49 steps
    sched = build_linear_vp_schedule(200, 0.1, 500.0)
    floored = sched.alpha_bar == 1e-250
    assert np.count_nonzero(floored) == 49
    assert np.all(floored[151:]) and sched.alpha_bar[150] > 1e-250
    assert np.all(np.isfinite(sched.sigma_tilde))
    assert np.all(np.isfinite(1.0 / np.sqrt(sched.alpha_bar)))
    # 500 steps bottom out at 3.6e-219, above the floor
    sched = build_linear_vp_schedule(500, 0.1, 500.0)
    assert np.array_equal(sched.alpha_bar, np.cumprod(1.0 - sched.beta))
    assert sched.alpha_bar.min() == pytest.approx(3.6e-219, rel=0.01)


def test_schedule_is_built_from_beta_alone():
    sched = NoiseSchedule([0.1, 0.1, 0.1])
    assert sched.n_steps == 3
    assert np.allclose(sched.alpha_bar, [0.9, 0.81, 0.729], rtol=1e-15)
    assert sched.sigma_tilde[0] == 0.0
    with pytest.raises(TypeError):
        NoiseSchedule([0.1, 0.1], alpha_bar=np.ones(2))


def test_rebuild_is_bit_identical():
    a = build_linear_vp_schedule(200, 0.1, 500.0)
    b = build_linear_vp_schedule(200, 0.1, 500.0)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.alpha_bar, b.alpha_bar)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        build_linear_vp_schedule(1, 0.1, 500.0)
    with pytest.raises(ValueError):
        build_linear_vp_schedule(10, -0.1, 500.0)
    with pytest.raises(ValueError):
        build_linear_vp_schedule(10, 2.0, 1.0)

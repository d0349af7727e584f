import numpy as np
import pytest
from scipy import stats

from cadps import (
    build_toy_prior,
    generate_measurement_matrix,
    generate_observation,
    residual,
)
from cadps.gmm import sample_mixture
from cadps.measurement import MeasurementModel


def _replay_draws(prior, m, rng):
    """generate_observation's documented draws, x* and then the noise z,
    from a generator in the same state."""
    x_star = sample_mixture(prior, 1, rng)[0]
    return x_star, rng.standard_normal(m)


def test_rank_one_norm_identity():
    a = generate_measurement_matrix(8, 1, np.random.default_rng(0))
    s = np.linalg.norm(a)
    assert 0.0 < s <= 1.0


def test_singular_values_in_unit_interval():
    a = generate_measurement_matrix(80, 4, np.random.default_rng(1))
    evals = np.linalg.eigvalsh(a @ a.T)
    svals = np.sqrt(np.maximum(evals, 0.0))
    assert np.all(svals <= 1.0 + 1e-8)
    assert np.all(svals > 0.0)
    # same values via numpy SVD
    assert np.allclose(np.sort(svals), np.sort(np.linalg.svd(a, compute_uv=False)), atol=1e-8)


def test_matrix_determinism_and_seed_sensitivity():
    a1 = generate_measurement_matrix(8, 2, np.random.default_rng(42))
    a2 = generate_measurement_matrix(8, 2, np.random.default_rng(42))
    a3 = generate_measurement_matrix(8, 2, np.random.default_rng(43))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def _sorted_eigendecomposition_matrix(d, m, rng):
    """The construction with an explicit descending argsort of the Gram
    eigenvalues, as generate_measurement_matrix was first written."""
    seed_mat = rng.standard_normal((m, d))
    evals, evecs = np.linalg.eigh(seed_mat @ seed_mat.T)
    order = np.argsort(evals)[::-1]
    u = evecs[:, order]
    v = (seed_mat.T @ u) / np.sqrt(np.maximum(evals[order], 0.0))
    s = rng.uniform(0.0, 1.0, size=m)
    while np.any(s == 0.0):
        s = np.where(s == 0.0, rng.uniform(0.0, 1.0, size=m), s)
    return (u * s) @ v.T


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matrix_bitwise_matches_sorted_eigendecomposition(seed):
    for d, m in ((8, 1), (8, 4), (80, 2), (800, 4)):
        got = generate_measurement_matrix(d, m, np.random.default_rng(seed))
        want = _sorted_eigendecomposition_matrix(d, m, np.random.default_rng(seed))
        assert np.array_equal(got, want)


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        generate_measurement_matrix(4, 5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        generate_measurement_matrix(4, 0, np.random.default_rng(0))


def test_singular_value_distribution_uniform():
    rng = np.random.default_rng(2)
    svals = []
    for _ in range(1000):
        a = generate_measurement_matrix(6, 1, rng)
        svals.append(np.linalg.norm(a))
    assert stats.kstest(svals, "uniform").pvalue > 0.01


def test_observation_noiseless_limit():
    prior = build_toy_prior(2)
    a = generate_measurement_matrix(2, 1, np.random.default_rng(3))
    meas = generate_observation(a, prior, 0.0, np.random.default_rng(4))
    x_star, _ = _replay_draws(prior, 1, np.random.default_rng(4))
    assert np.allclose(meas.y, a @ x_star)


def test_observation_determinism():
    prior = build_toy_prior(8)
    a = generate_measurement_matrix(8, 2, np.random.default_rng(5))
    m1 = generate_observation(a, prior, 1.0, np.random.default_rng(6))
    m2 = generate_observation(a, prior, 1.0, np.random.default_rng(6))
    assert np.array_equal(m1.y, m2.y)
    x_star, z = _replay_draws(prior, 2, np.random.default_rng(6))
    assert np.array_equal(m1.y, a @ x_star + 1.0 * z)


def test_observation_noise_scale():
    prior = build_toy_prior(2)
    a = generate_measurement_matrix(2, 1, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    replay = np.random.default_rng(8)
    sigma = 0.5
    devs = []
    for _ in range(10_000):
        m = generate_observation(a, prior, sigma, rng)
        x_star, _ = _replay_draws(prior, 1, replay)
        devs.append(m.y - a @ x_star)
    devs = np.concatenate(devs)
    assert abs(devs.std() - sigma) <= 0.05 * sigma


def test_observation_dimension_mismatch():
    prior = build_toy_prior(4)
    with pytest.raises(ValueError):
        generate_observation(np.zeros((1, 2)), prior, 0.1, np.random.default_rng(0))


def test_residual_examples():
    meas = MeasurementModel(a=np.eye(2), y=np.array([3.0, 4.0]), sigma=1.0)
    assert np.allclose(residual(meas, np.array([1.0, 1.0])), [2.0, 3.0])

    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 5))
    x = rng.standard_normal(5)
    y = rng.standard_normal(3)
    meas = MeasurementModel(a=a, y=y, sigma=1.0)
    brute = np.array([y[i] - sum(a[i, j] * x[j] for j in range(5)) for i in range(3)])
    assert np.allclose(residual(meas, x), brute, atol=1e-12)

    with pytest.raises(ValueError):
        residual(meas, np.zeros(4))

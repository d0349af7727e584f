import numpy as np
import pytest

from cadps import conjugate_gradient_solve


def _random_spd(m, rng):
    q = rng.standard_normal((m, m))
    return q @ q.T + m * np.eye(m)


def test_cg_identity_system():
    rhs = np.array([1.0, 2.0, 3.0])
    x, report = conjugate_gradient_solve(np.eye(3), rhs, 0.0)
    assert np.allclose(x, rhs)
    assert report.iterations <= 1
    assert report.converged


def test_cg_two_by_two_hand_solve():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    x, report = conjugate_gradient_solve(a, np.array([1.0, 0.0]), 0.0)
    assert np.allclose(x, [2.0 / 3.0, -1.0 / 3.0], atol=1e-10)
    assert np.allclose(x, np.linalg.solve(a, [1.0, 0.0]), atol=1e-10)


def test_cg_matches_dense_on_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        a = _random_spd(m, rng)
        rhs = rng.standard_normal(m)
        x, report = conjugate_gradient_solve(a, rhs, 0.0, tol=1e-12, max_iter=10 * m)
        assert np.allclose(x, np.linalg.solve(a, rhs), atol=1e-8)


def test_cg_residual_tolerance_contract():
    rng = np.random.default_rng(3)
    a = _random_spd(4, rng)
    rhs = rng.standard_normal(4)
    x, report = conjugate_gradient_solve(a, rhs, 0.0, tol=1e-4)
    res = np.linalg.norm(a @ x - rhs)
    assert res <= 1e-4 * max(1.0, np.linalg.norm(rhs))
    assert report.converged


def test_cg_batched_matches_loop():
    rng = np.random.default_rng(9)
    a = _random_spd(3, rng)
    rhs = rng.standard_normal((5, 3))
    xb, _ = conjugate_gradient_solve(a, rhs, 0.0, tol=1e-12)
    for i in range(5):
        xi, _ = conjugate_gradient_solve(a, rhs[i], 0.0, tol=1e-12)
        assert np.allclose(xb[i], xi, atol=1e-10)


def test_cg_per_system_grams_with_shift():
    # the likelihood solve's shape: one PSD Gram per chain plus sigma^2 I
    rng = np.random.default_rng(11)
    n, m, shift = 6, 4, 0.01**2
    q = rng.standard_normal((n, m, 2))
    gram = q @ np.swapaxes(q, -1, -2)  # rank 2, so singular without the shift
    rhs = rng.standard_normal((n, m))
    x, report = conjugate_gradient_solve(gram, rhs, shift, tol=1e-12, max_iter=50 * m)
    assert report.converged
    expect = np.linalg.solve(shift * np.eye(m) + gram, rhs[..., None])[..., 0]
    assert np.allclose(x, expect, rtol=1e-8, atol=1e-8)


def test_cg_rejects_non_finite_iterate():
    gram = np.eye(3)
    gram[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite CG iterate"):
        conjugate_gradient_solve(gram, np.ones(3), 0.1)

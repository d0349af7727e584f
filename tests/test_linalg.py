import numpy as np
import pytest
from scipy.integrate import trapezoid

from cadps import conjugate_gradient_solve, gaussian_log_pdf


def _random_spd(m, rng):
    q = rng.standard_normal((m, m))
    return q @ q.T + m * np.eye(m)


def test_cg_identity_system():
    rhs = np.array([1.0, 2.0, 3.0])
    x, report = conjugate_gradient_solve(lambda v: v, rhs)
    assert np.allclose(x, rhs)
    assert report.iterations <= 1
    assert report.converged


def test_cg_two_by_two_hand_solve():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    x, report = conjugate_gradient_solve(lambda v: v @ a.T, np.array([1.0, 0.0]))
    assert np.allclose(x, [2.0 / 3.0, -1.0 / 3.0], atol=1e-10)
    assert np.allclose(x, np.linalg.solve(a, [1.0, 0.0]), atol=1e-10)


def test_cg_matches_dense_on_random_spd():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        a = _random_spd(m, rng)
        rhs = rng.standard_normal(m)
        x, report = conjugate_gradient_solve(lambda v: v @ a.T, rhs, tol=1e-12, max_iter=10 * m)
        assert np.allclose(x, np.linalg.solve(a, rhs), atol=1e-8)


def test_cg_residual_tolerance_contract():
    rng = np.random.default_rng(3)
    a = _random_spd(4, rng)
    rhs = rng.standard_normal(4)
    x, report = conjugate_gradient_solve(lambda v: v @ a.T, rhs, tol=1e-4)
    res = np.linalg.norm(a @ x - rhs)
    assert res <= 1e-4 * max(1.0, np.linalg.norm(rhs))
    assert report.converged


def test_cg_batched_matches_loop():
    rng = np.random.default_rng(9)
    a = _random_spd(3, rng)
    rhs = rng.standard_normal((5, 3))
    xb, _ = conjugate_gradient_solve(lambda v: v @ a.T, rhs, tol=1e-12)
    for i in range(5):
        xi, _ = conjugate_gradient_solve(lambda v: v @ a.T, rhs[i], tol=1e-12)
        assert np.allclose(xb[i], xi, atol=1e-10)


def test_gaussian_log_pdf_standard_normal_mode():
    assert gaussian_log_pdf(np.zeros(1), np.zeros(1), np.eye(1)) == pytest.approx(
        -0.5 * np.log(2 * np.pi)
    )
    assert gaussian_log_pdf(np.ones(1), np.zeros(1), np.eye(1)) == pytest.approx(
        -0.5 - 0.5 * np.log(2 * np.pi)
    )


def test_gaussian_log_pdf_dense_inverse_oracle():
    rng = np.random.default_rng(1)
    cov = _random_spd(3, rng)
    x = rng.standard_normal(3)
    mean = rng.standard_normal(3)
    diff = x - mean
    expect = -0.5 * (
        diff @ np.linalg.inv(cov) @ diff
        + np.log(np.linalg.det(cov))
        + 3 * np.log(2 * np.pi)
    )
    assert gaussian_log_pdf(x, mean, cov) == pytest.approx(expect, rel=1e-10)


def test_gaussian_log_pdf_integrates_to_one():
    grid = np.linspace(-8, 8, 4001)
    vals = np.array([np.exp(gaussian_log_pdf(np.array([g]), np.zeros(1), np.eye(1))) for g in grid])
    assert trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-3)


def test_gaussian_log_pdf_matches_scipy_triangular_solve():
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(4)
    for _ in range(50):
        k = int(rng.integers(1, 9))
        cov = _random_spd(k, rng)
        x, mean = rng.standard_normal(k), rng.standard_normal(k)
        chol = np.linalg.cholesky(cov)
        z = solve_triangular(chol, x - mean, lower=True)
        expect = -0.5 * z @ z - np.sum(np.log(np.diag(chol))) - 0.5 * k * np.log(2 * np.pi)
        assert gaussian_log_pdf(x, mean, cov) == pytest.approx(expect, rel=1e-12)


def test_gaussian_log_pdf_rejects_bad_input():
    with pytest.raises(Exception):
        gaussian_log_pdf(np.zeros(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        gaussian_log_pdf(np.zeros(2), np.zeros(3), np.eye(2))


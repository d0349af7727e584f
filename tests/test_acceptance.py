"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line on the live terminal (bypassing
pytest capture) so the verdict per criterion is visible in a plain
``pytest -v`` run.  Criteria 5, 6 and 8 rerun the experiment harness and
dominate the runtime (about 75 s in all on 2 cores, most of it
criterion 6).
"""

import time

import numpy as np
import pytest
from scipy.special import logsumexp

from cadps import (
    ChainConfig,
    ExperimentGrid,
    GuidanceMethod,
    build_linear_vp_schedule,
    build_toy_prior,
    conditional_moments,
    conjugate_gradient_solve,
    exact_posterior,
    guidance_gradient_cadps,
    run_guided_chains,
    smoothed_score,
    tweedie_mean,
)
from cadps.cli import main as cli_main
from cadps.gmm import GaussianMixture
from cadps.harness import parse_results_csv, run_model
from cadps.guidance import _forward_score_hvp
from cadps.measurement import MeasurementModel, residual
from fd_hessian import fd_score_hessian


def _verdict(capsys, idx, name, ok, detail=""):
    line = f"[criterion {idx}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two identical full smoke-grid runs through the CLI (criteria 5, 8)."""
    root = tmp_path_factory.mktemp("smoke")
    for tag in ("a", "b"):
        rc = cli_main(["--smoke", "--no-timing", "--seed", "0", "--out", str(root / tag)])
        assert rc == 0
    return root / "a", root / "b"


def test_criterion_1_moment_oracles(capsys):
    t0 = time.time()
    rng = np.random.default_rng(100)
    mean_ok = True
    for d in (2, 8):
        prior = build_toy_prior(d)
        for _ in range(500):
            x = rng.uniform(-16, 16, d)
            ab = float(rng.uniform(0.05, 0.99))
            s = smoothed_score(prior, x, ab)
            mom = conditional_moments(prior, x, ab)
            if not np.allclose(tweedie_mean(x, s, ab), mom.mean, atol=1e-8):
                mean_ok = False
    # covariance from the finite-difference Hessian of the analytic score
    cov_ok = True
    for d, reps in ((2, 10), (4, 10), (8, 5)):
        prior = build_toy_prior(d)
        for _ in range(reps):
            x = rng.uniform(-12, 12, d)
            ab = float(rng.uniform(0.1, 0.95))
            h = fd_score_hessian(lambda z: smoothed_score(prior, z, ab), x, eps=1e-4)
            cov_fd = ((1 - ab) / ab) * (np.eye(d) + (1 - ab) * h)
            if not np.allclose(cov_fd, conditional_moments(prior, x, ab).cov, atol=1e-4):
                cov_ok = False
    elapsed = time.time() - t0
    _verdict(
        capsys,
        1,
        "moment oracles (Tweedie mean 1e-8, FD-Hessian covariance 1e-4)",
        mean_ok and cov_ok and elapsed < 60,
        f"{elapsed:.1f}s",
    )


def test_criterion_2_exact_posterior_vs_quadrature(capsys):
    t0 = time.time()
    prior = build_toy_prior(2)
    rng = np.random.default_rng(200)
    grid_1d = np.linspace(-24.0, 24.0, 400)
    gx, gy = np.meshgrid(grid_1d, grid_1d, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    # prior log-density on the grid (unit isotropic mixture)
    diffs = pts[:, None, :] - prior.means[None, :, :]
    log_prior = logsumexp(
        prior.log_weights[None, :] - 0.5 * np.sum(diffs**2, axis=-1) - np.log(2 * np.pi),
        axis=1,
    )
    worst_tv = 0.0
    for _ in range(10):
        m = int(rng.integers(1, 3))
        a = rng.standard_normal((m, 2))
        sigma = float(rng.uniform(0.1, 1.0))
        y = a @ pts[int(rng.integers(len(pts)))] + sigma * rng.standard_normal(m)
        meas = MeasurementModel(a=a, y=y, sigma=sigma)
        # quadrature of p(y|x0) p(x0), normalized on the grid
        resid = y[None, :] - pts @ a.T
        log_num = log_prior - 0.5 * np.sum(resid**2, axis=-1) / sigma**2
        p = np.exp(log_num - logsumexp(log_num))
        # closed-form posterior evaluated on the same grid
        post = exact_posterior(prior, meas)
        prec = np.linalg.inv(post.cov)
        dd = pts[:, None, :] - post.means[None, :, :]
        maha = np.einsum("nki,ij,nkj->nk", dd, prec, dd)
        log_post = logsumexp(post.log_weights[None, :] - 0.5 * maha, axis=1)
        q = np.exp(log_post - logsumexp(log_post))
        worst_tv = max(worst_tv, 0.5 * np.abs(p - q).sum())
    elapsed = time.time() - t0
    _verdict(
        capsys,
        2,
        "exact posterior matches 2-D grid quadrature (TV <= 1e-3, 10 instances)",
        worst_tv <= 1e-3 and elapsed < 120,
        f"worst TV {worst_tv:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_solver_suite(capsys):
    rng = np.random.default_rng(300)
    cg_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 5))
        b_mat = rng.standard_normal((m, m))
        g = b_mat @ b_mat.T + 0.1 * np.eye(m)
        rhs = rng.standard_normal(m)
        x, report = conjugate_gradient_solve(g, rhs, 0.0, tol=1e-12, max_iter=50 * m)
        if not (report.converged and np.allclose(x, np.linalg.solve(g, rhs), atol=1e-8)):
            cg_ok = False
    # CA-DPS guidance gradient against a dense direct solve
    prior = build_toy_prior(4)
    sched = build_linear_vp_schedule(100, 0.1, 500.0)
    t = int(np.argmin(np.abs(sched.alpha_bar - 0.5))) + 1
    ab = sched.alpha_bar_t(t)
    x = rng.uniform(-4, 4, 4)
    score = smoothed_score(prior, x, ab)
    a = rng.standard_normal((2, 4))
    meas = MeasurementModel(a=a, y=rng.standard_normal(2), sigma=0.2)
    x0 = tweedie_mean(x, score, ab)
    hvp = _forward_score_hvp(lambda z: smoothed_score(prior, z, ab), x, score, ab)
    g_dir, _ = guidance_gradient_cadps(residual(meas, x0), ab, meas, hvp)
    cov = conditional_moments(prior, x, ab).cov
    lam = np.linalg.solve(meas.sigma**2 * np.eye(2) + a @ cov @ a.T, meas.y - a @ x0)
    dense_dir = (np.sqrt(ab) / (1 - ab)) * cov @ (a.T @ lam)
    grad_ok = bool(np.allclose(g_dir, dense_dir, atol=1e-4))
    _verdict(
        capsys,
        3,
        "CG matches dense solves to 1e-8; guidance gradient matches dense to 1e-4",
        cg_ok and grad_ok,
    )


def test_criterion_4_scalar_posterior_recovery(capsys):
    t0 = time.time()
    prior = GaussianMixture(means=np.zeros((1, 1)), log_weights=np.zeros(1))
    sched = build_linear_vp_schedule(200, 0.1, 500.0)
    sigma, y = 0.01, 0.7
    meas = MeasurementModel(a=np.eye(1), y=np.array([y]), sigma=sigma)
    cfg = ChainConfig(
        schedule=sched, method=GuidanceMethod(tag="cadps"), rng_seed=400, n_chains=1000
    )
    xs, diags = run_guided_chains(prior, meas, cfg)
    post_var = sigma**2 / (1 + sigma**2)
    post_mean = y / (1 + sigma**2)
    se = np.sqrt(post_var / 1000)
    mean_dev = abs(float(xs.mean()) - post_mean) / se
    std_ratio = float(xs.std(ddof=1)) / np.sqrt(post_var)
    elapsed = time.time() - t0
    _verdict(
        capsys,
        4,
        "scalar conjugate posterior recovered (mean within 3 SE, std within 25%)",
        diags.n_aborted == 0 and mean_dev <= 3 and abs(std_ratio - 1) <= 0.25 and elapsed < 120,
        f"mean dev {mean_dev:.2f} SE, std ratio {std_ratio:.3f}, {elapsed:.1f}s",
    )


def test_criterion_5_smoke_grid_ordering(capsys, smoke_runs):
    records = parse_results_csv(smoke_runs[0] / "records.csv")
    means = {}
    for r in records:
        means.setdefault((r.d, r.m, r.sigma, r.method), []).append(r.sw)
    cells = sorted({(r.d, r.m, r.sigma) for r in records})
    wins = sum(
        np.mean(means[(*c, "cadps")]) <= np.mean(means[(*c, "dps")]) for c in cells
    )
    # the 7-of-9 fraction of the quoted grid, applied to the 18 cells
    # actually produced by the d in {8, 80} sweep
    need = int(np.ceil(len(cells) * 7 / 9))
    _verdict(
        capsys,
        5,
        "smoke grid: covariance-aware sampler beats DPS in enough cells",
        len(cells) == 18 and wins >= need,
        f"{wins}/{len(cells)} cells, need {need}",
    )


@pytest.mark.fullscale
def test_criterion_6_full_scale_cell(capsys, tmp_path):
    t0 = time.time()
    rc = cli_main(["--cell", "8,4,0.01", "--no-timing", "--seed", "0", "--out", str(tmp_path)])
    records = parse_results_csv(tmp_path / "records.csv")
    sw = {tag: [r.sw for r in records if r.method == tag] for tag in ("cadps", "dps")}
    cadps_mean = float(np.mean(sw["cadps"]))
    dps_mean = float(np.mean(sw["dps"]))
    elapsed = time.time() - t0
    _verdict(
        capsys,
        6,
        "full-scale cell (8, 4, 0.01): mean SW in [0.1, 1.5] and below DPS",
        rc == 0
        and len(sw["cadps"]) == 20
        and 0.1 <= cadps_mean <= 1.5
        and cadps_mean < dps_mean
        and elapsed < 7200,
        f"cadps {cadps_mean:.3f}, dps {dps_mean:.3f}, {elapsed:.0f}s",
    )


def test_criterion_7_mode_coverage(capsys):
    grid = ExperimentGrid().smoke()
    pooled = {"cadps": [], "dps": []}
    for model in range(grid.models_per_cell):
        _, _, _, samples = run_model(80, 1, 0.1, grid, 0, model, keep_samples=True)
        for tag in pooled:
            pooled[tag].append(samples[tag])

    def n_cells(xs):
        xs = np.concatenate(xs)
        cells = np.clip(np.round(xs[:, :2] / 8.0), -2, 2)
        _, counts = np.unique(cells, axis=0, return_counts=True)
        return int(np.sum(counts >= 0.01 * len(xs)))

    nc = {tag: n_cells(v) for tag, v in pooled.items()}
    _verdict(
        capsys,
        7,
        "mode coverage at (80, 1, 0.1): lattice cells with >= 1% of samples",
        nc["cadps"] >= nc["dps"],
        f"cadps {nc['cadps']}, dps {nc['dps']}",
    )


def test_criterion_8_determinism_and_format(capsys, smoke_runs):
    a, b = smoke_runs
    identical = (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()
    header = (a / "records.csv").read_text().splitlines()[0]
    header_ok = header == "d,m,sigma,method,model_seed,sw,cg_failures,wall_ms"
    records = parse_results_csv(a / "records.csv")
    parse_ok = (
        len(records) == 18 * 3 * 5
        and all(r.wall_ms == 0.0 for r in records)
        and all(np.isfinite(r.sw) and r.sw >= 0 for r in records)
        and all(r.method in ("cadps", "dps", "pigdm") for r in records)
    )
    _verdict(
        capsys,
        8,
        "same-seed smoke runs byte-identical; CSV column contract parses back",
        identical and header_ok and parse_ok,
    )

"""Output checks made apart from the program.

The posterior is derived here in closed form from the model's A, y and
sigma with the Woodbury form of the shared covariance, so it shares no
code path with ``cadps.gmm.exact_posterior`` (which inverts the d x d
precision).  The SW check draws its own slice directions and its own
posterior sample, and allows the error that slicing and sampling make.
Nothing is compared against stored output.
"""

from __future__ import annotations

import numpy as np

# the toy prior: 25 unit-variance components with equal weights whose
# means repeat the lattice point (8i, 8j), i, j in {-2..2}, across the
# coordinates
_LATTICE = [(8.0 * i, 8.0 * j) for i in range(-2, 3) for j in range(-2, 3)]

_SLICE_CHUNK = 1024
# our SW uses at least this many slices, so that our slicing error is
# small next to the harness's
_MIN_SLICES = 4000
# the reference draw is ranked against this many draws of ours, on a
# coarser slice set
_PEERS = 20
_PEER_SLICES = 500


def lattice_means(d: int) -> np.ndarray:
    return np.array([np.tile(pt, d // 2) for pt in _LATTICE])


def closed_form_posterior(a: np.ndarray, y: np.ndarray, sigma: float):
    """(means (K, d), covariance (d, d), weights (K,)) of p(x0 | y).

    Covariance (I + A^T A / sigma^2)^{-1} = I - A^T (sigma^2 I + A A^T)^{-1} A;
    component means Sigma (A^T y / sigma^2 + U_k); weights proportional to
    N(y; A U_k, sigma^2 I + A A^T).
    """
    m, d = a.shape
    s = sigma**2 * np.eye(m) + a @ a.T
    cov = np.eye(d) - a.T @ np.linalg.solve(s, a)
    cov = 0.5 * (cov + cov.T)
    u = lattice_means(d)
    means = (u + a.T @ y / sigma**2) @ cov
    resid = y - u @ a.T  # (K, m)
    logw = -0.5 * np.einsum("km,km->k", resid, np.linalg.solve(s, resid.T).T)
    w = np.exp(logw - logw.max())
    return means, cov, w / w.sum()


def posterior_mismatch(posterior, a, y, sigma) -> str | None:
    """Compare the program's exact posterior against the closed form."""
    means, cov, w = closed_form_posterior(a, y, sigma)
    scale = 1.0 + float(np.max(np.abs(means)))
    got_w = np.exp(posterior.log_weights)
    errors = {
        "means": float(np.max(np.abs(posterior.means - means))) / scale,
        "cov": float(np.max(np.abs(np.asarray(posterior.cov) - cov))),
        "weights": float(np.max(np.abs(got_w - w))),
    }
    bad = {k: v for k, v in errors.items() if not v <= 1e-8}
    return f"exact_posterior differs from the closed form: {bad}" if bad else None


def sample_posterior(means, chol, w, n: int, rng: np.random.Generator) -> np.ndarray:
    idx = rng.choice(len(w), size=n, p=w)
    z = rng.standard_normal((n, means.shape[1]))
    return means[idx] + z @ chol.T


def unit_directions(d: int, n_slices: int, rng: np.random.Generator) -> np.ndarray:
    dirs = rng.standard_normal((n_slices, d))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def per_slice_w2sq(a: np.ndarray, b: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Squared 1-D Wasserstein-2 distance on each slice."""
    out = np.empty(dirs.shape[0])
    for start in range(0, dirs.shape[0], _SLICE_CHUNK):
        dc = dirs[start : start + _SLICE_CHUNK]
        pa = np.sort(a @ dc.T, axis=0)
        pb = np.sort(b @ dc.T, axis=0)
        out[start : start + _SLICE_CHUNK] = np.mean((pa - pb) ** 2, axis=0)
    return out


def sliced_w2(a: np.ndarray, b: np.ndarray, dirs: np.ndarray) -> float:
    return float(np.sqrt(np.mean(per_slice_w2sq(a, b, dirs))))


class ModelCheck:
    """Independent SW scoring for one measurement model.

    On one slice set SW is a metric, so swapping the harness's reference
    draw r1 for our own draw r2 moves a method's SW by at most
    SW(r1, r2), exactly.  The harness's slices differ from ours, which
    adds slicing error; its standard error comes from the spread of the
    per-slice distances.

    r1 itself must look like a posterior draw.  Between two draws of a
    multimodal posterior SW is heavy-tailed (it grows with the imbalance
    of the mode counts), so r1 is ranked against many draws of ours
    rather than against one.
    """

    def __init__(self, a, y, sigma, reference, n_slices: int, rng: np.random.Generator):
        means, cov, w = closed_form_posterior(a, y, sigma)
        chol = np.linalg.cholesky(cov)
        n, d = reference.shape
        self.own = sample_posterior(means, chol, w, n, rng)
        self.harness_slices = n_slices
        self.dirs = unit_directions(d, max(n_slices, _MIN_SLICES), rng)
        self.reference_gap = sliced_w2(reference, self.own, self.dirs)
        coarse = unit_directions(d, _PEER_SLICES, rng)
        self.reference_coarse = sliced_w2(reference, self.own, coarse)
        self.peer_max = max(
            sliced_w2(sample_posterior(means, chol, w, n, rng), self.own, coarse)
            for _ in range(_PEERS)
        )

    def reference_mismatch(self) -> str | None:
        if self.reference_coarse <= 2.0 * self.peer_max:
            return None
        return (
            f"reference is SW {self.reference_coarse:.4g} from a posterior draw; "
            f"{_PEERS} other posterior draws are at most {self.peer_max:.4g} from it"
        )

    def sw_mismatch(self, samples: np.ndarray, harness_sw: float) -> str | None:
        w2sq = per_slice_w2sq(samples, self.own, self.dirs)
        sw = float(np.sqrt(np.mean(w2sq)))
        # standard error of SW from the per-slice spread, for our slice
        # count and for the harness's
        unit_se = float(np.std(w2sq)) / (2.0 * max(sw, 1e-12))
        slice_se = unit_se * np.sqrt(1.0 / w2sq.size + 1.0 / self.harness_slices)
        tol = self.reference_gap + 5.0 * slice_se
        if abs(sw - harness_sw) <= tol:
            return None
        return f"SW {harness_sw:.6g} vs independent {sw:.6g} (allowed {tol:.3g})"

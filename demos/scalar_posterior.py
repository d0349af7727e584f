"""Scalar sanity check: d = m = 1 with a single standard-normal prior.

The measurement is y = x + sigma * eps, so the exact posterior is the
conjugate Gaussian with mean y / (1 + sigma^2) and variance
sigma^2 / (1 + sigma^2).  All three guidance methods are run with 1000
chains and compared against those closed-form moments.
"""

import numpy as np

from cadps import ChainConfig, GuidanceMethod, build_linear_vp_schedule, run_guided_chains
from cadps.gmm import GaussianMixture
from cadps.measurement import MeasurementModel


def main():
    sigma, y = 0.01, 0.7
    prior = GaussianMixture(means=np.zeros((1, 1)), log_weights=np.zeros(1))
    meas = MeasurementModel(a=np.eye(1), y=np.array([y]), sigma=sigma)
    sched = build_linear_vp_schedule(200, 0.1, 500.0)

    post_var = sigma**2 / (1 + sigma**2)
    post_mean = y / (1 + sigma**2)
    print(f"exact posterior: mean {post_mean:.5f}  std {np.sqrt(post_var):.5f}")

    for tag in ("cadps", "dps", "pigdm"):
        cfg = ChainConfig(
            schedule=sched, method=GuidanceMethod(tag=tag), rng_seed=0, n_chains=1000
        )
        xs, diags = run_guided_chains(prior, meas, cfg)
        print(
            f"{tag:>6}: mean {xs.mean():+.5f}  std {xs.std(ddof=1):.5f}  "
            f"aborted {diags.n_aborted}  cg_failures {diags.cg_failures}"
        )


if __name__ == "__main__":
    main()

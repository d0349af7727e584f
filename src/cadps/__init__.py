"""Covariance-aware diffusion posterior sampling on analytic Gaussian mixtures.

Library layout:
    schedule     discrete VP noise schedule
    linalg       batched CG solver for the m x m likelihood systems
    gmm          mixture prior, smoothed score, exact moments and posterior
    measurement  random linear-Gaussian measurement models
    guidance     DPS / PiGDM / covariance-aware likelihood corrections
    sampler      guided ancestral reverse diffusion (A = 0 runs it unguided)
    metrics      sliced-Wasserstein distance SW_2, CI aggregation
    harness      experiment grid (every run setting), CSV/JSONL emission

The package namespace re-exports only the names that the demo and the
tests import from ``cadps``; every other public name is imported from its
module (``cadps.sampler.reverse_step``, ``cadps.harness.run_grid``).
Importing the package loads every module but ``cli``, which the benchmark's
import timings rely on.
"""

from .schedule import NoiseSchedule, build_linear_vp_schedule
from .linalg import conjugate_gradient_solve
from .gmm import (
    GaussianMixture,
    build_toy_prior,
    conditional_moments,
    exact_posterior,
    sample_mixture,
    smoothed_score,
)
from .measurement import generate_measurement_matrix, generate_observation, residual
from .guidance import (
    GuidanceMethod,
    guidance_gradient_cadps,
    guidance_gradient_dps,
    guidance_gradient_pigdm,
    tweedie_mean,
)
from .sampler import ChainConfig, run_guided_chains
from .metrics import aggregate_ci, draw_slice_directions, sliced_wasserstein
from .harness import ExperimentGrid, emit_results

__version__ = "0.1.0"

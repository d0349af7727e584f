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
"""

from .schedule import NoiseSchedule, build_linear_vp_schedule
from .linalg import CgReport, conjugate_gradient_solve
from .gmm import (
    ConditionalMoments,
    GaussianMixture,
    build_toy_prior,
    conditional_moments,
    exact_posterior,
    sample_mixture,
    smoothed_log_pdf,
    smoothed_score,
)
from .measurement import (
    MeasurementModel,
    generate_measurement_matrix,
    generate_observation,
    residual,
)
from .guidance import (
    GuidanceMethod,
    guidance_gradient_cadps,
    guidance_gradient_dps,
    guidance_gradient_pigdm,
    tweedie_mean,
)
from .sampler import (
    ChainConfig,
    reverse_step,
    run_guided_chains,
)
from .metrics import aggregate_ci, draw_slice_directions, sliced_wasserstein
from .harness import (
    ExperimentGrid,
    ExperimentRecord,
    emit_results,
    emit_scatter,
    run_grid,
)

__version__ = "0.1.0"

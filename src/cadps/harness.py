"""Experiment orchestration for the toy posterior-sampling study.

Builds the (d, m, sigma) grid, runs every guidance method over repeated
random measurement models with many chains each, scores the samples
against exact-posterior references with the sliced-Wasserstein distance
SW_2, and emits machine-readable tables.  ExperimentGrid holds every run
setting and its default; the CLI flags set its fields by name.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .gmm import build_toy_prior, exact_posterior, sample_mixture
from .guidance import METHOD_TAGS, GuidanceMethod
from .measurement import generate_measurement_matrix, generate_observation
from .metrics import aggregate_ci, draw_slice_directions, sliced_wasserstein
from .sampler import ChainConfig, run_guided_chains
from .schedule import build_linear_vp_schedule

__all__ = [
    "ExperimentGrid",
    "ExperimentRecord",
    "run_grid",
    "emit_results",
    "emit_scatter",
]

SUMMARY_COLUMNS = ["d", "m", "sigma", "method", "sw_mean", "sw_ci95"]

# stream labels for per-model seed derivation
_STREAM_MATRIX = 0
_STREAM_OBSERVATION = 1
_STREAM_REFERENCE = 2
_STREAM_SLICES = 3
_STREAM_CHAINS = 10  # + the method's index in METHOD_TAGS


@dataclass(frozen=True)
class ExperimentGrid:
    dims: tuple[int, ...] = (8, 80, 800)
    ms: tuple[int, ...] = (1, 2, 4)
    sigmas: tuple[float, ...] = (0.01, 0.1, 1.0)
    models_per_cell: int = 20
    chains_per_model: int = 1000
    methods: tuple[GuidanceMethod, ...] = field(
        default_factory=lambda: tuple(GuidanceMethod(tag=t) for t in METHOD_TAGS)
    )
    n_steps: int = 1000
    n_slices: int = 10_000
    record_timing: bool = True

    def __post_init__(self):
        if not (self.dims and self.ms and self.sigmas and self.methods):
            raise ValueError("grid sets must be nonempty")
        if min(self.models_per_cell, self.chains_per_model, self.n_slices) < 1:
            raise ValueError("counts must be positive")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")
        tags = [m.tag for m in self.methods]
        if len(set(tags)) < len(tags):
            raise ValueError(f"each method tag may appear once, got {tags}")

    def smoke(self) -> "ExperimentGrid":
        """Desk-scale defaults: minutes on one workstation."""
        return replace(
            self,
            dims=(8, 80),
            models_per_cell=5,
            chains_per_model=200,
            n_slices=1000,
            n_steps=200,
        )


@dataclass(frozen=True)
class ExperimentRecord:
    d: int
    m: int
    sigma: float
    method: str
    model_seed: int
    sw: float
    cg_failures: int
    wall_ms: float

    def sort_key(self):
        return (self.d, self.m, self.sigma, self.method, self.model_seed)


RESULT_COLUMNS = [f.name for f in fields(ExperimentRecord)]


def _cell_key(d: int, m: int, sigma: float):
    """The cell's part of every seed: two cells with one key share all streams."""
    return int(d), int(m), int(round(sigma * 1_000_000))


def run_model(
    d: int,
    m: int,
    sigma: float,
    grid: ExperimentGrid,
    master_seed: int,
    model_index: int,
    keep_samples: bool = False,
):
    """One measurement model: reference samples plus all-method chains.

    Returns (records, total_chains, aborted_chains, samples) where
    ``samples`` maps method tag -> (n, d) array when keep_samples is set
    (the reference set is under the key "reference").
    """
    entropy = (int(master_seed), *_cell_key(d, m, sigma), int(model_index))

    def rng(stream: int) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((*entropy, stream)))

    schedule = build_linear_vp_schedule(grid.n_steps)
    prior = build_toy_prior(d)
    a = generate_measurement_matrix(d, m, rng(_STREAM_MATRIX))
    meas = generate_observation(a, prior, sigma, rng(_STREAM_OBSERVATION))
    posterior = exact_posterior(prior, meas)
    reference = sample_mixture(posterior, grid.chains_per_model, rng(_STREAM_REFERENCE))
    directions = draw_slice_directions(d, grid.n_slices, rng(_STREAM_SLICES))

    records = []
    samples_out = {"reference": reference} if keep_samples else {}
    total = aborted = 0
    for method in grid.methods:
        t0 = time.perf_counter()
        cfg = ChainConfig(
            schedule=schedule,
            method=method,
            rng_seed=rng(_STREAM_CHAINS + METHOD_TAGS.index(method.tag)),
            n_chains=grid.chains_per_model,
        )
        chains, diags = run_guided_chains(prior, meas, cfg)
        total += grid.chains_per_model
        aborted += diags.n_aborted
        ok = ~diags.aborted
        n_ok = int(np.count_nonzero(ok))
        if n_ok == 0:
            sw = float("nan")
        else:
            sw = sliced_wasserstein(chains[ok], reference[:n_ok], directions=directions)
        wall_ms = (time.perf_counter() - t0) * 1000.0 if grid.record_timing else 0.0
        records.append(
            ExperimentRecord(
                d=d,
                m=m,
                sigma=sigma,
                method=method.tag,
                model_seed=model_index,
                sw=sw,
                cg_failures=diags.cg_failures,
                wall_ms=wall_ms,
            )
        )
        if keep_samples:
            samples_out[method.tag] = chains[ok]
    return records, total, aborted, samples_out


def run_grid(grid: ExperimentGrid, master_seed: int, cells=None):
    """Run all models and methods of every cell (or of the given
    (d, m, sigma) list); returns (records, all_cells_valid).

    A cell with > 10% aborted chains is flagged invalid.
    """
    if cells is None:
        cells = [(d, m, s) for d in grid.dims for m in grid.ms for s in grid.sigmas]
    # records are written only at the end, so a bad cell must not wait its turn
    keys = set()
    for d, m, sigma in cells:
        if d < 2 or d % 2 or not 1 <= m <= d or not 0 < sigma < np.inf:
            raise ValueError(
                f"invalid cell (d={d}, m={m}, sigma={sigma}): "
                "need d even and >= 2, 1 <= m <= d and a finite sigma > 0"
            )
        # a repeat would rerun the same seeds and write every record twice
        key = _cell_key(d, m, sigma)
        if key in keys:
            raise ValueError(f"cell (d={d}, m={m}, sigma={sigma}) repeats an earlier cell")
        keys.add(key)
    records = []
    all_valid = True
    for d, m, sigma in cells:
        total = aborted = 0
        for model_index in range(grid.models_per_cell):
            recs, tot, ab, _ = run_model(d, m, sigma, grid, master_seed, model_index)
            records.extend(recs)
            total += tot
            aborted += ab
        all_valid &= aborted <= 0.10 * total
    return records, all_valid


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_results(records, format: str, path) -> Path:
    """Write records as CSV or JSONL; CSV gets a companion summary file.

    JSONL writes a non-finite SW (a model that lost every chain) as null,
    since strict JSON has no NaN.
    """
    if not records:
        raise ValueError("no records to emit")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = sorted(records, key=ExperimentRecord.sort_key)
    if format == "jsonl":
        with open(path, "w") as fh:
            for r in records:
                row = {c: getattr(r, c) for c in RESULT_COLUMNS}
                if not np.isfinite(r.sw):
                    row["sw"] = None
                fh.write(json.dumps(row) + "\n")
        return path
    if format != "csv":
        raise ValueError(f"unknown format {format!r}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in records:
            writer.writerow([_fmt(getattr(r, c)) for c in RESULT_COLUMNS])
    summary_path = path.with_name(path.stem + "_summary.csv")
    groups: dict[tuple, list[float]] = {}
    for r in records:
        groups.setdefault((r.d, r.m, r.sigma, r.method), []).append(r.sw)
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for key in sorted(groups):
            vals = groups[key]
            if len(vals) >= 2:
                mean, half = aggregate_ci(vals)
            else:
                mean, half = float(vals[0]), float("nan")
            writer.writerow([_fmt(v) for v in (*key, mean, half)])
    return path


def parse_results_csv(path) -> list[ExperimentRecord]:
    """Inverse of emit_results(format="csv")."""
    types = get_type_hints(ExperimentRecord)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            raise ValueError(f"unexpected columns {reader.fieldnames}")
        return [ExperimentRecord(**{c: types[c](v) for c, v in row.items()}) for row in reader]


def emit_scatter(samples: np.ndarray, reference: np.ndarray, path) -> Path:
    """Two-block CSV of the first two coordinates, for external plotting."""
    samples = np.asarray(samples)
    reference = np.asarray(reference)
    if samples.shape[1] < 2 or reference.shape[1] < 2:
        raise ValueError("need at least two coordinates for a scatter dump")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "x1", "x2"])
        for row in samples:
            writer.writerow(["samples", _fmt(float(row[0])), _fmt(float(row[1]))])
        for row in reference:
            writer.writerow(["reference", _fmt(float(row[0])), _fmt(float(row[1]))])
    return path

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
from dataclasses import dataclass, field, replace
from pathlib import Path

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
    "run_cell",
    "run_grid",
    "emit_results",
    "emit_scatter",
]

RESULT_COLUMNS = ["d", "m", "sigma", "method", "model_seed", "sw", "cg_failures", "wall_ms"]
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


def _seed(master_seed: int, d: int, m: int, sigma: float, model: int, stream: int):
    return np.random.SeedSequence(
        (int(master_seed), int(d), int(m), int(round(sigma * 1_000_000)), int(model), int(stream))
    )


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
    schedule = build_linear_vp_schedule(grid.n_steps)
    prior = build_toy_prior(d)
    a = generate_measurement_matrix(
        d, m, np.random.default_rng(_seed(master_seed, d, m, sigma, model_index, _STREAM_MATRIX))
    )
    meas = generate_observation(
        a,
        prior,
        sigma,
        np.random.default_rng(_seed(master_seed, d, m, sigma, model_index, _STREAM_OBSERVATION)),
    )
    posterior = exact_posterior(prior, meas)
    reference = sample_mixture(
        posterior,
        grid.chains_per_model,
        np.random.default_rng(_seed(master_seed, d, m, sigma, model_index, _STREAM_REFERENCE)),
    )
    directions = draw_slice_directions(
        d,
        grid.n_slices,
        np.random.default_rng(_seed(master_seed, d, m, sigma, model_index, _STREAM_SLICES)),
    )

    records = []
    samples_out = {"reference": reference} if keep_samples else {}
    total = aborted = 0
    for method in grid.methods:
        t0 = time.perf_counter()
        stream = _STREAM_CHAINS + METHOD_TAGS.index(method.tag)
        cfg = ChainConfig(
            schedule=schedule,
            method=method,
            rng_seed=np.random.default_rng(
                _seed(master_seed, d, m, sigma, model_index, stream)
            ),
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


def run_cell(d: int, m: int, sigma: float, grid: ExperimentGrid, master_seed: int):
    """All models and methods of one grid cell.

    Returns (records, cell_valid); a cell with > 10% aborted chains is
    flagged invalid.
    """
    records = []
    total = aborted = 0
    for model_index in range(grid.models_per_cell):
        recs, tot, ab, _ = run_model(d, m, sigma, grid, master_seed, model_index)
        records.extend(recs)
        total += tot
        aborted += ab
    return records, aborted <= 0.10 * total


def run_grid(grid: ExperimentGrid, master_seed: int, cells=None):
    """Run every cell (or the given (d, m, sigma) subset); returns
    (sorted records, all_cells_valid)."""
    if cells is None:
        cells = [(d, m, s) for d in grid.dims for m in grid.ms for s in grid.sigmas]
    # records are written only at the end, so a bad cell must not wait its turn
    for d, m, sigma in cells:
        if d < 2 or d % 2 or not 1 <= m <= d or not sigma > 0:
            raise ValueError(
                f"invalid cell (d={d}, m={m}, sigma={sigma}): "
                "need d even and >= 2, 1 <= m <= d and sigma > 0"
            )
    records = []
    all_valid = True
    for d, m, sigma in cells:
        recs, valid = run_cell(d, m, sigma, grid, master_seed)
        records.extend(recs)
        all_valid &= valid
    records.sort(key=ExperimentRecord.sort_key)
    return records, all_valid


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def emit_results(records, format: str, path) -> Path:
    """Write records as CSV or JSONL; CSV gets a companion summary file."""
    if not records:
        raise ValueError("no records to emit")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = sorted(records, key=ExperimentRecord.sort_key)
    if format == "jsonl":
        with open(path, "w") as fh:
            for r in records:
                fh.write(
                    json.dumps(
                        {c: getattr(r, c) for c in RESULT_COLUMNS}, sort_keys=False
                    )
                    + "\n"
                )
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
                mean, half = float(vals[0]), 0.0
            writer.writerow([_fmt(v) for v in (*key, mean, half)])
    return path


def parse_results_csv(path) -> list[ExperimentRecord]:
    """Inverse of emit_results(format="csv")."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULT_COLUMNS:
            raise ValueError(f"unexpected columns {reader.fieldnames}")
        for row in reader:
            out.append(
                ExperimentRecord(
                    d=int(row["d"]),
                    m=int(row["m"]),
                    sigma=float(row["sigma"]),
                    method=row["method"],
                    model_seed=int(row["model_seed"]),
                    sw=float(row["sw"]),
                    cg_failures=int(row["cg_failures"]),
                    wall_ms=float(row["wall_ms"]),
                )
            )
    return out


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

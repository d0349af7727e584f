"""Command-line entry point for the experiment harness.

The flags set ExperimentGrid fields (--smoke first swaps in the desk-scale
defaults); exit code 0 only if no cell was flagged invalid (> 10% aborted
chains).  An invalid setting (a zero count, a repeated method, a non-finite
sigma or zeta, --zeta without DPS) raises ValueError before any cell runs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .guidance import METHOD_TAGS, GuidanceMethod
from .harness import ExperimentGrid, emit_results, run_grid

# integer flags, each setting the ExperimentGrid field it is stored under
_GRID_FLAGS = (
    ("--chains", "chains_per_model", "chains per model"),
    ("--models", "models_per_cell", "measurement models per cell"),
    ("--slices", "n_slices", "sliced-Wasserstein slice count"),
    ("--steps", "n_steps", "reverse diffusion steps"),
)


def _parse_cell(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected d,m,sigma")
    return int(parts[0]), int(parts[1]), float(parts[2])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cadps",
        description="Posterior-sampling benchmark on the Gaussian-mixture toy dataset",
    )
    p.add_argument(
        "--cell",
        type=_parse_cell,
        action="append",
        metavar="d,m,sigma",
        help="restrict the run to one or more cells",
    )
    p.add_argument("--methods", nargs="+", choices=METHOD_TAGS, default=METHOD_TAGS)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    for flag, dest, text in _GRID_FLAGS:
        p.add_argument(flag, type=int, dest=dest, help=text)
    p.add_argument("--zeta", type=float, help="DPS guidance strength")
    p.add_argument("--smoke", action="store_true", help="desk-scale defaults")
    p.add_argument(
        "--no-timing",
        action="store_true",
        help="emit wall_ms as 0 so repeated runs are byte-identical",
    )
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.zeta is not None and "dps" not in args.methods:
        raise ValueError("--zeta is the DPS strength, but dps is not among the methods")
    dps = {} if args.zeta is None else {"zeta": args.zeta}
    methods = tuple(GuidanceMethod(tag=t, **(dps if t == "dps" else {})) for t in args.methods)
    grid = ExperimentGrid().smoke() if args.smoke else ExperimentGrid()
    counts = {k: v for _, k, _ in _GRID_FLAGS if (v := getattr(args, k)) is not None}
    grid = replace(grid, methods=methods, record_timing=not args.no_timing, **counts)

    records, all_valid = run_grid(grid, args.seed, cells=args.cell)
    emit_results(records, "csv", args.out / "records.csv")
    emit_results(records, "jsonl", args.out / "records.jsonl")
    print(f"wrote {len(records)} records to {args.out}/records.csv (+summary, +jsonl)")
    if not all_valid:
        print("warning: at least one cell exceeded the 10% chain-abort budget", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

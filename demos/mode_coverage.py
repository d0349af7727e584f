"""Mode coverage on the hard cell (d=80, m=1, sigma=0.1).

A single scalar measurement of an 80-dimensional lattice mixture leaves
many posterior modes alive.  This script pools samples over 5 random
measurement models, counts the lattice cells (nearest lattice point on
the first two coordinates) that hold at least 1% of the samples for each
method, and writes a scatter CSV of the covariance-aware samples against
the exact posterior reference to results/mode_coverage.csv for plotting.
"""

import numpy as np

from cadps import ExperimentGrid, emit_scatter
from cadps.harness import run_model


def n_covered(xs):
    cells = np.clip(np.round(xs[:, :2] / 8.0), -2, 2)
    _, counts = np.unique(cells, axis=0, return_counts=True)
    return int(np.sum(counts >= 0.01 * len(xs)))


def main():
    grid = ExperimentGrid().smoke()
    pooled = {"cadps": [], "dps": [], "pigdm": [], "reference": []}
    for model in range(grid.models_per_cell):
        _, _, _, samples = run_model(80, 1, 0.1, grid, 0, model, keep_samples=True)
        for tag in pooled:
            pooled[tag].append(samples[tag])
    pooled = {tag: np.concatenate(v) for tag, v in pooled.items()}

    print("lattice cells (of 25) holding >= 1% of samples:")
    for tag in ("reference", "cadps", "dps", "pigdm"):
        print(f"  {tag:>9}: {n_covered(pooled[tag])}")

    path = emit_scatter(
        pooled["cadps"][:, :2], pooled["reference"][:, :2], "results/mode_coverage.csv"
    )
    print(f"wrote {path} (blocks: samples = cadps, reference = exact posterior)")


if __name__ == "__main__":
    main()

"""Side-by-side sliced-Wasserstein comparison on two contrasting cells.

(d=8, m=4, sigma=0.01) is strongly informed: four measurements pin down
the posterior, and curvature-aware guidance pays off the most there.
(d=80, m=1, sigma=0.1) is weakly informed: the posterior keeps many
lattice modes, and the gap between methods narrows.  Both cells run at
desk scale (5 models x 200 chains x 200 steps) in about a minute.
"""

import numpy as np

from cadps import ExperimentGrid, run_grid


def main():
    grid = ExperimentGrid().smoke()
    for d, m, sigma in ((8, 4, 0.01), (80, 1, 0.1)):
        records, valid = run_grid(grid, 0, cells=[(d, m, sigma)])
        print(f"cell d={d} m={m} sigma={sigma}  (valid={valid})")
        for tag in ("cadps", "dps", "pigdm"):
            sw = [r.sw for r in records if r.method == tag]
            print(f"  {tag:>6}: mean SW {np.mean(sw):.3f}  per-model {np.round(sw, 3)}")


if __name__ == "__main__":
    main()

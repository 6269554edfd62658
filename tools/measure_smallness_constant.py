"""Measure the smallness-ratio constant: max |b(u,G,u)| / ||u||^2 over beta.

The cross-term bound promises |b(u, G_eps, u)| <= beta(eps) ||u||^2 up to
an O(1) geometric constant.  This script measures that constant on a fine
grid (nx = 256) for the unit bump datum at the epsilon values whose cutoff
band the grid resolves, plus the standard nx = 64 fixture for comparison.
The frozen regression bound in the tests is the fine-grid maximum with
headroom.
"""

import sys

sys.path.insert(0, "src")

from reproflow.fields import Grid  # noqa: E402
from reproflow.lift import boundary_profile, build_lift, verify_smallness  # noqa: E402

for nx in (64, 256):
    grid = Grid("square", nx)
    bdata = boundary_profile(grid, "bottom_bump", amplitude=1.0)
    for eps in (0.4, 0.2):
        lift = build_lift(bdata, eps, grid)
        ratio = verify_smallness(lift, samples=100, seed=0)
        c = ratio / lift.beta if lift.beta > 0 else 0.0
        print(f"nx {nx:4d} eps {eps:4.2f}: ratio {ratio:.8e}  "
              f"beta {lift.beta:.8e}  C = ratio/beta = {c:.6f}")

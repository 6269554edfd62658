"""Oracle for the smallest Stokes eigenvalue of the unit square.

The discrete Stokes eigenproblem is the clamped-plate buckling problem,
whose smallest eigenvalue on the unit square is 52.344691168 (Bjorstad &
Tjostheim, Computing 63, 1999).  The script computes lambda_1 at
nx = 24, 48, 96, prints the error ratio of each refinement (4 is clean
second order), and the relative deviation of the second-order Richardson
value from the reference for each grid pair.

Run:  python tools/oracle_square_lambda1.py
"""

import sys

sys.path.insert(0, "src")

from reproflow.fields import Grid  # noqa: E402
from reproflow.stokes import compute_eigenbasis  # noqa: E402

LAMBDA1 = 52.344691168


def main():
    lams = {nx: compute_eigenbasis(Grid("square", nx), 1).eigenvalues[0]
            for nx in (24, 48, 96)}
    for nx, lam in lams.items():
        print(f"nx={nx:3d} lambda_1 = {lam:.10f}  error {lam - LAMBDA1:+.3e}")
    for coarse, fine in ((24, 48), (48, 96)):
        ratio = (lams[coarse] - LAMBDA1) / (lams[fine] - LAMBDA1)
        rich = lams[fine] + (lams[fine] - lams[coarse]) / 3.0
        print(f"nx {coarse}/{fine}: error ratio {ratio:.3f}, Richardson {rich:.9f}, "
              f"relative deviation {abs(rich - LAMBDA1) / LAMBDA1:.2e}")


if __name__ == "__main__":
    main()

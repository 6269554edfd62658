"""Oracle for the smallest wall-domain Stokes eigenvalue.

Two independent checks:

1. dense-solve cross-validation: at small nx, scipy.linalg.eigh on the dense
   (S, M) pencil must agree with the sparse shift-invert path to rounding;
2. grid sequence nx = 32, 64, 128 with Richardson extrapolation assuming
   second order, giving the reference value frozen into the tests.

Run:  python tools/oracle_square_lambda1.py
"""

import sys

import numpy as np
import scipy.linalg

sys.path.insert(0, "src")

from reproflow.fields import Grid  # noqa: E402
from reproflow.stokes import _square_pencil, compute_eigenbasis  # noqa: E402


def dense_lambda(nx, k=4):
    s, m = _square_pencil(Grid("square", nx))
    vals = scipy.linalg.eigh(s.toarray(), m.toarray(), eigvals_only=True)
    return vals[:k]


def main():
    for nx in (12, 16, 24):
        dense = dense_lambda(nx)
        sparse = compute_eigenbasis(Grid("square", nx), 4).eigenvalues
        print(f"nx={nx:4d} dense {dense} sparse {sparse} "
              f"maxdiff {np.abs(dense - sparse).max():.3e}")

    lams = {}
    for nx in (32, 64, 128):
        lams[nx] = compute_eigenbasis(Grid("square", nx), 1).eigenvalues[0]
        print(f"nx={nx:4d} lambda_1 = {lams[nx]:.10f}")
    # second-order Richardson from the two finest grids
    rich = lams[128] + (lams[128] - lams[64]) / 3.0
    rate = (lams[64] - lams[32]) / (lams[128] - lams[64])
    print(f"observed refinement ratio: {rate:.3f} (4 = clean second order)")
    print(f"Richardson-extrapolated lambda_1 = {rich:.8f}")


if __name__ == "__main__":
    main()

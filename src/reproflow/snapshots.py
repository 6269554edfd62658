"""Self-describing field snapshots.

One snapshot = one ``.npz`` archive with the keys

===========  =====================================================
``kind``     grid kind, always "square"
``nx``       cells per direction
``h``        mesh spacing (redundant, for self-description)
``t``        sample time
``layout``   "mac" (u on vertical faces, v on horizontal faces)
``u``, ``v`` the two staggered component arrays, row-major, [i, j]
===========  =====================================================

Scalar snapshots replace u/v by ``values`` and add ``loc`` (center/node).
Arrays are stored uncompressed in native float64; the format is covered by
round-trip tests.
"""

import numpy as np

from .fields import Grid, ScalarField, VectorField


def save_vector(path, w, t=0.0):
    np.savez(
        path,
        kind=w.grid.kind,
        nx=w.grid.nx,
        h=w.grid.h,
        t=float(t),
        layout="mac",
        u=w.u,
        v=w.v,
    )


def save_scalar(path, s, t=0.0):
    np.savez(
        path,
        kind=s.grid.kind,
        nx=s.grid.nx,
        h=s.grid.h,
        t=float(t),
        layout="mac",
        loc=s.loc,
        values=s.values,
    )


def load(path):
    """Load a snapshot; returns (field, t) with field Vector or Scalar."""
    with np.load(path, allow_pickle=False) as d:
        kind = str(d["kind"])
        grid = Grid(kind, int(d["nx"]))
        if abs(float(d["h"]) - grid.h) > 1e-12 * grid.h:
            raise ValueError(f"inconsistent snapshot header: h={float(d['h'])}")
        t = float(d["t"])
        if "values" in d:
            return ScalarField(grid, d["values"], loc=str(d["loc"])), t
        return VectorField(grid, d["u"], d["v"]), t

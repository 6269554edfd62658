"""Shared fixtures.

The expensive objects — eigenbases, quadrature tensors, the standard
wall-bump configuration at full working resolution (nx = 48, m = 32) —
are built once per session.  The basis cache goes to a pytest temp
directory so test runs never touch the working tree.
"""

import numpy as np
import pytest

from reproflow.fields import Grid, inner_l2
from reproflow.galerkin import SolverConfig, assemble_tensors
from reproflow.lift import BoundaryData, boundary_profile, build_lift, compute_forcing
from reproflow.stokes import StokesBasis, apply_stokes, compute_eigenbasis

# The standard wall-bump fixture: unit viscosity, one smooth bump of
# peak speed 1e-2 sliding along the bottom wall, lift band eps = 0.4.
# At eps <= 0.2 the band is thinner than a cell at these resolutions and
# the discrete lift field vanishes identically — real, but trivial.
BUMP_AMP = 1e-2
BUMP_EPS = 0.4


def build_zero_lift(grid, nu=1.0):
    """The lift of no wall data, forcing attached at nu: G, f and beta are all zero."""
    lift = build_lift(BoundaryData(grid, {}), BUMP_EPS, grid)
    compute_forcing(lift, nu)
    return lift


def rotate_cached_modes(path, grid, j, k, angle):
    """Rewrite a cached basis file with modes j and k rotated by `angle` in
    their span and each lambda set to its mode's Rayleigh quotient (A w, w).

    For two modes of one mirror parity and distinct eigenvalues the file
    stays orthonormal, ascending and of one parity per mode, and holds no
    eigenpairs: only the eigen-residual can tell.
    """
    with np.load(path, allow_pickle=False) as d:
        payload = dict(d)
    c, s = np.cos(angle), np.sin(angle)
    for key in ("ustack", "vstack"):
        wj, wk = payload[key][j].copy(), payload[key][k].copy()
        payload[key][j], payload[key][k] = c * wj - s * wk, s * wj + c * wk
    rotated = StokesBasis(grid, payload["eigenvalues"], payload["ustack"], payload["vstack"])
    for i in (j, k):
        w = rotated.mode(i)
        payload["eigenvalues"][i] = inner_l2(apply_stokes(w), w)
    np.savez(path, **payload)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("basis_cache"))


@pytest.fixture(scope="session")
def square32():
    return Grid("square", 32)


@pytest.fixture(scope="session")
def square48():
    return Grid("square", 48)


@pytest.fixture(scope="session")
def basis32(square32, cache_dir):
    return compute_eigenbasis(square32, 8, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def basis48(square48, cache_dir):
    return compute_eigenbasis(square48, 32, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def bump48(square48):
    return boundary_profile(square48, "bottom_bump", amplitude=BUMP_AMP)


@pytest.fixture(scope="session")
def lift48(square48, bump48):
    lift = build_lift(bump48, BUMP_EPS, square48)
    compute_forcing(lift, 1.0)
    return lift


@pytest.fixture(scope="session")
def zero_lift48(square48):
    return build_zero_lift(square48)


@pytest.fixture(scope="session")
def tensors48(basis48, lift48):
    return assemble_tensors(basis48, lift48, nu=1.0)


@pytest.fixture(scope="session")
def basis48_64(square48, cache_dir):
    return compute_eigenbasis(square48, 64, cache_dir=cache_dir)


@pytest.fixture(scope="session")
def tensors48_64(basis48_64, lift48):
    return assemble_tensors(basis48_64, lift48, nu=1.0)


@pytest.fixture(scope="session")
def config48():
    return SolverConfig(nu=1.0, T=1.0, dt=1e-3, m=32, epsilon=BUMP_EPS, nx=48)


@pytest.fixture(scope="session")
def lift32(square32):
    g = boundary_profile(square32, "bottom_bump", amplitude=BUMP_AMP)
    lift = build_lift(g, BUMP_EPS, square32)
    compute_forcing(lift, 1.0)
    return lift


@pytest.fixture(scope="session")
def zero_lift32(square32):
    return build_zero_lift(square32)


@pytest.fixture(scope="session")
def tensors32(basis32, lift32):
    return assemble_tensors(basis32, lift32, nu=1.0)


@pytest.fixture(scope="session")
def config32():
    return SolverConfig(nu=1.0, T=0.2, dt=1e-3, m=8, epsilon=BUMP_EPS, nx=32)


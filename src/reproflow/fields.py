"""Staggered (MAC) grids, discrete fields, and the vector-calculus operators.

The domain is the unit square [0,1] x [0,1] with solid walls, h = 1/nx.

Layout (indices are [i, j] with i along x and j along y)::

    psi --- u --- psi        psi : stream function, at nodes (i*h, j*h)
     |             |         u   : x-velocity, at vertical faces (i*h, (j+.5)h)
     v      p      v         v   : y-velocity, at horizontal faces ((i+.5)h, j*h)
     |             |         p   : scalars, at cell centers ((i+.5)h, (j+.5)h)
    psi --- u --- psi

Arrays carry the boundary samples: u is (nx+1, ny) including the
wall-normal faces i = 0 and i = nx, v is (nx, ny+1), nodal scalars are
(nx+1, ny+1).

The one identity everything downstream leans on: the divergence of a discrete
curl is *exactly* zero, because both are plain difference quotients of the
same nodal stream function.  That is why stream functions live at nodes.

All operators here are pure functions over immutable inputs.
"""

import numpy as np

SQUARE = "square"


class GridMismatchError(Exception):
    """Raised when an operation mixes fields living on different grids."""


class Grid:
    """Uniform MAC grid on the unit square.

    Parameters
    ----------
    kind : str
        ``"square"``, the only domain; snapshots and cache keys record it.
    nx : int
        Cells per direction (cells are square, ny = nx).
    """

    def __init__(self, kind, nx):
        if kind != SQUARE:
            raise ValueError(f"unknown grid kind {kind!r}")
        if nx < 4:
            raise ValueError(f"nx = {nx} is too coarse")
        self.kind = kind
        self.nx = int(nx)
        self.ny = int(nx)
        self.h = 1.0 / self.nx

    # -- coordinates ------------------------------------------------------

    def node_coords(self):
        """(x, y) meshgrids of node positions, shape (nx+1, ny+1)."""
        s = np.arange(self.nx + 1) * self.h
        return np.meshgrid(s, s, indexing="ij")

    def uface_coords(self):
        n = self.nx
        xs = np.arange(n + 1) * self.h
        ys = (np.arange(n) + 0.5) * self.h
        return np.meshgrid(xs, ys, indexing="ij")

    def vface_coords(self):
        n = self.nx
        xs = (np.arange(n) + 0.5) * self.h
        ys = np.arange(n + 1) * self.h
        return np.meshgrid(xs, ys, indexing="ij")

    # -- wall distance ----------------------------------------------------

    def rho_nodes(self):
        """Distance to the nearest wall at every node."""
        x, y = self.node_coords()
        return np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y))

    # -- shapes -----------------------------------------------------------

    def shape_center(self):
        return (self.nx, self.ny)

    def shape_node(self):
        return (self.nx + 1, self.ny + 1)

    def shape_u(self):
        return (self.nx + 1, self.ny)

    def shape_v(self):
        return (self.nx, self.ny + 1)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.kind == other.kind
            and self.nx == other.nx
        )

    def __hash__(self):
        return hash((self.kind, self.nx))

    def __repr__(self):
        return f"Grid({self.kind!r}, nx={self.nx}, h={self.h:.6g})"


class ScalarField:
    """Scalar samples on a grid, at cell centers or at nodes.

    Pressures and cutoffs live at centers (the standard MAC slot, nx*ny
    values); stream functions live at nodes, which is what makes their curl
    exactly divergence-free.
    """

    def __init__(self, grid, values, loc="center"):
        if loc not in ("center", "node"):
            raise ValueError(f"unknown scalar location {loc!r}")
        expected = grid.shape_center() if loc == "center" else grid.shape_node()
        values = np.asarray(values, dtype=float)
        if values.shape != expected:
            raise ValueError(
                f"scalar samples have shape {values.shape}, expected {expected} "
                f"for loc={loc!r} on {grid!r}"
            )
        self.grid = grid
        self.values = values
        self.loc = loc

    def copy(self):
        return ScalarField(self.grid, self.values.copy(), self.loc)

    def __repr__(self):
        return f"ScalarField({self.grid!r}, loc={self.loc!r})"


class VectorField:
    """MAC-staggered velocity samples: u on vertical faces, v on horizontal."""

    def __init__(self, grid, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != grid.shape_u() or v.shape != grid.shape_v():
            raise ValueError(
                f"component shapes {u.shape}/{v.shape} do not match the MAC "
                f"layout {grid.shape_u()}/{grid.shape_v()} of {grid!r}"
            )
        self.grid = grid
        self.u = u
        self.v = v

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape_u()), np.zeros(grid.shape_v()))

    def copy(self):
        return VectorField(self.grid, self.u.copy(), self.v.copy())

    def __add__(self, other):
        _same_grid(self, other)
        return VectorField(self.grid, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        _same_grid(self, other)
        return VectorField(self.grid, self.u - other.u, self.v - other.v)

    def __mul__(self, a):
        return VectorField(self.grid, a * self.u, a * self.v)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def wall_normal_max(self):
        """max |u.n| over wall faces."""
        return max(
            np.abs(self.u[0, :]).max(),
            np.abs(self.u[-1, :]).max(),
            np.abs(self.v[:, 0]).max(),
            np.abs(self.v[:, -1]).max(),
        )

    def __repr__(self):
        return f"VectorField({self.grid!r})"


def _same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError(f"{f.grid!r} != {g!r}")
    return g


# ---------------------------------------------------------------------------
# first-order building blocks
# ---------------------------------------------------------------------------


def divergence(w):
    """Centered MAC divergence at cell centers (second order).

    For w = rot(psi) the result is zero to machine rounding: both terms are
    cross-differences of the same nodal array and cancel identically.
    """
    g = w.grid
    h = g.h
    d = (w.u[1:, :] - w.u[:-1, :]) / h + (w.v[:, 1:] - w.v[:, :-1]) / h
    return ScalarField(g, d, loc="center")


def rot(psi):
    """Perpendicular gradient (d psi/dy, -d psi/dx) of a nodal stream function.

    The differences land exactly on the MAC faces, so div(rot(psi)) = 0 to
    rounding for every psi.
    """
    if psi.loc != "node":
        raise ValueError("rot needs a node-sampled stream function")
    g = psi.grid
    h = g.h
    p = psi.values
    u = (p[:, 1:] - p[:, :-1]) / h
    v = -(p[1:, :] - p[:-1, :]) / h
    return VectorField(g, u, v)


def gradient(phi):
    """Centered gradient of a center scalar onto interior faces.

    The wall-normal faces get 0 (they are either constrained or handled by
    the caller's boundary data).
    """
    if phi.loc != "center":
        raise ValueError("gradient expects a center-sampled scalar")
    g = phi.grid
    h = g.h
    p = phi.values
    gu = np.zeros(g.shape_u())
    gv = np.zeros(g.shape_v())
    gu[1:-1, :] = (p[1:, :] - p[:-1, :]) / h
    gv[:, 1:-1] = (p[:, 1:] - p[:, :-1]) / h
    return VectorField(g, gu, gv)


def dirichlet_sine(n, h):
    """(S, mu) for the n - 1 interior node lines of a grid of nx = n.

    S is the orthonormal DST-I matrix: row k samples sin((k+1) pi x) at the
    interior nodes, it is symmetric and its own inverse, and its last row
    is (-1)^k times its first, so 0-based even k has an even mirror parity.
    It diagonalizes the Dirichlet second difference, whose eigenvalues are
    mu_k = -(4/h^2) sin^2(pi (k+1) / 2n).
    """
    k = np.arange(1, n)
    s = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    return s, -(4.0 / h**2) * np.sin(np.pi * k / (2 * n)) ** 2


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------


def _lap_1d(a, axis, h, bc):
    """Second difference along ``axis`` with ghosts set by the wall closure.

    ``"noslip"``: odd-mirror ghosts.  ``"extrapolate"``: quadratically
    extrapolated ghosts, for fields that do not vanish at the wall (the
    boundary lift), where the odd mirror would be O(1) wrong.
    """
    take = lambda k: np.take(a, [k], axis=axis)
    if bc == "noslip":
        ghost_lo, ghost_hi = -take(0), -take(-1)
    elif bc == "extrapolate":
        ghost_lo = 3.0 * take(0) - 3.0 * take(1) + take(2)
        ghost_hi = 3.0 * take(-1) - 3.0 * take(-2) + take(-3)
    else:
        raise ValueError(f"unknown bc {bc!r}")
    ext = np.concatenate([ghost_lo, a, ghost_hi], axis=axis)
    sl = [slice(None)] * a.ndim
    sl_lo, sl_mid, sl_hi = list(sl), list(sl), list(sl)
    sl_lo[axis] = slice(0, -2)
    sl_mid[axis] = slice(1, -1)
    sl_hi[axis] = slice(2, None)
    return (ext[tuple(sl_hi)] - 2.0 * ext[tuple(sl_mid)] + ext[tuple(sl_lo)]) / h**2


def laplacian(field, bc="noslip"):
    """Five-point Laplacian of a vector field (second order).

    Parameters
    ----------
    field : VectorField
    bc : str
        Wall closure, chosen by the caller:
        ``"noslip"`` -- odd-mirror ghosts for tangential velocity components,
        wall values kept for normal ones; the operator whose eigenpairs the
        Stokes basis consists of.  ``"extrapolate"`` -- one-sided quadratic
        ghosts, for fields with nonzero tangential wall traces (the lift).

    The output at wall-normal faces is set to 0 -- those are constrained
    samples, not degrees of freedom.
    """
    g = field.grid
    h = g.h
    u, v = field.u, field.v
    lu = np.zeros_like(u)
    # normal (x) direction: interior faces see their neighbors, walls are data
    lu[1:-1, :] = (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / h**2
    lu[1:-1, :] += _lap_1d(u, 1, h, bc)[1:-1, :]
    lv = np.zeros_like(v)
    lv[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / h**2
    lv[:, 1:-1] += _lap_1d(v, 0, h, bc)[:, 1:-1]
    return VectorField(g, lu, lv)


# ---------------------------------------------------------------------------
# advection and the trilinear form
# ---------------------------------------------------------------------------


def _centered(a, axis, h):
    """Centered first derivative along ``axis`` (leading batch axes allowed).

    On walls (along the tangential direction) a second-order one-sided
    formula is used instead of a ghost: correct for both wall-vanishing
    fields and lift fields with nonzero traces.
    """
    axis %= a.ndim
    out = np.empty_like(a)
    sl = lambda s: tuple(s if k == axis else slice(None) for k in range(a.ndim))
    out[sl(slice(1, -1))] = (a[sl(slice(2, None))] - a[sl(slice(0, -2))]) / (2 * h)
    first = (-3.0 * a[sl(slice(0, 1))] + 4.0 * a[sl(slice(1, 2))] - a[sl(slice(2, 3))]) / (2 * h)
    last = (3.0 * a[sl(slice(-1, None))] - 4.0 * a[sl(slice(-2, -1))] + a[sl(slice(-3, -2))]) / (2 * h)
    out[sl(slice(0, 1))] = first
    out[sl(slice(-1, None))] = last
    return out


def _v_at_ufaces(v, g):
    """Interpolate y-velocity samples v (..., v-face shape) to the u faces."""
    out = np.zeros(v.shape[:-2] + g.shape_u())
    # interior faces, shape (..., nx-1, ny)
    slab = 0.25 * (v[..., :-1, :-1] + v[..., :-1, 1:] + v[..., 1:, :-1] + v[..., 1:, 1:])
    out[..., 1:-1, :] = slab
    # wall u-faces: average the two adjacent v faces (one-sided in x)
    out[..., 0, :] = 0.5 * (v[..., 0, :-1] + v[..., 0, 1:])
    out[..., -1, :] = 0.5 * (v[..., -1, :-1] + v[..., -1, 1:])
    return out


def _u_at_vfaces(u, g):
    """Interpolate x-velocity samples u (..., u-face shape) to the v faces."""
    out = np.zeros(u.shape[:-2] + g.shape_v())
    # interior faces, shape (..., nx, ny-1)
    slab = 0.25 * (u[..., :-1, :-1] + u[..., 1:, :-1] + u[..., :-1, 1:] + u[..., 1:, 1:])
    out[..., 1:-1] = slab
    out[..., 0] = 0.5 * (u[..., :-1, 0] + u[..., 1:, 0])
    out[..., -1] = 0.5 * (u[..., :-1, -1] + u[..., 1:, -1])
    return out


def transport_stencils(u, v, g):
    """What advection reads of its transporting field (a in (a.grad)b).

    (u, v at the u faces, u at the v faces, v); u and v may carry
    leading batch axes.
    """
    return u, _v_at_ufaces(v, g), _u_at_vfaces(u, g), v


def gradient_stencils(u, v, g):
    """What advection reads of its transported field (b in (a.grad)b).

    (du/dx, du/dy, dv/dx, dv/dy), each on its own component's faces;
    u and v may carry leading batch axes.
    """
    h = g.h
    return _centered(u, -2, h), _centered(u, -1, h), _centered(v, -2, h), _centered(v, -1, h)


def advect_into(out_u, out_v, a, db, g):
    """(a . grad) b from the stencils of a and b, written into out_u/out_v.

    `a` is a `transport_stencils` tuple and `db` a `gradient_stencils`
    tuple; leading batch axes broadcast.  Wall faces are set to 0, as in
    `advect`.
    """
    au, av_u, au_v, av = a
    dbu_dx, dbu_dy, dbv_dx, dbv_dy = db
    np.add(au * dbu_dx, av_u * dbu_dy, out=out_u)
    np.add(au_v * dbv_dx, av * dbv_dy, out=out_v)
    out_u[..., 0, :] = 0.0
    out_u[..., -1, :] = 0.0
    out_v[..., 0] = 0.0
    out_v[..., -1] = 0.0


def advect(a, b):
    """(a . grad) b at the MAC faces, second-order centered.

    The result is only meaningful on interior faces (wall faces are set
    to 0); every integral taken against it pairs with fields
    whose wall-normal samples vanish, so this costs nothing.
    """
    g = _same_grid(a, b)
    out = VectorField.zeros(g)
    advect_into(out.u, out.v, transport_stencils(a.u, a.v, g),
                gradient_stencils(b.u, b.v, g), g)
    return out


def inner_l2(a, b):
    """Midpoint-rule L2 inner product; every sample carries weight h^2.

    Fields of interest have zero wall-normal samples, so the full weight at
    wall faces is invisible; scalars pair center against center.
    """
    g = _same_grid(a, b)
    w = g.h**2
    if isinstance(a, ScalarField):
        if not isinstance(b, ScalarField) or a.loc != b.loc:
            raise GridMismatchError("scalar inner product needs matching locations")
        return w * float(np.vdot(a.values, b.values))
    return w * (float(np.vdot(a.u, b.u)) + float(np.vdot(a.v, b.v)))


def norm_l2(a):
    return float(np.sqrt(max(inner_l2(a, a), 0.0)))


def inner_h1(a, b):
    """Gradient (V-norm) inner product ((a, b)) = -(Lap a, b).

    Lap is the no-slip Laplacian, whose eigenpairs the Stokes basis
    consists of, so Stokes eigenmodes satisfy ((w_i, w_j)) = lambda_i
    delta_ij to rounding.  This is a symmetric gradient form only for
    fields whose wall-normal samples vanish, as those of V_h and of the
    lift do.
    """
    return -inner_l2(laplacian(a, bc="noslip"), b)


def trilinear(u, v, w):
    """Skew-symmetrized advection form bt(u, v, w).

    bt(u, v, w) = 0.5 * [ ((u.grad)v, w) - ((u.grad)w, v) ].

    Coincides with the plain form ((u.grad)v, w) when div u = 0 and u has no
    wall-normal flux; the symmetrization makes bt(u, v, v) = 0 an algebraic
    identity, which is what keeps the discrete energy balance honest.
    """
    _same_grid(u, v, w)
    t1 = inner_l2(advect(u, v), w)
    t2 = inner_l2(advect(u, w), v)
    return 0.5 * (t1 - t2)


def tangential_trace(w):
    """Extrapolated tangential velocity on each wall.

    Returns a dict keyed bottom/right/top/left with the tangential component
    (oriented counterclockwise) at the wall *face* positions, obtained by
    evaluating the parabola through the first three face rows at the wall:
    t(0) ~ (15 t(h/2) - 10 t(3h/2) + 3 t(5h/2)) / 8.  Wall-layer velocity
    profiles are genuinely curved, so the three-point form buys a decisive
    accuracy step over linear extrapolation at practical resolutions.

    Counterclockwise tangents: bottom +x, right +y, top -x, left -y.
    """
    u, v = w.u, w.v
    e = lambda a0, a1, a2: (15.0 * a0 - 10.0 * a1 + 3.0 * a2) / 8.0
    return {
        "bottom": e(u[:, 0], u[:, 1], u[:, 2]),
        "right": e(v[-1, :], v[-2, :], v[-3, :]),
        "top": -e(u[:, -1], u[:, -2], u[:, -3]),
        "left": -e(v[0, :], v[1, :], v[2, :]),
    }

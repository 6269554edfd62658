"""Divergence-free lifting of tangential wall data.

The lift is built in three steps on the unit square: a stream function
whose rotation reproduces the wall data, a radial cutoff that confines
the lift to a thin boundary band, and the band-integral smallness
measure that the solver's regime checks consume.  The construction
guarantees ``div G = 0`` to rounding because G is the discrete rotation
of a nodal scalar.  The stream function is a clamped plate, solved per
mirror-parity sector by the Woodbury solve of the Stokes eigenbasis.
"""

import dataclasses

import numpy as np

from .fields import (
    Grid,
    ScalarField,
    VectorField,
    advect,
    dirichlet_sine,
    inner_h1,
    laplacian,
    rot,
    trilinear,
)
from .stokes import PARITY_INDICES, clamped_sector

WALLS = ("bottom", "right", "top", "left")

#: nodes closer than this many h to a corner must carry zero data
CORNER_MARGIN_CELLS = 4
#: gate of the lift run on max |div G|, which the construction makes rounding
DIVERGENCE_TOL = 1e-13


class InvalidBoundaryData(ValueError):
    """Wall data violates shape, finiteness, or corner-support rules."""


class SolverFailure(RuntimeError):
    """Direct solve did not reach the required residual."""


def _as_wall_array(grid, name, values):
    a = np.asarray(values, dtype=float)
    if a.shape != (grid.nx + 1,):
        raise InvalidBoundaryData(
            f"wall '{name}': expected {grid.nx + 1} node samples, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidBoundaryData(f"wall '{name}': non-finite samples")
    return a


class BoundaryData:
    """Steady tangential wall data at the boundary nodes of a square grid.

    Each wall carries one set of ``nx + 1`` samples of the
    counterclockwise tangential component, indexed by the grid coordinate
    running along that wall (x for bottom/top, y for left/right,
    ascending).  Only the tangential component is representable, so the
    normal trace is zero by construction.  Samples within
    ``CORNER_MARGIN_CELLS`` cells of a corner must vanish.
    """

    def __init__(self, grid, walls):
        self.grid = grid
        self.walls = self._validate(walls)

    def _validate(self, walls):
        unknown = set(walls) - set(WALLS)
        if unknown:
            raise InvalidBoundaryData(f"unknown wall names: {sorted(unknown)}")
        n = self.grid.nx
        out = {}
        for name in WALLS:
            a = _as_wall_array(self.grid, name, walls.get(name, np.zeros(n + 1)))
            idx = np.arange(n + 1)
            corner_cells = np.minimum(idx, n - idx)
            bad = (corner_cells < CORNER_MARGIN_CELLS) & (a != 0.0)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise InvalidBoundaryData(
                    f"wall '{name}': sample {i} is {corner_cells[i]} cells from a "
                    f"corner (margin is {CORNER_MARGIN_CELLS}) but nonzero")
            out[name] = a
        return out


def bump_profile(s):
    """Compactly supported polynomial bump (1 - z^2)^4, peak value 1.

    z = (s - 0.5) / 0.3, so the support is s in (0.2, 0.8).

    C^3 across the support edges with moderate derivative growth — sharp
    mollifier-style edges cost an order of magnitude in wall-trace
    accuracy at practical resolutions for no benefit here.
    """
    z = (np.asarray(s, dtype=float) - 0.5) / 0.3
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    out[inside] = (1.0 - z[inside] ** 2) ** 4
    return out


def boundary_profile(grid, name, amplitude=1.0):
    """Built-in wall data profiles.

    bottom_bump
        one smooth bump of peak tangential speed `amplitude` on the
        bottom wall, supported on x in [0.2, 0.8].
    counter_walls
        the same bump on bottom and top walls with equal ccw sign, i.e.
        physically opposed sliding directions.
    """
    s = np.arange(grid.nx + 1) * grid.h
    bump = amplitude * bump_profile(s)
    if name == "bottom_bump":
        return BoundaryData(grid, walls={"bottom": bump})
    if name == "counter_walls":
        return BoundaryData(grid, walls={"bottom": bump, "top": bump.copy()})
    raise InvalidBoundaryData(f"unknown profile '{name}'")


def load_boundary_table(grid, path):
    """Wall data from a two-column text table.

    Rows are ``s value`` pairs (whitespace- or comma-separated, ``#``
    comments allowed): ``s`` is counterclockwise arclength from the
    corner (0, 0), in [0, 4) — bottom [0,1), right [1,2), top [2,3),
    left [3,4) — and ``value`` the ccw tangential component.  Samples
    are linearly interpolated onto the boundary nodes with period-4
    wraparound.  A file that cannot be read, a non-numeric entry and a
    table without rows raise InvalidBoundaryData.
    """
    try:
        with open(path) as fh:
            rows = [line.split("#")[0].replace(",", " ").split() for line in fh]
        tab = np.array([row for row in rows if row], dtype=float)
    except (OSError, ValueError) as exc:
        raise InvalidBoundaryData(f"{path}: not a readable numeric table ({exc})") from exc
    if tab.ndim != 2 or tab.shape[1] != 2:
        raise InvalidBoundaryData(
            f"{path}: expected rows of two columns (arclength, value), got shape {tab.shape}")
    s, val = tab[:, 0], tab[:, 1]
    if np.any(s < 0) or np.any(s >= 4):
        raise InvalidBoundaryData(f"{path}: arclength must lie in [0, 4)")
    order = np.argsort(s)
    s, val = s[order], val[order]
    # periodic extension so interp covers the wrap joint
    s_ext = np.concatenate([s[-1:] - 4.0, s, s[:1] + 4.0])
    v_ext = np.concatenate([val[-1:], val, val[:1]])

    x = np.arange(grid.nx + 1) * grid.h
    walls = {
        "bottom": np.interp(x, s_ext, v_ext),
        "right": np.interp(1.0 + x, s_ext, v_ext),
        "top": np.interp(2.0 + (1.0 - x), s_ext, v_ext),
        "left": np.interp(3.0 + (1.0 - x), s_ext, v_ext),
    }
    return BoundaryData(grid, walls=walls)


# ---------------------------------------------------------------------------
# stream function


def _ghost_laplacian(a, h):
    """5-point Laplacian of a node array whose wall rows read the eliminated
    ghost, exact through quartics; its slope part is data."""
    out = np.zeros_like(a)
    for axis in (0, 1):
        b, o = np.moveaxis(a, axis, 0), np.moveaxis(out, axis, 0)
        o[1:-1] += b[2:] - 2.0 * b[1:-1] + b[:-2]
        o[0] += -2.0 * b[0] + 7.0 * b[1] - 2.0 * b[2] + b[3] / 3.0
        o[-1] += -2.0 * b[-1] + 7.0 * b[-2] - 2.0 * b[-3] + b[-4] / 3.0
    return out / h**2


def _solve_clamped(bc, h):
    """Node arrays (omega, psi) of the coupled clamped-plate system.

    The system, for psi with zero wall values and omega at every node:
    omega = Lap_h psi, whose wall rows read the eliminated ghost,
    K psi = (7 psi_1 - 2 psi_2 + psi_3 / 3) / h^2 along each wall normal,
    plus the slope data -(4/h) bc; and Lap_h omega = 0 at the interior
    nodes.  With L the Dirichlet 5-point Laplacian and E placing wall
    values on their adjacent interior nodes, this is
    (L^2 + E K / h^2) psi = (4/h^3) E bc.  In the sine basis of S it splits
    into four mirror-parity sectors, each one `stokes.clamped_sector` solve
    with the ghost read, shift h^4/2 and the slope data as wall data z.
    Then omega = L psi inside and K psi - (4/h) bc on the walls (0 at the
    data-free corners).  Only the residual check reads omega.
    """
    n = bc.shape[0] - 1
    s, mu = dirichlet_sine(n, h)
    lam = mu[:, None] + mu[None, :]  # eigenvalues of L
    left, right, bottom, top = (
        (4.0 / h**3) * s @ w for w in (bc[0, 1:-1], bc[-1, 1:-1], bc[1:-1, 0], bc[1:-1, -1]))
    read = 7.0 * s[0] - 2.0 * s[1] + s[2] / 3.0
    psihat = np.empty((n - 1, n - 1))
    for px, rows in PARITY_INDICES.items():
        for py, cols in PARITY_INDICES.items():
            # a wall and its mirror image act together, with the sector's sign
            zr = left + right if px == "even" else left - right
            zc = bottom + top if py == "even" else bottom - top
            solve = clamped_sector(lam[rows, cols], s[0, rows], s[0, cols],
                                   read[rows], read[cols], h**4 / 2.0)
            psihat[rows, cols] = solve(0.0, np.concatenate([zr[cols], zc[rows]]))
    psi = np.zeros_like(bc)
    psi[1:-1, 1:-1] = s @ psihat @ s
    omega = _ghost_laplacian(psi, h) - (4.0 / h) * bc
    omega[1:-1, 1:-1] = s @ (lam * psihat) @ s
    # one correction of the interior omega: Lap_h amplifies its rounding,
    # which for rough wall data on fine grids (nx >= 192) would otherwise
    # exceed the residual gate
    r = _ghost_laplacian(omega, h)[1:-1, 1:-1]
    omega[1:-1, 1:-1] -= s @ ((s @ r @ s) / lam) @ s
    return omega, psi


def _check_clamped(omega, psi, bc, h):
    """Raise SolverFailure unless (omega, psi) solves the coupled system.

    The residual is the max norm of both equations, relative to
    max(|(4/h) bc|, 1).
    """
    r_omega = omega - _ghost_laplacian(psi, h) + (4.0 / h) * bc
    r_psi = _ghost_laplacian(omega, h)[1:-1, 1:-1]
    scale = max((4.0 / h) * np.abs(bc).max(), 1.0)
    resid = max(np.abs(r_omega).max(), np.abs(r_psi).max()) / scale
    if not np.isfinite(resid) or resid > 1e-10:
        raise SolverFailure(f"stream-function solve residual {resid:.3e} > 1e-10")


def _wall_slopes(g, grid):
    """Node array of the wall data, the inward normal slope of psi (0 at corners)."""
    bc = np.zeros(grid.shape_node())
    bc[:, 0], bc[-1], bc[:, -1], bc[0] = (g.walls[name] for name in WALLS)
    return bc


def build_stream_function(g, grid):
    """Stream function with zero wall values whose rotation traces g.

    Solves the clamped fourth-order problem (zero Dirichlet values, normal
    slope set by the wall data) as a coupled pair of second-order
    equations for (Lap psi, psi); the normal-slope condition enters
    through eliminated ghost nodes in the wall rows.  The solve is a
    sine transform and one Woodbury solve per mirror-parity sector,
    O(n^3) in numpy alone (`_solve_clamped`), and the residual of both
    equations is checked with stencils against 1e-10.
    """
    bc = _wall_slopes(g, grid)
    omega, psi = _solve_clamped(bc, grid.h)
    _check_clamped(omega, psi, bc, grid.h)
    return ScalarField(grid, psi, loc="node")


# ---------------------------------------------------------------------------
# cutoff


def delta_of(epsilon):
    """Band half-width delta = exp(-1/eps)."""
    return float(np.exp(-1.0 / epsilon))


def cutoff_profile(r, epsilon):
    """Radial cutoff profile: 1 inside delta^2, log taper, 0 beyond delta.

    The taper ln(delta/r)/ln(1/delta) has |slope| = eps/r across the
    band, the defining property of the construction.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"cutoff parameter must lie in (0, 1], got {epsilon}")
    d = delta_of(epsilon)
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    out[r <= d * d] = 1.0
    band = (r > d * d) & (r < d)
    out[band] = np.log(d / r[band]) / np.log(1.0 / d)
    return out


def cutoff(epsilon, grid):
    """Cutoff field theta(rho) sampled at grid nodes."""
    vals = cutoff_profile(grid.rho_nodes(), epsilon)
    return ScalarField(grid, vals, loc="node")


# ---------------------------------------------------------------------------
# the lift itself


@dataclasses.dataclass
class LiftData:
    """Lift of steady wall data: stream function, field G, band measure.

    `f_eps` is attached by compute_forcing, with the viscosity `nu` it
    was built at.
    """

    grid: Grid
    delta: float
    psi: object
    G_eps: object
    beta: float
    f_eps: object = None
    boundary: object = None
    nu: float = None


def _masked_rot(psi, theta):
    vals = theta.values * psi.values
    return rot(ScalarField(psi.grid, vals, loc="node"))


def build_lift(g, epsilon, grid):
    """Divergence-free lift of the wall data g, confined to the wall band.

    The lift is the discrete rotation of (cutoff x stream function), so
    its divergence vanishes to rounding and it is supported where the
    wall distance is below 2*delta(eps).
    """
    psi = build_stream_function(g, grid)
    field = _masked_rot(psi, cutoff(epsilon, grid))
    lift = LiftData(grid=grid, delta=delta_of(epsilon), psi=psi, G_eps=field,
                    beta=0.0, boundary=g)
    lift.beta = compute_beta(lift)
    return lift


def _band_overlap_areas(grid, delta):
    """Per-cell area of overlap with the wall band {rho <= 2 delta}.

    The band is the complement of the centered open square of side
    1 - 4 delta; the overlap is computed exactly per cell, so the band
    measure keeps shrinking with delta even below one cell width.
    """
    n, h = grid.nx, grid.h
    lo, hi = 2.0 * delta, 1.0 - 2.0 * delta
    if lo >= hi:
        return np.full((n, n), h * h)
    edges = np.arange(n + 1) * h
    inner = np.clip(np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0, None)
    return h * h - np.outer(inner, inner)


def _grad_psi_at_centers(psi):
    p = psi.values
    h = psi.grid.h
    dpdx = (p[1:, :-1] - p[:-1, :-1] + p[1:, 1:] - p[:-1, 1:]) / (2.0 * h)
    dpdy = (p[:-1, 1:] - p[:-1, :-1] + p[1:, 1:] - p[1:, :-1]) / (2.0 * h)
    return dpdx, dpdy


def compute_beta(lift):
    """Band smallness measure: cube root of the band integral of |grad psi|^3.

    Two quadratures, switched on band width.  When the band {rho <= 2
    delta} spans at least half a cell, each cell contributes its
    center-sampled |grad psi|^3 times its exact overlap area with the
    band.  Thinner bands hug the walls where |grad psi| equals the wall
    speed |g| (psi vanishes along each wall), so the integral collapses
    to 2*delta times the trapezoidal wall-line integral of |g|^3 —
    center sampling half a cell away from such a sliver would misstate
    it.  Both branches shrink strictly with delta and agree with a
    refined grid to a few percent.
    """
    grid, delta = lift.grid, lift.delta

    if 2.0 * delta < 0.5 * grid.h:
        tot = 0.0
        for name in WALLS:
            a3 = np.abs(lift.boundary.walls[name]) ** 3
            tot += grid.h * (a3.sum() - 0.5 * (a3[0] + a3[-1]))
        return float((2.0 * delta * tot) ** (1.0 / 3.0))

    dpdx, dpdy = _grad_psi_at_centers(lift.psi)
    mag3 = (dpdx**2 + dpdy**2) ** 1.5
    return float(np.sum(mag3 * _band_overlap_areas(grid, delta)) ** (1.0 / 3.0))


def verify_smallness(lift, samples, seed=0):
    """Max of |b(v, G, v)| / ||v||_H1^2 over random zero-trace solenoidal v.

    Samples are rotations of random interior stream functions whose four
    outermost node rings vanish, so they are exactly divergence-free and
    zero on every face row the trace extrapolation sees.
    """
    grid = lift.grid
    rng = np.random.default_rng(seed)
    n = grid.nx
    worst = 0.0
    for _ in range(samples):
        psi = np.zeros((n + 1, n + 1))
        psi[4:-4, 4:-4] = rng.standard_normal((n - 7, n - 7))
        v = rot(ScalarField(grid, psi, loc="node"))
        num = abs(trilinear(v, lift.G_eps, v))
        den = inner_h1(v, v)
        worst = max(worst, num / den)
    return worst


def compute_forcing(lift, nu):
    """Forcing induced by the lift: nu lap G - (G.grad)G.

    The wall data is steady, so G has no time derivative.  The one
    forcing field is cached on the lift, with its nu; a lift holding a
    forcing built at another nu raises ValueError, since tensors
    assembled from the old one would still pass for the new.
    """
    if lift.f_eps is not None and nu != lift.nu:
        raise ValueError(f"the lift's forcing was built at nu = {lift.nu}, not {nu}")
    lap = laplacian(lift.G_eps, bc="extrapolate")
    adv = advect(lift.G_eps, lift.G_eps)
    lift.f_eps = VectorField(lift.grid, nu * lap.u - adv.u, nu * lap.v - adv.v)
    lift.nu = nu
    return lift.f_eps


def attached_forcing(lift, nu=None):
    """The lift's forcing, built at `nu` if none is attached yet.

    A forcing attached at another nu raises ValueError, since reusing it
    would pair one viscosity's forcing with another's run.
    """
    if nu is None or nu == lift.nu:
        if lift.f_eps is None:
            raise ValueError("lift has no forcing attached; pass nu")
        return lift.f_eps
    return compute_forcing(lift, nu)

"""Coefficient-space solver on the Stokes eigenbasis.

The velocity unknown is expanded in eigenmodes of the Stokes operator;
the stiff diagonal part is integrated by its exact exponential factor
and everything else (quadratic mode coupling, lift coupling, forcing)
by an explicit two-stage second-order rule on the transformed variable.
All norms the monitors need are exact sums in coefficient space.
"""

import dataclasses

import numpy as np

from .fields import (
    advect,
    advect_into,
    divergence,
    gradient,
    gradient_stencils,
    inner_l2,
    laplacian,
    norm_l2,
    transport_stencils,
)
from .lift import attached_forcing
from .stokes import LerayProjector


class ConfigError(ValueError):
    """Invalid solver configuration; message names the offending fields."""


# the trust region of the coefficients: a step that leaves it raises BlowupDetected
BLOWUP_BOUND = 1e6


class BlowupDetected(RuntimeError):
    def __init__(self, step_index, max_coeff, row=None):
        self.step_index = step_index
        self.max_coeff = max_coeff
        self.row = row
        super().__init__()

    def __str__(self):
        where = "" if self.row is None else f" in stack row {self.row}"
        return (f"coefficients exceeded {BLOWUP_BOUND:.0e} at step "
                f"{self.step_index}{where} (max {self.max_coeff:.3e})")


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    nu: float
    T: float
    dt: float
    m: int
    epsilon: float = 0.4
    nx: int = 48

    def n_steps(self):
        return int(round(self.T / self.dt))


def validate_config(config):
    """Static validation; raises ConfigError naming the offending fields."""
    if config.nu <= 0:
        raise ConfigError(f"nu must be positive, got {config.nu}")
    if config.T <= 0:
        raise ConfigError(f"T must be positive, got {config.T}")
    if config.dt <= 0:
        raise ConfigError(f"dt must be positive, got {config.dt}")
    if config.m < 1:
        raise ConfigError(f"m must be at least 1, got {config.m}")
    if not 0.0 < config.epsilon <= 1.0:
        raise ConfigError(f"epsilon must lie in (0, 1], got {config.epsilon}")
    if config.nx < 8:
        raise ConfigError(f"nx must be at least 8, got {config.nx}")
    n = config.T / config.dt
    if abs(n - round(n)) > 1e-9 * max(1.0, n):
        raise ConfigError(f"dt = {config.dt} does not divide T = {config.T}")
    return config


def explicit_dt_bound(tensors, c0):
    """Conservative step bound for the explicit part of the update.

    0.5 over (worst coupling row sum + state norm times worst quadratic
    row sum, the largest row norm for a stack); enforced before stepping.
    """
    de = np.abs(tensors.DE)
    # sum over the transported-mode index
    row_lin = de.sum(axis=0).max()
    row_quad = np.abs(tensors.B).sum(axis=(0, 1)).max()
    amp = float(np.max(np.linalg.norm(c0, axis=-1)))
    denom = row_lin + amp * row_quad
    if denom == 0.0:
        return np.inf
    return 0.5 / denom


def check_dt_bound(config, tensors, c0):
    bound = explicit_dt_bound(tensors, c0)
    if config.dt > bound:
        raise ConfigError(
            f"dt = {config.dt} exceeds the explicit stability bound {bound:.3e} "
            f"for this initial state")
    return bound


# ---------------------------------------------------------------------------
# tensors


def _aligned_empty(shape):
    """An uninitialised float64 array that starts on a 64-byte cache line.

    The step's products run up to 1.5x slower off a line, and where
    malloc puts an array varies by process.
    """
    n = int(np.prod(shape))
    store = np.empty(n + 8)
    return store[(-store.ctypes.data % 64) // 8:][:n].reshape(shape)


def _pack_pairs(b):
    """W and its pair indices (ia, il) for B (see `Tensors`).

    The pairs i <= l run row by row, as `np.triu_indices` lists them.  W
    is padded with zero rows, and the indices with the pair (0, 0), to a
    multiple of 8 pairs: with an unpadded count (m = 58 to 61, 66 to 69)
    rows of a stack did not step bitwise as they would alone.
    """
    m = b.shape[0]
    ia, il = np.triu_indices(m)
    n = -(-len(ia) // 8) * 8
    w = _aligned_empty((n, m))
    w[len(ia):] = 0.0
    start = 0
    for i in range(m):
        # one row at a time: a whole-B gather would double the peak memory
        w[start] = b[i, i]
        np.add(b[i, i + 1:], b[i + 1:, i], out=w[start + 1:start + m - i])
        start += m - i
    pad = (0, n - len(ia))
    return w, (np.pad(ia, pad), np.pad(il, pad))


@dataclasses.dataclass(frozen=True)
class Tensors:
    """Quadrature tensors of the expanded coefficient system.

    B[i, l, j] couples mode pairs through the advection form and is
    antisymmetric in (l, j); D and E couple each mode to the lift field
    (lift as transported / transporting argument respectively); F is
    the forcing projection.  The lift is one steady field G, so D, E
    and F are one (m, m), (m, m) and (m,) array each.

    The step loop reads arrays built once here: DE = D + E, and the
    pair-packed W for the quadratic term sum_{i,l} B[i, l, j] c_i c_l
    (`quadratic_term`).  Only the part of B symmetric in (i, l) enters
    the term, so row p of W, for the pair i = ia[p] <= l = il[p] of
    `pairs = (ia, il)`, holds B[i, l, :] + B[l, i, :], or B[i, i, :] on
    the diagonal.  The term is one product of the pair products c_i c_l
    with W, which has half the bytes of B and starts on a 64-byte cache
    line.  The step does not read B itself, so B may be any view, such
    as a slice of a larger tensor.
    """

    B: np.ndarray
    D: np.ndarray
    E: np.ndarray
    F: np.ndarray
    lam: np.ndarray
    DE: np.ndarray = dataclasses.field(init=False, repr=False)
    W: np.ndarray = dataclasses.field(init=False, repr=False)
    pairs: tuple = dataclasses.field(init=False, repr=False)

    def __post_init__(self):
        w, pairs = _pack_pairs(self.B)
        object.__setattr__(self, "DE", self.D + self.E)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "pairs", pairs)


def _flat(w):
    return np.concatenate([w.u.ravel(), w.v.ravel()])


# transported modes per assembly block: the (BLOCK, N) buffers stay small
# while every matrix product still has BLOCK rows
BLOCK = 8

# the (x, y) stream-function mirror parities of the four mode classes, in
# the order of the eigensolve's sectors: even-even, odd-odd, even-odd, odd-even
PARITY_CLASSES = ((1, 1), (-1, -1), (1, -1), (-1, 1))


def _class_order(basis):
    """Mode indices sorted by parity class, and each class's slice of them.

    Raises ValueError naming the first mode that lacks a single mirror
    parity on some axis: the selection rule of B does not hold for it.
    """
    par = basis.parities
    bad = np.flatnonzero((par == 0).any(axis=1))
    if bad.size:
        raise ValueError(f"mode {bad[0]} has no single mirror parity on some axis, "
                         f"so B's selection rule cannot be applied")
    members = [np.flatnonzero((par == cls).all(axis=1)) for cls in PARITY_CLASSES]
    order = np.concatenate(members)
    stops = np.cumsum([len(idx) for idx in members])
    rows = {cls: slice(stop - len(idx), stop)
            for cls, idx, stop in zip(PARITY_CLASSES, members, stops)}
    return order, rows


def assemble_tensors(basis, lift, nu=None):
    """All coefficient-system tensors for a basis and a lift.

    Every mode's stream function has one mirror parity per axis, and the
    discrete advection form is mirror-equivariant, so B[i, l, j] can be
    non-zero only when the parities of i, l and j multiply to -1 on each
    axis: a quarter of the triples (Bossavit, Comput. Methods Appl. Mech.
    Engrg. 56, 1986).  The sweep computes only that quarter; the other
    entries of B are exact zeros.

    The modes are ordered by parity class, so that each class is a
    contiguous row slice of the (m, N) mode matrix.  The sweep runs over
    blocks of up to 8 transported modes w_l from one class.  Per block it
    takes the derivative stacks of the block's modes once.  Per
    transporting mode w_i it writes the block's advections
    advect(w_i, w_l) into one (8, N) buffer and pairs that in one matrix
    product with the single class of modes w_j that the selection rule
    allows, and in one more with the lift field G: a block of rows of B,
    and of R[i, j] = (advect(w_i, w_j), G).  The same block then gives
    advect(w_l, G) for D and advect(G, w_l) for E, against every mode,
    since G has no mirror parity.  Working memory beyond the basis is
    block-sized: it does not grow with m*N.  `nu` is needed exactly when
    the lift's forcing has not been attached yet; a forcing attached at
    another nu raises ValueError.  The sweep's arrays are
    released before `Tensors` packs W: packed beside them, W raised the
    peak memory of a 48/64 run by up to 4 MB.
    """
    return Tensors(*_sweep(basis, lift, nu))


def _sweep(basis, lift, nu):
    """B, D, E, F and lam of `assemble_tensors`, in mode order."""
    m = len(basis.eigenvalues)
    lam = basis.eigenvalues.copy()
    g = basis.grid
    w2 = g.h**2
    order, rows = _class_order(basis)

    forcing = attached_forcing(lift, nu)

    # everything below runs in class order and is put back in mode order last,
    # except t1: it is written in mode order, since a reordered copy would hold
    # a second m^3 array beside it
    ustack, vstack = basis.ustack, basis.vstack
    n_ufaces = ustack[0].size
    flat = np.empty((m, n_ufaces + vstack[0].size))
    for row, j in enumerate(order):
        flat[row, :n_ufaces] = ustack[j].ravel()
        flat[row, n_ufaces:] = vstack[j].ravel()
    uflat = flat[:, :n_ufaces].reshape((m,) + g.shape_u())
    vflat = flat[:, n_ufaces:].reshape((m,) + g.shape_v())
    par = basis.parities[order].tolist()
    buf = np.empty((BLOCK, flat.shape[1]))
    # face-shaped views of the buffer's rows, written by advect_into
    bu = buf[:, :n_ufaces].reshape((BLOCK,) + g.shape_u())
    bv = buf[:, n_ufaces:].reshape((BLOCK,) + g.shape_v())
    t1 = np.zeros((m, m, m))
    r = np.empty((m, m))
    s = np.empty((m, m))       # (advect(w_i, G), w_j)
    half = np.empty((m, m))    # (advect(G, w_i), w_j)
    gu, gv = lift.G_eps.u, lift.G_eps.v
    gmat = _flat(lift.G_eps)[None, :]
    for cls, cls_rows in rows.items():
        for lo in range(cls_rows.start, cls_rows.stop, BLOCK):
            blk = slice(lo, min(lo + BLOCK, cls_rows.stop))
            k = blk.stop - lo
            ub, vb = uflat[blk], vflat[blk]
            grads = gradient_stencils(ub, vb, g)
            for i in range(m):
                advect_into(bu[:k], bv[:k], transport_stencils(uflat[i], vflat[i], g),
                            grads, g)
                allowed = rows[(-par[i][0] * cls[0], -par[i][1] * cls[1])]
                t1[order[i]][np.ix_(order[blk], order[allowed])] = (
                    w2 * (buf[:k] @ flat[allowed].T))
                r[i, blk] = w2 * (gmat @ buf[:k].T)[0]
            advect_into(bu[:k], bv[:k], transport_stencils(ub, vb, g),
                        gradient_stencils(gu, gv, g), g)
            s[blk] = w2 * (buf[:k] @ flat.T)
            advect_into(bu[:k], bv[:k], transport_stencils(gu, gv, g), grads, g)
            half[blk] = w2 * (buf[:k] @ flat.T)
    mode_order = np.argsort(order)
    b = t1 - t1.transpose(0, 2, 1)
    b *= 0.5
    pair = np.ix_(mode_order, mode_order)
    return (b, 0.5 * (s - r)[pair], 0.5 * (half - half.T)[pair],
            w2 * (flat @ _flat(forcing))[mode_order], lam)


# ---------------------------------------------------------------------------
# states and stepping


@dataclasses.dataclass
class GalerkinState:
    t: float
    c: np.ndarray

    def copy(self):
        return GalerkinState(self.t, self.c.copy())


def vnorm(c, lam):
    """V-norm sqrt(sum_j lam_j c_j^2) of a coefficient state (row-wise for a stack)."""
    return np.sqrt((c**2) @ lam)


def quadratic_term(c, tensors):
    """sum_{i,l} B[i, l, :] c_i c_l for a state (m,) or each row of a stack (k, m).

    Returned with shape (..., 1, m).  Reads the pair-packed W of
    `Tensors`; each stack row goes through its own (1, .) product, so it
    is bitwise the same as that state alone.  `take` gathers the pair
    products at half the cost of indexing through `...`.
    """
    ia, il = tensors.pairs
    return (c.take(ia, axis=-1) * c.take(il, axis=-1))[..., None, :] @ tensors.W


def _nonstiff(c, tensors):
    # the lift coupling too goes through (1, m) rows: bitwise per stack row
    return (-quadratic_term(c, tensors) - c[..., None, :] @ tensors.DE
            + tensors.F)[..., 0, :]


def rhs(state, tensors, nu):
    """Full coefficient derivative of a state (m,) or a stack (k, m)."""
    return -nu * tensors.lam * state.c + _nonstiff(state.c, tensors)


def step(state, tensors, config, _efactor=None):
    """One integrating-factor Heun step.

    The diagonal stiff term is handled by its exact exponential; the
    remaining terms enter through a two-stage second-order update of
    the transformed variable.  Linear-only systems are integrated
    exactly.  `state.c` is one state (m,) or a stack (k, m) of them.
    """
    dt, nu = config.dt, config.nu
    e1 = _efactor if _efactor is not None else np.exp(-nu * tensors.lam * dt)
    c = state.c
    k1 = _nonstiff(c, tensors)
    c_pred = e1 * (c + dt * k1)
    k2 = _nonstiff(c_pred, tensors)
    c_new = e1 * (c + (0.5 * dt) * k1) + (0.5 * dt) * k2

    peak = np.abs(c_new).max()
    if not peak <= BLOWUP_BOUND:  # also true for NaN
        row = int(np.argmin(np.abs(np.atleast_2d(c_new)).max(axis=1) <= BLOWUP_BOUND))
        raise BlowupDetected(-1, peak if np.isfinite(peak) else np.inf,
                             row if c_new.ndim == 2 else None)
    return GalerkinState(state.t + dt, c_new)


@dataclasses.dataclass
class Trajectory:
    """Coefficient history, shape (n+1,) + state shape, plus energy records."""

    times: np.ndarray
    coeffs: np.ndarray
    lam: np.ndarray
    dt: float
    f_l2sq: np.ndarray

    @property
    def l2sq(self):
        return (self.coeffs**2).sum(axis=-1)

    @property
    def h1sq(self):
        return (self.coeffs**2 @ self.lam)

    @property
    def h2sq(self):
        return (self.coeffs**2 @ self.lam**2)

    def state(self, n):
        return GalerkinState(float(self.times[n]), self.coeffs[n].copy())

    @property
    def n_steps(self):
        return len(self.times) - 1


def solve(config, u0, lift, basis, tensors=None):
    """Integrate the coefficient system on [0, T].

    `u0.c` is one state (m,) or a stack (k, m), each row bitwise its own
    solve.  Returns the trajectory with energy records; raises
    BlowupDetected (partial history attached) if a state leaves the trust region.
    """
    validate_config(config)
    if tensors is None:
        tensors = assemble_tensors(basis, lift, nu=config.nu)
    m = len(tensors.lam)
    if u0.c.ndim not in (1, 2) or u0.c.shape[-1] != m or u0.c.size == 0:
        raise ConfigError(f"initial state shape {u0.c.shape} is not ({m},) or (k, {m})")
    check_dt_bound(config, tensors, u0.c)

    n = config.n_steps()
    forcing = attached_forcing(lift, config.nu)
    fsq = np.full(n + 1, inner_l2(forcing, forcing))

    times = np.arange(n + 1) * config.dt
    coeffs = np.empty((n + 1,) + u0.c.shape)
    coeffs[0] = u0.c
    e1 = np.exp(-config.nu * tensors.lam * config.dt)
    state = GalerkinState(0.0, u0.c.copy())
    for k in range(n):
        try:
            state = step(state, tensors, config, _efactor=e1)
        except BlowupDetected as exc:
            exc.step_index = k
            exc.partial = Trajectory(times[:k + 1], coeffs[:k + 1].copy(),
                                     tensors.lam, config.dt, fsq[:k + 1])
            raise
        coeffs[k + 1] = state.c
    return Trajectory(times, coeffs, tensors.lam.copy(), config.dt, fsq)


# ---------------------------------------------------------------------------
# reconstruction and pressure


def reconstruct(trajectory, basis, lift, n=-1):
    """The velocity field v(t_n) = sum_j c_j(t_n) w_j + G at step n."""
    if n < 0:
        n += len(trajectory.times)
    return basis.combine(trajectory.coeffs[n]) + lift.G_eps


def _momentum_residual(state_pair, basis, lift, nu):
    """Face-sampled momentum residual of a consecutive state pair.

    r = -(dv/dt + (vbar.grad)vbar - nu Lap ubar - nu Lap G), with
    vbar = ubar + G the pair average.  The time derivative is the pair
    difference (G is steady).  Each part of the velocity takes its own
    wall closure: the Galerkin part ubar the no-slip one its modes
    satisfy, the lift G the extrapolated one for its non-zero trace.
    The lift's forcing nu Lap G - (G.grad)G is inside these terms, not
    added on top.  What remains of the momentum balance is (up to
    discretization) the pressure gradient.
    """
    s0, s1 = state_pair
    dt = s1.t - s0.t
    if dt <= 0:
        raise ValueError("state pair must be consecutive in time")
    u0, u1 = basis.combine(s0.c), basis.combine(s1.c)
    ubar = (u0 + u1) * 0.5
    dudt = (u1 - u0) * (1.0 / dt)
    vbar = ubar + lift.G_eps
    lap = laplacian(ubar, bc="noslip") + laplacian(lift.G_eps, bc="extrapolate")
    return -(dudt + advect(vbar, vbar) - nu * lap)


def recover_pressure(state_pair, basis, lift, nu):
    """Pressure at the midpoint of a consecutive state pair.

    Poisson problem div grad p = div r for the momentum residual r, with
    the wall fluxes of r acting as inhomogeneous Neumann data; normalized
    to zero mean, which pins down the free constant.
    """
    r = _momentum_residual(state_pair, basis, lift, nu)
    return LerayProjector(basis.grid).solve_poisson(divergence(r))


def momentum_residual_drop(state_pair, basis, lift, nu):
    """Ratio of momentum-residual norms before/after removing grad p.

    Uses the discretely consistent pressure (the compact Poisson solve
    of the residual divergence) so the quotient measures how close the
    residual is to a discrete gradient.
    """
    r = _momentum_residual(state_pair, basis, lift, nu)
    proj = LerayProjector(r.grid)
    p = proj.solve_poisson(divergence(r))
    after = r - gradient(p)
    return norm_l2(r) / max(norm_l2(after), 1e-300)

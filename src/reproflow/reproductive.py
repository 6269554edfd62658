"""Period-map machinery: contraction measurement and reproductive data.

The period map L sends an initial coefficient state to the state at
t = T under the configured flow.  For small data the map contracts at
rate exp(-nu T) in the V-norm, so Picard iteration u_{k+1} = L(u_k)
converges geometrically to the unique datum with v(T) = v(0); the
reconstructed flow started there is reproductive.

Smallness is enforced through an explicit budget (bound on the wall
data, on the lift forcing, and a ball radius for the state) that is
*measured* against the run, never assumed, and judged by the budget's
gates, which `measure_contraction` requires.  The budget numbers for the
standard fixture are empirical: the underlying constants are not
computable from first principles, so they are calibrated once per
grid / viscosity and stored here; tests/test_reproductive.py asserts them.
"""

import dataclasses
import math
import warnings

import numpy as np

from .galerkin import GalerkinState, solve, vnorm
from .lift import attached_forcing
from .fields import inner_l2
from .verification import Gate, check_h1_bound, require


class NonConvergence(RuntimeError):
    """Picard iteration missed the tolerance; carries the residual history."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


class BallExit(UserWarning):
    """The trajectory left the smallness ball B_M (monitored, not fatal)."""


# Calibrated for the standard wall-bump fixture: square, nx = 48, m = 32,
# nu = 1, epsilon = 0.4, data amplitude 1e-2.  Measured there, and pinned
# by tests/test_reproductive.py and acceptance criterion 3: wall-data norm
# 3.5048e-2, forcing norm 9.6990e-1, attractor V-norm 1.4041e-2, and
# radius-0.05 starts never leave the ball.  alpha and K carry ~40% headroom.
DEFAULT_BUDGET_FIXTURE = {
    "alpha": 0.05,
    "k_force": 1.5,
    "m_radius": 0.05,
}

CONTRACTION_TOL = 0.1  # share by which a contraction ratio may exceed exp(-nu T)


@dataclasses.dataclass(frozen=True)
class SmallnessBudget:
    """Bounds the small-data regime is calibrated to, plus the measurements.

    alpha bounds the wall-data norm proxy, k_force the L2 norm of the
    lift forcing, m_radius the V-norm ball the state must stay in.  The
    measured norms come from validate_budget; unmeasured, they are NaN.
    """

    alpha: float
    k_force: float
    m_radius: float
    g_norm: float = math.nan
    f_norm: float = math.nan
    beta: float = math.nan

    def gates(self):
        """Wall-data norm within alpha, forcing norm within K; an unmeasured norm fails."""
        return [Gate("wall-data-norm", self.g_norm, self.alpha),
                Gate("forcing-norm", self.f_norm, self.k_force)]


@dataclasses.dataclass
class FixedPointReport:
    residuals: list
    converged: bool
    state: GalerkinState
    tol: float
    envelope: float  # exp(-nu T), the rate the Picard ratios are held to
    l2_closure: float = None
    v0: object = None

    def gates(self):
        """Last residual within tol; every Picard ratio (0 if none) within the contraction gate."""
        return [Gate("picard-residual", self.residuals[-1], self.tol),
                Gate("picard-ratio", float(np.max(self.ratios, initial=0.0)),
                     self.envelope * (1.0 + CONTRACTION_TOL))]

    @property
    def ratios(self):
        r = self.residuals
        return [r[k + 1] / r[k] for k in range(len(r) - 1) if r[k] > 0]

    @property
    def n_iterations(self):
        return len(self.residuals)


def boundary_norm_proxy(boundary):
    """Computable stand-in for the smoothness norm of the wall data.

    Square root of the arclength integral of g^2 plus the square root
    of the arclength integral of (dg/ds)^2, each wall integrated by the
    trapezoid rule and the derivative taken by centered differences.
    Only the role as a smallness dial matters; any fixed equivalent
    norm would do.
    """
    h = boundary.grid.h
    sq = 0.0
    dsq = 0.0
    for arr in boundary.walls.values():
        sq += h * np.trapezoid(arr**2)
        dg = np.gradient(arr, h)
        dsq += h * np.trapezoid(dg**2)
    return math.sqrt(sq) + math.sqrt(dsq)


def validate_budget(boundary, lift, nu, m_radius=DEFAULT_BUDGET_FIXTURE["m_radius"]):
    """The calibrated smallness budget, with ball m_radius, measured on the run's data.

    Report-only: callers that need enforcement require `budget.gates()`
    (the contraction measurement does).  A lift forcing attached at
    another nu raises ValueError.
    """
    f = attached_forcing(lift, nu)
    return SmallnessBudget(**{**DEFAULT_BUDGET_FIXTURE, "m_radius": m_radius},
                           g_norm=boundary_norm_proxy(boundary),
                           f_norm=math.sqrt(inner_l2(f, f)), beta=lift.beta)


def map_L(u0, config, lift, basis, *, tensors, m_radius=None):
    """The period map: state at t = T of the solve from u0 (a row per start of a stack).

    Warns (BallExit) when the h1-ball gate of `check_h1_bound` finds the
    trajectory outside the ball of radius m_radius; the warning is that
    gate's line.
    """
    traj = solve(config, u0, lift, basis, tensors=tensors)
    if m_radius is not None:
        ball = check_h1_bound(traj, m_radius).gate
        if not ball.passed:
            warnings.warn(BallExit(ball.line()))
    return traj.state(traj.n_steps)


@dataclasses.dataclass
class ContractionReport:
    ratios: list
    envelope: float

    def gates(self, tol_contr=CONTRACTION_TOL):
        # no ratio (every pair degenerate) measures nothing, so it cannot pass
        return [Gate("contraction-ratio", max(self.ratios) if self.ratios else math.nan,
                     self.envelope * (1.0 + tol_contr))]

    def passed(self, tol_contr=CONTRACTION_TOL):
        return all(g.passed for g in self.gates(tol_contr))


def measure_contraction(config, lift, basis, pairs=5, seed=0, *, budget, tensors):
    """Worst V-norm contraction ratio of the period map over seeded pairs.

    Draws `pairs` independent pairs of coefficient states in the ball
    B_M (uniform direction, radius up to M), applies the period map to
    both, and reports max ||L u0 - L y0|| / ||u0 - y0||.  The envelope
    the caller compares against is exp(-nu T).  Refuses to run
    (RegimeViolation) when a budget gate fails, since the contraction
    claim is only made in the small regime.
    """
    require(*budget.gates())
    lam = basis.eigenvalues
    rng = np.random.default_rng(seed)
    starts = np.empty((2 * pairs, len(lam)))
    for c in starts:  # draws only: the pairs are mapped as one stack below
        c[:] = rng.standard_normal(len(lam))
        c *= budget.m_radius * rng.uniform(0.2, 1.0) / vnorm(c, lam)
    ends = map_L(GalerkinState(0.0, starts), config, lift, basis, tensors=tensors,
                 m_radius=budget.m_radius).c
    ratios = []
    for u0, y0, lu, ly in zip(starts[::2], starts[1::2], ends[::2], ends[1::2]):
        d0 = vnorm(u0 - y0, lam)
        if d0 > 0.0:  # a degenerate draw's ratio 0 is excluded from the max
            ratios.append(vnorm(lu - ly, lam) / d0)
    return ContractionReport(ratios=ratios, envelope=math.exp(-config.nu * config.T))


def find_reproductive(config, lift, basis, u0_init=None, tol=1e-10,
                      max_iter=None, *, tensors, m_radius=None):
    """Picard iteration on the period map to the reproductive datum.

    Iterates u_{k+1} = L(u_k) from u0_init (default 0, i.e. the flow is
    started at the lift itself) until the V-norm residual
    ||L(u_k) - u_k|| drops below tol.  The default iteration cap is the
    geometric-series prediction ceil(ln(r0/tol)/(nu T)) + 2; a cap
    violation raises NonConvergence with the residual history attached,
    which in-budget indicates a genuine regime problem.

    On success the returned report carries the fixed point and
    `l2_closure`, the Euclidean norm of the last Picard step's
    coefficient difference L(u_k) - u_k.  The basis is L2-orthonormal,
    so that equals ||v(T) - v(0)|| in L2 for the flow started at u_k;
    no further solve is made.
    """
    lam = basis.eigenvalues
    u = GalerkinState(0.0, np.zeros(len(lam)) if u0_init is None else u0_init.c.copy())

    residuals = []
    cap = max_iter
    while True:
        image = map_L(u, config, lift, basis, tensors=tensors, m_radius=m_radius)
        r = vnorm(image.c - u.c, lam)
        residuals.append(r)
        if r <= tol:
            return FixedPointReport(residuals=residuals, converged=True, state=u,
                                    tol=tol, envelope=math.exp(-config.nu * config.T),
                                    l2_closure=float(np.linalg.norm(image.c - u.c)),
                                    v0=basis.combine(u.c) + lift.G_eps)
        if cap is None:
            # geometric-series cap from the measured first residual
            cap = math.ceil(math.log(r / tol) / (config.nu * config.T)) + 2
        if len(residuals) >= cap:
            raise NonConvergence(
                f"Picard iteration did not reach tol = {tol:.1e} within "
                f"{len(residuals)} iterations (last residual {r:.3e})", residuals)
        u = GalerkinState(0.0, image.c.copy())

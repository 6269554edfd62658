"""Executable monitors for the solver's a priori estimates.

Each monitor replays a finished trajectory (or runs a controlled pair of
trajectories) and checks a discrete inequality:

* energy:    forward difference of |u|^2 plus half the dissipation vs
             the forcing term, with an additive O(dt) slack,
* H1 ball:   sup_t ||u(t)|| against a caller-supplied radius,
* stability: decay of the difference of two runs against the exp(-nu t)
             envelope,
* tensors:   each coefficient form the solver steps (lambda, B, D, E, F)
             against the field form it stands for, recomputed with the
             grid operators from two fixed coefficient states.

Monitors are pure over their trajectory inputs: same trajectory, same
report.  Each verdict is a named `Gate`, a value against its bound, and
each tolerance is a constant beside the check that owns it.  A smallness
precondition is a gate too: when one fails the monitor refuses to judge
(`require` raises RegimeViolation carrying the failed gates) instead of
reporting a failure, because outside the regime the inequality is simply
not claimed.
"""

import dataclasses

import numpy as np

from .fields import inner_l2, trilinear
from .galerkin import GalerkinState, quadratic_term, solve, vnorm
from .gates import Gate, RegimeViolation, require
from .stokes import apply_stokes

ENERGY_TOL = 1e-8
AUDIT_TOL = 1e-12
STABILITY_TOL = 0.05  # share by which ||z|| may outgrow its exp(-nu t) envelope
MONOTONE_ROUNDING = 1e-15  # rounding allowed on a step's growth of ||z||, relative to max(||z(0)||, 1)


@dataclasses.dataclass
class InequalityReport:
    """Per-step record of one monitored inequality lhs <= rhs."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float

    @property
    def violations(self):
        return self.lhs - self.rhs

    @property
    def gate(self):
        """Worst signed violation (NaN if a step is not finite) within tol."""
        v = self.violations
        return Gate(self.name, float(v.max()) if np.isfinite(v).all() else np.nan, self.tol)

    @property
    def passed(self):
        return self.gate.passed


@dataclasses.dataclass
class StabilityReport:
    times: np.ndarray
    z_norms: np.ndarray
    envelope: np.ndarray
    ratios: np.ndarray

    def gates(self, tol_stab=STABILITY_TOL):
        """Ratio within 1 + tol_stab (NaN when z(0) = 0), ||z|| non-increasing."""
        z0 = float(self.z_norms[0])
        return [Gate("stability-ratio", float(self.ratios.max()) if z0 > 0 else np.nan,
                     1.0 + tol_stab),
                Gate("stability-monotone", float(np.diff(self.z_norms).max()),
                     MONOTONE_ROUNDING * max(z0, 1.0))]

    def passed(self, tol_stab=STABILITY_TOL):
        return all(g.passed for g in self.gates(tol_stab))


def poincare_constant(basis):
    """Sharp discrete Poincare constant: |u| <= C ||u|| with C = 1/sqrt(lam_1)."""
    return 1.0 / np.sqrt(float(basis.eigenvalues[0]))


def check_energy_inequality(traj, nu, c_omega, beta, kappa=0.0):
    """Per-step energy balance monitor.

    Checks, for every step n,

        (|u_{n+1}|^2 - |u_n|^2)/dt + (nu/2) ||u_{n+1}||^2
            <= (1/(nu c_omega^2)) |f_{n+1}|^2 + ENERGY_TOL + kappa*dt .

    `beta` is the run's lift-smallness number, required: the estimate is
    only derived for beta <= nu/4 (the lift-smallness gate), so a larger
    or NaN beta raises RegimeViolation rather than judging the run.
    `kappa` is the dt-slack rate from `calibrate_slack` (zero is
    legitimate for comfortably non-tight runs).
    """
    require(Gate("lift-smallness", beta, 0.25 * nu))
    dt = traj.dt
    l2, h1, fsq = traj.l2sq, traj.h1sq, traj.f_l2sq
    lhs = (l2[1:] - l2[:-1]) / dt + 0.5 * nu * h1[1:]
    rhs = fsq[1:] / (nu * c_omega**2)
    return InequalityReport("energy", lhs, rhs, ENERGY_TOL + kappa * dt)


def calibrate_slack(config, u0, lift, basis, tensors):
    """Slack rate kappa for the energy monitor from a dt-halving pair.

    Runs the configured solve at dt and dt/2, takes the worst signed
    violation `check_energy_inequality` reports for each, and attributes
    the difference to the O(dt) discretization of the time derivative:

        kappa = max(0, (viol(dt) - viol(dt/2)) / (dt - dt/2)).

    The monitor judges the lift's beta, so data outside the small-data
    regime raises RegimeViolation instead of calibrating a slack.
    """
    c_omega = poincare_constant(basis)

    def worst(cfg):
        traj = solve(cfg, GalerkinState(0.0, u0.c.copy()), lift, basis,
                     tensors=tensors)
        return check_energy_inequality(traj, config.nu, c_omega, lift.beta).gate.value

    fine = dataclasses.replace(config, dt=config.dt / 2)
    v_coarse = worst(config)
    v_fine = worst(fine)
    kappa = (v_coarse - v_fine) / (config.dt - fine.dt)
    return max(kappa, 0.0)


def check_h1_bound(traj, m_radius):
    """Report-only invariant-ball monitor: sup_t ||u(t)|| <= m_radius.

    A failure outside the smallness regime is a regime exit, not a
    solver bug; lhs[0], the initial datum's norm (every row of a stack),
    tells whether it started inside the ball, so the two cases can be told apart.
    """
    sup = np.sqrt(traj.h1sq)
    return InequalityReport("h1-ball", sup, np.full_like(sup, m_radius), 0.0)


def check_tensors(tensors, basis, lift):
    """Audit the coefficient tensors against the grid operators they stand for.

    Draws two coefficient states c and d from a fixed seed, builds
    u_c = sum_j c_j w_j and u_d, and compares each coefficient form the
    solver steps with its field form:

        sum_j lam_j c_j^2            vs  (A u_c, u_c),  A = apply_stokes
        sum B[i, l, j] c_i c_l d_j   vs  b(u_c, u_c, u_d)
        c . D d                      vs  b(u_c, G, u_d)
        c . E d                      vs  b(G, u_c, u_d)
        c . F                        vs  (u_c, f)

    The B form is `galerkin.quadratic_term`, the step kernel's own, so B
    is read through the pair-packed W the step uses.  Each deviation is
    divided by the larger of the field value and the coefficient form
    taken in absolute values (|c|^T |M| |d|, for B from B itself), so a draw
    whose term happens to be near 0 cannot fail and a zeroed tensor reads
    1; two exact zeros (D, E and F of the zero lift) read 0.  B drops out
    of the energy balance by skew symmetry, so the energy monitor cannot
    see a defect there; this audit does.
    """
    m = len(tensors.lam)
    rng = np.random.default_rng(0)
    c, d = rng.standard_normal(m), rng.standard_normal(m)
    ac, ad = np.abs(c), np.abs(d)
    uc, ud = basis.combine(c), basis.combine(d)
    g = lift.G_eps
    terms = [
        ("lam", (c * tensors.lam) @ c, (ac * np.abs(tensors.lam)) @ ac,
         inner_l2(apply_stokes(uc), uc)),
        ("B", quadratic_term(c, tensors)[0] @ d,
         ac @ (ac @ np.abs(tensors.B).reshape(m, m * m)).reshape(m, m) @ ad,
         trilinear(uc, uc, ud)),
        ("D", c @ tensors.D @ d, ac @ np.abs(tensors.D) @ ad, trilinear(uc, g, ud)),
        ("E", c @ tensors.E @ d, ac @ np.abs(tensors.E) @ ad, trilinear(g, uc, ud)),
        ("F", c @ tensors.F, ac @ np.abs(tensors.F), inner_l2(uc, lift.f_eps)),
    ]
    devs = []
    for _, coef, size, field in terms:
        scale = max(size, abs(field))
        devs.append(abs(coef - field) / scale if scale > 0 else 0.0)
    devs = np.array(devs)
    return InequalityReport("tensor-audit", devs, np.zeros_like(devs), AUDIT_TOL)


def stability_experiment(config, v0, w0, lift, basis, *, tensors, m_radius):
    """Decay of the difference of two runs against the exp(-nu t) envelope.

    Solves from both initial coefficient states as one stacked pair, forms
    z_n = c_v(n) - c_w(n), and reports the worst ratio of ||z(t_n)||
    (V-norm) to ||z(0)|| exp(-nu t_n), plus whether the norm sequence is
    monotone non-increasing.  The ratio is 0 wherever the envelope is,
    so identical states are reported with ratio 0 rather than 0/0.  A run
    leaving the ball of radius m_radius (the h1-ball gate of
    `check_h1_bound`) is a RegimeViolation.
    """
    traj = solve(config, GalerkinState(0.0, np.stack([v0.c, w0.c])), lift, basis,
                 tensors=tensors)
    require(check_h1_bound(traj, m_radius).gate)

    z_norms = vnorm(traj.coeffs[:, 0] - traj.coeffs[:, 1], traj.lam)
    envelope = z_norms[0] * np.exp(-config.nu * traj.times)
    ratios = np.divide(z_norms, envelope, out=np.zeros_like(z_norms),
                       where=envelope > 0)
    return StabilityReport(times=traj.times, z_norms=z_norms, envelope=envelope,
                           ratios=ratios)

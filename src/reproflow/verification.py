"""Executable monitors for the solver's a priori estimates.

Each monitor replays a finished trajectory (or runs a controlled pair of
trajectories) and checks a discrete inequality:

* energy:    forward difference of |u|^2 plus half the dissipation vs
             the forcing term, with an additive O(dt) slack,
* H1 ball:   sup_t ||u(t)|| against a caller-supplied radius,
* stability: decay of the difference of two runs against the exp(-nu t)
             envelope,
* uniqueness probe: determinism of the full pipeline, plus conditioning
             of the final state under tiny perturbations of the datum.

Monitors are pure over their trajectory inputs: same trajectory, same
report.  When a smallness precondition fails the monitor refuses to
judge (RegimeViolation) instead of reporting a failure, because outside
the regime the inequality is simply not claimed.
"""

import dataclasses

import numpy as np

from .galerkin import GalerkinState, assemble_tensors, solve

ENERGY_TOL = 1e-8


class RegimeViolation(RuntimeError):
    """A monitor's smallness precondition does not hold for this run."""


@dataclasses.dataclass
class InequalityReport:
    """Per-step record of one monitored inequality lhs <= rhs."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float
    regime: dict

    @property
    def violations(self):
        return self.lhs - self.rhs

    @property
    def max_violation(self):
        """Signed worst margin; negative means the inequality held."""
        return float(self.violations.max()) if self.violations.size else 0.0

    @property
    def passed(self):
        return bool(np.isfinite(self.violations).all()) and self.max_violation <= self.tol

    def lines(self):
        status = "pass" if self.passed else "FAIL"
        out = [f"{status}  {self.name}: max violation {self.max_violation:+.3e} "
               f"(tol {self.tol:.1e})"]
        for key, val in self.regime.items():
            out.append(f"      regime {key}: {val}")
        return out


@dataclasses.dataclass
class StabilityReport:
    times: np.ndarray
    z_norms: np.ndarray
    envelope: np.ndarray
    max_ratio: float
    monotone: bool

    def passed(self, tol_stab=0.05):
        return self.max_ratio <= 1.0 + tol_stab and self.monotone


def poincare_constant(basis):
    """Sharp discrete Poincare constant: |u| <= C ||u|| with C = 1/sqrt(lam_1)."""
    return 1.0 / np.sqrt(float(basis.eigenvalues[0]))


def check_energy_inequality(traj, nu, c_omega, beta=0.0, kappa=0.0, tol=ENERGY_TOL):
    """Per-step energy balance monitor.

    Checks, for every step n,

        (|u_{n+1}|^2 - |u_n|^2)/dt + (nu/2) ||u_{n+1}||^2
            <= (1/(nu c_omega^2)) |f_{n+1}|^2 + tol + kappa*dt .

    `beta` is the run's lift-smallness number; the estimate is only
    derived for beta <= nu/4, so larger values raise RegimeViolation
    rather than judging the run.  `kappa` is the dt-slack rate from
    `calibrate_slack` (zero is legitimate for comfortably non-tight
    runs).
    """
    if beta > 0.25 * nu:
        raise RegimeViolation(
            f"lift smallness beta = {beta:.3e} exceeds nu/4 = {0.25 * nu:.3e}; "
            f"the energy estimate is not claimed in this regime")
    dt = traj.dt
    l2, h1, fsq = traj.l2sq, traj.h1sq, traj.f_l2sq
    lhs = (l2[1:] - l2[:-1]) / dt + 0.5 * nu * h1[1:]
    rhs = fsq[1:] / (nu * c_omega**2)
    return InequalityReport("energy", lhs, rhs, tol + kappa * dt,
                            regime={"beta": beta, "beta_max": 0.25 * nu, "kappa": kappa})


def calibrate_slack(config, u0, lift, basis, nu=None, refine=2):
    """Slack rate kappa for the energy monitor from a dt-refinement pair.

    Runs the configured solve at dt and dt/refine, takes the worst
    signed violation `check_energy_inequality` reports for each, and
    attributes the difference to the O(dt) discretization of the time
    derivative:

        kappa = max(0, (viol(dt) - viol(dt/r)) / (dt - dt/r)).
    """
    nu = config.nu if nu is None else nu
    tensors = assemble_tensors(basis, lift, nu=config.nu)
    c_omega = poincare_constant(basis)

    def worst(cfg):
        traj = solve(cfg, GalerkinState(0.0, u0.c.copy()), lift, basis,
                     tensors=tensors)
        return check_energy_inequality(traj, nu, c_omega).max_violation

    fine = dataclasses.replace(config, dt=config.dt / refine)
    v_coarse = worst(config)
    v_fine = worst(fine)
    kappa = (v_coarse - v_fine) / (config.dt - fine.dt)
    return max(kappa, 0.0)


def check_h1_bound(traj, m_radius):
    """Report-only invariant-ball monitor: sup_t ||u(t)|| <= m_radius.

    A failure outside the smallness regime is a regime exit, not a
    solver bug; the report records whether even the initial datum was
    inside the ball so the two cases can be told apart.
    """
    sup = np.sqrt(traj.h1sq)
    return InequalityReport("h1-ball", sup, np.full_like(sup, m_radius), 0.0,
                            regime={"initial_in_ball": bool(sup[0] <= m_radius),
                                    "sup_vnorm": float(sup.max()),
                                    "m_radius": float(m_radius)})


def rate_identity_residual(traj, where="midpoint"):
    """Residual of the discrete rate identity for ||u||^2.

    With the midpoint average the identity

        (||u_{n+1}||^2 - ||u_n||^2)/dt = 2 (dc/dt, lam * cbar)

    is exact algebra (it is the difference of squares), so the residual
    is rounding only; with left-endpoint evaluation it is O(dt).
    Returns the max absolute residual over the steps.
    """
    lam, c, dt = traj.lam, traj.coeffs, traj.dt
    dsq = (c[1:] ** 2 - c[:-1] ** 2) @ lam / dt
    dc = (c[1:] - c[:-1]) / dt
    at = 0.5 * (c[1:] + c[:-1]) if where == "midpoint" else c[:-1]
    pair = 2.0 * ((dc * at) @ lam)
    return float(np.abs(dsq - pair).max())


def stability_experiment(config, v0, w0, lift, basis, tensors=None, m_radius=None):
    """Decay of the difference of two runs against the exp(-nu t) envelope.

    Solves from both initial coefficient states under the identical
    configuration, forms z_n = c_v(n) - c_w(n), and reports the worst
    ratio of ||z(t_n)|| (V-norm) to ||z(0)|| exp(-nu t_n), plus whether
    the norm sequence is monotone non-increasing.  Identical states are
    reported with ratio 0 rather than 0/0.
    """
    if tensors is None:
        tensors = assemble_tensors(basis, lift, nu=config.nu)
    ta = solve(config, GalerkinState(0.0, v0.c.copy()), lift, basis, tensors=tensors)
    tb = solve(config, GalerkinState(0.0, w0.c.copy()), lift, basis, tensors=tensors)

    if m_radius is not None:
        sup = np.sqrt(max(ta.h1sq.max(), tb.h1sq.max()))
        if sup > m_radius:
            raise RegimeViolation(
                f"sup ||u|| = {sup:.3e} leaves the smallness ball {m_radius:.3e}")

    z = ta.coeffs - tb.coeffs
    z_norms = np.sqrt((z**2) @ ta.lam)
    envelope = z_norms[0] * np.exp(-config.nu * ta.times)
    if z_norms[0] == 0.0:
        ratios = np.zeros_like(z_norms)
    else:
        ratios = z_norms / envelope
    mono = bool(np.all(np.diff(z_norms) <= 1e-15 * max(z_norms[0], 1.0)))
    return StabilityReport(times=ta.times, z_norms=z_norms, envelope=envelope,
                           max_ratio=float(ratios.max()), monotone=mono)


def uniqueness_probe(config, u0, lift, basis):
    """Determinism probe: two fresh identical solves, bit-identical output."""
    runs = []
    for _ in range(2):
        tensors = assemble_tensors(basis, lift, nu=config.nu)
        traj = solve(config, GalerkinState(0.0, u0.c.copy()), lift, basis,
                     tensors=tensors)
        runs.append(traj.coeffs)
    return bool(np.array_equal(runs[0], runs[1]))

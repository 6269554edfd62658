"""Monitors for the a priori estimates: energy, invariant ball, stability,
and the audit of the coefficient tensors against the grid operators.

Each monitor either judges a trajectory against its inequality or
declines with RegimeViolation when the smallness precondition fails —
it must never silently judge out-of-regime data.
"""

import dataclasses

import numpy as np
import pytest

from reproflow import verification
from reproflow.cli import SCHEMA
from reproflow.galerkin import (
    GalerkinState, SolverConfig, assemble_tensors, solve, vnorm,
)
from reproflow.verification import (
    AUDIT_TOL,
    Gate,
    InequalityReport,
    RegimeViolation,
    calibrate_slack,
    check_energy_inequality,
    check_h1_bound,
    check_tensors,
    poincare_constant,
    stability_experiment,
)

from .conftest import build_zero_lift


@pytest.fixture(scope="module")
def bump_traj(config32, lift32, basis32, tensors32):
    return solve(config32, GalerkinState(0.0, np.zeros(8)), lift32, basis32,
                 tensors=tensors32)


def test_gate_verdicts():
    assert Gate("g", 1.0, 1.0).passed and not Gate("g", 1.0, 1.0, "<").passed
    assert Gate("g", 0.5, 1.0, "<").passed and not Gate("g", 1.5, 1.0).passed
    for value in (np.nan, np.inf, -np.inf):
        assert not Gate("g", value, 1.0).passed
    gate = Gate("g", 0.25, 1.0)
    assert gate.margin == 0.75
    assert gate.line() == "pass  g: +2.500e-01 <= 1.000e+00 (margin +7.500e-01)"
    # a step that is not finite fails even where the worst finite one holds
    report = InequalityReport("x", np.array([-np.inf, -1.0]), np.zeros(2), 0.0)
    assert np.isnan(report.gate.value) and not report.passed


def test_poincare_constant(basis48):
    c = poincare_constant(basis48)
    assert c == pytest.approx(0.1383264679, rel=1e-8)
    assert c == pytest.approx(1.0 / np.sqrt(basis48.eigenvalues[0]), abs=0)


def test_energy_inequality_on_decaying_vortices(basis48):
    cfg = SolverConfig(nu=0.1, T=0.1, dt=1e-3, m=32, nx=48)
    c0 = np.random.default_rng(0).standard_normal(32)
    c0 *= 0.2 / vnorm(c0, basis48.eigenvalues)
    traj = solve(cfg, GalerkinState(0.0, c0), build_zero_lift(basis48.grid, nu=cfg.nu),
                 basis48)
    report = check_energy_inequality(traj, cfg.nu, poincare_constant(basis48))
    print(report.gate.line())
    assert report.passed
    # no forcing: d|u|^2/dt = -2 nu ||u||^2, so the lhs is close to
    # -1.5 nu ||u_{n+1}||^2 at every step
    worst = float((report.lhs / (cfg.nu * traj.h1sq[1:])).max())
    print(f"worst lhs / (nu ||u_(n+1)||^2) = {worst:.4f} (gate -1.4)")
    assert worst <= -1.4


def test_energy_inequality_on_bump_run(bump_traj, basis32, lift32):
    report = check_energy_inequality(bump_traj, 1.0, poincare_constant(basis32),
                                     beta=lift32.beta, kappa=5.737261e-4)
    print(report.gate.line())
    assert report.passed
    assert report.gate.value < 0.0


def test_zero_data_violations_are_exactly_zero(config32, basis32, zero_lift32):
    traj = solve(config32, GalerkinState(0.0, np.zeros(8)), zero_lift32, basis32)
    report = check_energy_inequality(traj, config32.nu,
                                     poincare_constant(basis32))
    assert report.gate.value == 0.0
    assert np.all(report.lhs == 0.0) and np.all(report.rhs == 0.0)


@pytest.mark.parametrize("beta", [0.1, np.nan])
def test_beta_gate_refuses_to_judge(bump_traj, basis32, beta):
    # beta above nu/4 is out of regime, and a NaN beta passes no gate
    with pytest.raises(RegimeViolation) as refused:
        check_energy_inequality(bump_traj, 0.1, poincare_constant(basis32),
                                beta=beta)
    [gate] = refused.value.gates
    assert gate.name == "lift-smallness" and gate.bound == 0.25 * 0.1
    assert str(refused.value) == gate.line()


def test_h1_ball_monitor(bump_traj):
    ok = check_h1_bound(bump_traj, m_radius=0.05)
    assert ok.passed and np.all(ok.lhs[0] <= 0.05)

    tight = check_h1_bound(bump_traj, m_radius=1e-9)
    assert not tight.passed
    assert np.all(tight.lhs[0] <= 1e-9)  # started at zero, exited later
    assert tight.lhs.max() > 1e-9


def test_h1_ball_monitor_on_a_stack(config32, lift32, basis32, tensors32):
    # row 0 starts at rest, row 1 at V-norm 0.02; each row is judged
    c = np.zeros((2, 8))
    c[1] = np.random.default_rng(4).standard_normal(8)
    c[1] *= 0.02 / vnorm(c[1], basis32.eigenvalues)
    traj = solve(config32, GalerkinState(0.0, c), lift32, basis32, tensors=tensors32)
    ok = check_h1_bound(traj, m_radius=0.05)
    assert ok.passed and np.all(ok.lhs[0] <= 0.05)

    tight = check_h1_bound(traj, m_radius=0.01)
    assert not tight.passed
    assert not np.all(tight.lhs[0] <= 0.01)  # row 1 starts outside
    assert tight.lhs.max() == pytest.approx(0.02, rel=1e-12)


def test_calibrate_slack_nonnegative(config32, lift32, basis32, tensors32):
    kappa = calibrate_slack(config32, GalerkinState(0.0, np.zeros(8)),
                            lift32, basis32, tensors32)
    print(f"calibrated slack rate kappa = {kappa:.6e}")
    assert 0.0 <= kappa < 1.0
    # pinned, so that a change to the energy formula shows here
    assert kappa == pytest.approx(6.30530855971756e-4, rel=1e-14, abs=0)


def test_kappa_default_is_the_calibrated_rate(basis48, lift48, tensors48):
    # the calibration of verify.kappa: the standard fixture, T = 0.5, from
    # the last of the three rng(11) draws at V-norm 0.05 whose ball the
    # budget fixture test in test_reproductive.py checks
    draws = np.random.default_rng(11).standard_normal((3, 32))
    draws *= 0.05 / vnorm(draws, basis48.eigenvalues)[:, None]
    cfg = SolverConfig(nu=1.0, T=0.5, dt=1e-3, m=32, nx=48)
    kappa = calibrate_slack(cfg, GalerkinState(0.0, draws[-1]), lift48, basis48,
                            tensors48)
    print(f"calibrated kappa {kappa:.8e}, default {SCHEMA['verify']['kappa'][0]:.8e}")
    assert SCHEMA["verify"]["kappa"][0] == pytest.approx(kappa, rel=1e-6)


def test_stability_decay(config32, lift32, basis32, tensors32):
    rng = np.random.default_rng(5)
    z = rng.standard_normal(8)
    z *= 1e-4 / np.sqrt((z**2) @ basis32.eigenvalues)
    v0 = GalerkinState(0.0, np.zeros(8))
    w0 = GalerkinState(0.0, z)
    rep = stability_experiment(config32, v0, w0, lift32, basis32,
                               tensors=tensors32, m_radius=0.05)
    ratio, monotone = rep.gates()
    print(f"{ratio.line()}; {monotone.line()}; "
          f"z: {rep.z_norms[0]:.3e} -> {rep.z_norms[-1]:.3e}")
    assert rep.passed(0.05)
    assert monotone.passed
    assert rep.z_norms[-1] < rep.z_norms[0]
    assert np.array_equal(rep.ratios, rep.z_norms / rep.envelope)


def test_stability_is_one_stacked_solve(monkeypatch, config32, lift32, basis32,
                                        tensors32):
    rng = np.random.default_rng(9)
    c = rng.standard_normal((2, 8))
    c *= 0.02 / np.sqrt((c**2) @ basis32.eigenvalues)[:, None]
    v0, w0 = GalerkinState(0.0, c[0]), GalerkinState(0.0, c[1])
    # the two single solves the stacked pair replaced
    ta, tb = (solve(config32, GalerkinState(0.0, s.c.copy()), lift32, basis32,
                    tensors=tensors32) for s in (v0, w0))
    want = vnorm(ta.coeffs - tb.coeffs, basis32.eigenvalues)
    calls = []

    def counting(config, u0, *args, **kwargs):
        calls.append(u0.c.shape)
        return solve(config, u0, *args, **kwargs)

    monkeypatch.setattr(verification, "solve", counting)
    rep = stability_experiment(config32, v0, w0, lift32, basis32, tensors=tensors32,
                               m_radius=0.05)
    assert calls == [(2, 8)]
    assert np.array_equal(rep.z_norms, want)
    assert np.array_equal(rep.times, ta.times)


def test_stability_identical_states(config32, lift32, basis32, tensors32):
    # z(0) = 0 is reported with ratio 0, not 0/0, but a pair that measures
    # nothing must not pass the ratio gate, as a contraction sample with no
    # ratio does not
    v0 = GalerkinState(0.0, np.zeros(8))
    rep = stability_experiment(config32, v0, v0.copy(), lift32, basis32,
                               tensors=tensors32, m_radius=0.05)
    assert not rep.ratios.any()
    ratio, monotone = rep.gates()
    assert np.isnan(ratio.value) and not ratio.passed
    assert monotone.passed
    assert not rep.passed()


def test_stability_ball_exit_is_regime_violation(config32, lift32, basis32,
                                                 tensors32):
    rng = np.random.default_rng(6)
    z = rng.standard_normal(8)
    z *= 1e-3 / np.sqrt((z**2) @ basis32.eigenvalues)
    with pytest.raises(RegimeViolation):
        stability_experiment(config32, GalerkinState(0.0, np.zeros(8)),
                             GalerkinState(0.0, z), lift32, basis32,
                             tensors=tensors32, m_radius=1e-6)


def test_tiny_perturbation_stays_tiny(config32, lift32, basis32, tensors32):
    c0 = np.zeros(8)
    c1 = c0.copy()
    c1[0] += 1e-12
    ta = solve(config32, GalerkinState(0.0, c0), lift32, basis32,
               tensors=tensors32)
    tb = solve(config32, GalerkinState(0.0, c1), lift32, basis32,
               tensors=tensors32)
    diff = np.abs(ta.coeffs[-1] - tb.coeffs[-1]).max()
    print(f"final separation from a 1e-12 kick: {diff:.3e}")
    assert diff <= 1e-9


def test_energy_monitor_catches_injected_violation(bump_traj, basis32, lift32):
    # corrupt one state hard enough that the jump outruns the |f|^2 term:
    # the bump forcing grants the balance a right-hand side near 17, so a
    # kick on a |c|^2 ~ 5e-7 state must add factors of ~1e6 to break it
    bad = dataclasses.replace(bump_traj, coeffs=bump_traj.coeffs.copy())
    bad.coeffs[100] *= 1000.0
    report = check_energy_inequality(bad, 1.0, poincare_constant(basis32),
                                     beta=lift32.beta)
    assert not report.passed
    assert report.gate.value > 0.0
    assert int(np.argmax(report.violations)) == 99


# planted defects, each a change the energy monitor cannot see or that
# it sees only as a shifted balance: B x 10 is energy-neutral (B is skew
# in its last two indices), the others move terms the audit recomputes
DEFECTS = {
    "B*10": lambda t: {"B": 10.0 * t.B},
    "lam*0.5": lambda t: {"lam": 0.5 * t.lam},
    "F*2": lambda t: {"F": 2.0 * t.F},
    "D=E=0": lambda t: {"D": np.zeros_like(t.D), "E": np.zeros_like(t.E)},
}


def _double_w_diagonal(tensors):
    # the pair-packed W with its diagonal rows built as B[i, i] + B[i, i]: B
    # itself stays clean, so only an audit that reads W can see it
    bad = dataclasses.replace(tensors)
    ia, il = bad.pairs
    bad.W[ia == il] *= 2.0
    return bad


@pytest.mark.parametrize("case", ["clean_square48_bump", "clean_square48_no_lift",
                                  "clean_square48_m64", *DEFECTS, "W_diagonal*2",
                                  "W_diagonal*2_m32"])
def test_tensor_audit(case, basis48, lift48, zero_lift48, tensors48, basis48_64,
                      tensors48_64):
    if case == "clean_square48_no_lift":
        basis, lift, tensors = basis48, zero_lift48, assemble_tensors(basis48, zero_lift48)
    elif case in ("clean_square48_m64", "W_diagonal*2"):
        basis, lift, tensors = basis48_64, lift48, tensors48_64
    else:
        basis, lift, tensors = basis48, lift48, tensors48
    if case in DEFECTS:
        tensors = dataclasses.replace(tensors, **DEFECTS[case](tensors))
    if case.startswith("W_diagonal*2"):
        tensors = _double_w_diagonal(tensors)
    report = check_tensors(tensors, basis, lift)
    print(report.gate.line())
    print("deviations of lam, B, D, E, F:", report.lhs)
    assert report.lhs.shape == (5,)
    if case in DEFECTS or case.startswith("W_diagonal*2"):
        assert not report.passed
        assert report.gate.value > 1e6 * AUDIT_TOL
    else:
        assert report.passed

"""The solution map L(u0) = u(T), its contraction, and the fixed point."""

import warnings

import numpy as np
import pytest

from reproflow import reproductive
from reproflow.galerkin import (
    GalerkinState,
    SolverConfig,
    Tensors,
    assemble_tensors,
    solve,
    vnorm,
)
from reproflow.reproductive import (
    ALPHA,
    K_FORCE,
    M_RADIUS,
    BallExit,
    NonConvergence,
    SmallnessBudget,
    boundary_norm_proxy,
    find_reproductive,
    map_L,
    measure_contraction,
    validate_budget,
)
from reproflow.stokes import compute_eigenbasis
from reproflow.verification import RegimeViolation, check_h1_bound

from .conftest import BUMP_AMP


def test_boundary_norm_proxy_frozen(bump48):
    g = boundary_norm_proxy(bump48)
    print(f"wall-data norm proxy at amplitude {BUMP_AMP}: {g:.8e}")
    assert g == pytest.approx(3.50480501e-2, rel=1e-6)


def test_budget_measurements_and_satisfaction(bump48, lift48):
    budget = validate_budget(bump48, lift48, nu=1.0)
    gates = budget.gates()
    for gate in gates:
        print(gate.line())
    assert [g.name for g in gates] == ["wall-data-norm", "forcing-norm"]
    assert all(g.passed for g in gates)
    assert budget.m_radius == M_RADIUS
    assert budget.g_norm == pytest.approx(3.50480501e-2, rel=1e-6)
    assert budget.f_norm == pytest.approx(9.69904179e-1, rel=1e-6)
    assert lift48.beta == pytest.approx(1.61254578e-3, rel=1e-6)


def test_default_budget_fixture_holds_at_the_standard_fixture(config48, bump48, lift48,
                                                              basis48, tensors48):
    # three rng(11) starts of V-norm 0.05, as one stack, stay in the ball M
    lam = basis48.eigenvalues
    draws = np.random.default_rng(11).standard_normal((3, lam.size))
    draws *= 0.05 / vnorm(draws, lam)[:, None]
    traj = solve(config48, GalerkinState(0.0, draws), lift48, basis48, tensors=tensors48)
    ball = check_h1_bound(traj, M_RADIUS)
    # ALPHA and K_FORCE over the measured norms that
    # test_budget_measurements_and_satisfaction pins
    budget = validate_budget(bump48, lift48, nu=1.0)
    headroom = (ALPHA / budget.g_norm, K_FORCE / budget.f_norm)
    print(f"sup V-norm after t = 0: {ball.lhs[1:].max():.4e}; "
          f"ALPHA and K_FORCE headroom {headroom[0]:.3f}x, {headroom[1]:.3f}x")
    assert ball.passed and np.all(ball.lhs[0] <= budget.m_radius), ball.gate.line()
    assert all(1.4 <= h <= 1.6 for h in headroom)


def test_budget_rejects_loud_data(square48):
    from reproflow.lift import boundary_profile, build_lift

    g = boundary_profile(square48, "bottom_bump", amplitude=5.0)
    lift = build_lift(g, 0.4, square48)
    budget = validate_budget(g, lift, nu=1.0)
    assert not any(gate.passed for gate in budget.gates())


def test_map_l_matches_linear_decay(basis32, zero_lift32):
    # with the quadratic and coupling tensors removed, the period map is
    # mode-wise e^(-nu lam T) exactly; this pins the endpoint wiring.
    # (With the quadratic term on, low-mode products leak ~e^(-2 lam_1 T)
    # into deep modes whose own content is far below that — a relative
    # mode-wise comparison would measure the leak, not the map.)
    cfg = SolverConfig(nu=1.0, T=1.0, dt=1e-3, m=6, epsilon=0.4, nx=32)
    basis6 = basis32.truncate(6)
    lam = basis6.eigenvalues
    linear = Tensors(B=np.zeros((6, 6, 6)), D=np.zeros((6, 6)),
                     E=np.zeros((6, 6)), F=np.zeros(6), lam=lam)
    c0 = 1e-6 * np.ones(6)
    out = map_L(GalerkinState(0.0, c0), cfg, zero_lift32, basis6, tensors=linear,
                m_radius=M_RADIUS)
    want = c0 * np.exp(-lam * 1.0)
    rel = np.abs(out.c / want - 1.0).max()
    print(f"map_L linear-decay relative deviation {rel:.3e}")
    assert rel <= 1e-10


def test_map_l_fixes_zero(config32, basis32, zero_lift32):
    out = map_L(GalerkinState(0.0, np.zeros(8)), config32, zero_lift32, basis32,
                tensors=assemble_tensors(basis32, zero_lift32), m_radius=M_RADIUS)
    assert np.all(out.c == 0.0)


def test_map_l_warns_on_ball_exit(config32, lift32, basis32, tensors32):
    rng = np.random.default_rng(3)
    c = rng.standard_normal(8)
    c *= 0.01 / np.sqrt((c**2) @ basis32.eigenvalues)
    with pytest.warns(BallExit):
        map_L(GalerkinState(0.0, c), config32, lift32, basis32,
              tensors=tensors32, m_radius=1e-6)


def test_contraction_below_envelope(config32, lift32, basis32, tensors32):
    budget = validate_budget(lift32.boundary, lift32, nu=1.0)
    report = measure_contraction(config32, lift32, basis32, pairs=3, seed=1,
                                 budget=budget, tensors=tensors32)
    print(f"ratios {[f'{r:.3e}' for r in report.ratios]} "
          f"vs envelope {report.envelope:.6f}")
    assert report.envelope == pytest.approx(np.exp(-config32.nu * config32.T))
    [gate] = report.gates()
    assert gate.name == "contraction-ratio" and gate.value == max(report.ratios)
    assert gate.value <= report.envelope * 1.1
    assert report.passed(0.1)


def _sequential_contraction_ratios(config, lift, basis, pairs, seed, m_radius, tensors):
    """The pair-by-pair loop of single-state period maps the stack replaced."""
    lam = basis.eigenvalues
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(pairs):
        pair = []
        for _ in range(2):
            c = rng.standard_normal(len(lam))
            c *= m_radius * rng.uniform(0.2, 1.0) / vnorm(c, lam)
            pair.append(GalerkinState(0.0, c))
        d0 = vnorm(pair[0].c - pair[1].c, lam)
        lu, ly = (map_L(u, config, lift, basis, tensors=tensors, m_radius=m_radius)
                  for u in pair)
        ratios.append(vnorm(lu.c - ly.c, lam) / d0)
    return ratios


def test_contraction_is_one_stacked_solve(monkeypatch, config32, lift32, basis32,
                                          tensors32):
    budget = validate_budget(lift32.boundary, lift32, nu=1.0)
    want = _sequential_contraction_ratios(config32, lift32, basis32, 4, 3,
                                          budget.m_radius, tensors32)
    calls = []

    def counting(config, u0, *args, **kwargs):
        calls.append(u0.c.shape)
        return solve(config, u0, *args, **kwargs)

    monkeypatch.setattr(reproductive, "solve", counting)
    report = measure_contraction(config32, lift32, basis32, pairs=4, seed=3,
                                 budget=budget, tensors=tensors32)
    assert calls == [(8, 8)]
    assert np.array_equal(report.ratios, want)


def test_contraction_regime_gate(config32, lift32, basis32, tensors32):
    # norms past ALPHA and K_FORCE: refused, both gates listed
    bad = SmallnessBudget(M_RADIUS, g_norm=2 * ALPHA, f_norm=2 * K_FORCE)
    with pytest.raises(RegimeViolation) as refused:
        measure_contraction(config32, lift32, basis32, pairs=1, seed=0,
                            budget=bad, tensors=tensors32)
    assert [(g.name, g.bound) for g in refused.value.gates] == [
        ("wall-data-norm", ALPHA), ("forcing-norm", K_FORCE)]


def test_contraction_refuses_an_unmeasured_budget(config32, lift32, basis32, tensors32):
    # an unmeasured norm is NaN, which no gate passes
    unmeasured = SmallnessBudget(M_RADIUS)
    with pytest.raises(RegimeViolation, match=r"FAIL  wall-data-norm: \+nan") as refused:
        measure_contraction(config32, lift32, basis32, budget=unmeasured,
                            tensors=tensors32)
    assert [g.name for g in refused.value.gates] == ["wall-data-norm", "forcing-norm"]
    assert all(np.isnan(g.value) for g in refused.value.gates)


def test_find_reproductive_converges(config32, lift32, basis32, tensors32):
    report = find_reproductive(config32, lift32, basis32, tol=1e-10,
                               tensors=tensors32, m_radius=0.05)
    print(f"residuals {[f'{r:.3e}' for r in report.residuals]}, "
          f"converged in {report.n_iterations}")
    assert report.converged
    assert report.l2_closure <= 1e-9
    env = np.exp(-config32.nu * config32.T)
    assert all(r <= env * 1.1 for r in report.ratios)
    residual, ratio = report.gates()
    assert residual.value == report.residuals[-1] and residual.bound == 1e-10
    assert ratio.value == max(report.ratios)
    assert ratio.bound == pytest.approx(env * 1.1, rel=1e-15)
    assert residual.passed and ratio.passed

    # the returned datum really is reproductive: one more period closes
    traj = solve(config32, report.state.copy(), lift32, basis32,
                 tensors=tensors32)
    again = np.linalg.norm(traj.coeffs[-1] - report.state.c)
    print(f"re-verified closure {again:.3e}")
    assert again <= 1e-9
    assert report.v0 is not None


def test_reproductive_start_independence(config32, lift32, basis32, tensors32):
    rng = np.random.default_rng(8)
    c = rng.standard_normal(8)
    c *= 0.02 / np.sqrt((c**2) @ basis32.eigenvalues)
    a = find_reproductive(config32, lift32, basis32, tensors=tensors32,
                          m_radius=0.05)
    b = find_reproductive(config32, lift32, basis32,
                          u0_init=GalerkinState(0.0, c), tensors=tensors32,
                          m_radius=0.05)
    dev = np.abs(a.state.c - b.state.c).max()
    print(f"fixed point from two starts differs by {dev:.3e}")
    assert dev <= 1e-12


def test_zero_data_fixed_point_is_rest(config32, basis32, zero_lift32):
    report = find_reproductive(config32, zero_lift32, basis32,
                               tensors=assemble_tensors(basis32, zero_lift32),
                               m_radius=M_RADIUS)
    assert report.converged
    assert report.residuals == [0.0]
    assert np.all(report.state.c == 0.0)
    # no Picard ratio to judge: the ratio gate reads 0 and passes
    assert [(g.value, g.passed) for g in report.gates()] == [(0.0, True), (0.0, True)]


def test_nonconvergence_reports_partial_residuals(config32, lift32, basis32,
                                                  tensors32):
    with pytest.raises(NonConvergence) as info:
        find_reproductive(config32, lift32, basis32, tol=1e-30, max_iter=1,
                          tensors=tensors32, m_radius=0.05)
    assert len(info.value.residuals) >= 1
    assert info.value.residuals[0] > 1e-30


def _repeat_first_start(monkeypatch):
    """Make pair 0 of a contraction sample draw the same start twice."""
    default_rng = np.random.default_rng

    def repeat_first_start(seed):
        rng = default_rng(seed)
        replay = [rng.standard_normal(8), rng.uniform(0.2, 1.0)] * 2

        class Draws:
            def standard_normal(self, n):
                return replay.pop(0) if replay else rng.standard_normal(n)

            def uniform(self, lo, hi):
                return replay.pop(0) if replay else rng.uniform(lo, hi)

        return Draws()

    monkeypatch.setattr(np.random, "default_rng", repeat_first_start)


def test_contraction_skips_degenerate_draws(monkeypatch, config32, lift32, basis32,
                                            tensors32):
    # pair 0 draws the same start twice: its ratio would be 0/0, so it is left out
    _repeat_first_start(monkeypatch)
    budget = validate_budget(lift32.boundary, lift32, nu=1.0)
    report = measure_contraction(config32, lift32, basis32, pairs=3, seed=7,
                                 budget=budget, tensors=tensors32)
    assert len(report.ratios) == 2
    assert all(np.isfinite(r) and r > 0.0 for r in report.ratios)
    assert report.gates()[0].value == max(report.ratios)
    assert report.passed(0.1)


def test_contraction_of_degenerate_draws_only_fails(monkeypatch, config32, lift32,
                                                    basis32, tensors32):
    # with its one pair degenerate the sample measured nothing: no pass on 0.0
    _repeat_first_start(monkeypatch)
    budget = validate_budget(lift32.boundary, lift32, nu=1.0)
    report = measure_contraction(config32, lift32, basis32, pairs=1, seed=7,
                                 budget=budget, tensors=tensors32)
    assert report.ratios == [] and np.isnan(report.gates()[0].value)
    assert not report.passed(0.1)

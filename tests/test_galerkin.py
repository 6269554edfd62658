"""Coefficient-system assembly and time integration.

The quadrature tensors carry the structure the energy estimates lean
on — antisymmetry of the advection couplings — exactly, not to
truncation; those identities are asserted at rounding level.
"""

import dataclasses

import numpy as np
import pytest

from reproflow import galerkin
from reproflow.fields import Grid, advect, divergence, inner_l2
from reproflow.galerkin import (
    BlowupDetected,
    ConfigError,
    GalerkinState,
    SolverConfig,
    Tensors,
    assemble_tensors,
    check_dt_bound,
    explicit_dt_bound,
    quadratic_term,
    recover_pressure,
    rhs,
    solve,
    step,
    validate_config,
)
from reproflow.lift import BoundaryData, boundary_profile, build_lift
from reproflow.stokes import LerayProjector, StokesBasis, compute_eigenbasis

from .conftest import build_zero_lift


def test_validate_config_rejections():
    good = dict(nu=1.0, T=1.0, dt=1e-3, m=4, epsilon=0.4, nx=16)
    validate_config(SolverConfig(**good))
    for bad in (dict(nu=-1.0), dict(dt=0.3), dict(T=-2.0), dict(m=0),
                dict(nx=3), dict(epsilon=0.0)):
        with pytest.raises(ConfigError):
            validate_config(SolverConfig(**{**good, **bad}))


def test_advection_tensor_antisymmetry(tensors32):
    b = tensors32.B
    skew = np.abs(b + b.transpose(0, 2, 1)).max()
    print(f"max |B[i,l,j] + B[i,j,l]| = {skew:.3e}")
    assert skew == 0.0


def test_w_starts_on_a_cache_line(tensors32, basis32, lift32, sliced_tensors,
                                  tensors48_64, random_packed_7, random_packed_58):
    # the step's products run up to 1.5x slower off a 64-byte line, so W
    # may not be left where malloc happened to put it
    builds = [tensors32] + [assemble_tensors(basis32, lift32) for _ in range(4)]
    for t in (sliced_tensors, tensors48_64, random_packed_7, random_packed_58):
        builds += [t] + [dataclasses.replace(t) for _ in range(4)]
    for tensors in builds:
        assert tensors.W.ctypes.data % 64 == 0


def test_lift_coupling_antisymmetry(tensors32):
    e = tensors32.E
    skew = np.abs(e + e.T).max()
    assert skew == 0.0


def test_cubic_sum_vanishes(tensors32):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        c = rng.standard_normal(tensors32.B.shape[0])
        s = np.einsum("ilj,i,l,j->", tensors32.B, c, c, c)
        worst = max(worst, abs(s) / max(np.abs(c).max() ** 3, 1e-30))
    print(f"worst |sum B c c c| = {worst:.3e}")
    assert worst <= 1e-12


def test_energy_identity_of_rhs(tensors32):
    # c . c' = -nu ||u||^2 - (D c, c) + (F, c): B and E drop exactly
    rng = np.random.default_rng(11)
    nu = 1.0
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(tensors32.B.shape[0])
        cdot = rhs(GalerkinState(0.0, c), tensors32, nu)
        lhs = c @ cdot
        rhs_val = (-nu * (c**2) @ tensors32.lam
                   - c @ tensors32.D @ c + tensors32.F @ c)
        worst = max(worst, abs(lhs - rhs_val) / max(abs(lhs), 1e-30))
    print(f"energy identity rel residual {worst:.3e}")
    assert worst <= 1e-12


def _reference_tensors(basis, lift):
    """B, D, E and F written out pair by pair with `advect` and `inner_l2`."""
    m = len(basis.eigenvalues)
    modes = [basis.mode(i) for i in range(m)]
    t1 = np.array([[[inner_l2(advect(wi, wl), wj) for wj in modes]
                    for wl in modes] for wi in modes])
    b = 0.5 * (t1 - t1.transpose(0, 2, 1))
    g = lift.G_eps
    d = np.array([[0.5 * (inner_l2(advect(wi, g), wj) - inner_l2(advect(wi, wj), g))
                   for wj in modes] for wi in modes])
    e = np.array([[0.5 * (inner_l2(advect(g, wi), wj) - inner_l2(advect(g, wj), wi))
                   for wj in modes] for wi in modes])
    f = np.array([inner_l2(lift.f_eps, wj) for wj in modes])
    return b, d, e, f


@pytest.fixture(scope="module")
def square16_13():
    # m = 13 is not a multiple of the sweep's block of 8 modes, so the
    # last block is partial
    grid = Grid("square", 16)
    return grid, compute_eigenbasis(grid, 13)


@pytest.mark.parametrize("case", ["square_bump", "square_no_lift"])
def test_blocked_assembly_matches_pairwise_advect(case, square16_13):
    grid, basis = square16_13
    walls = (boundary_profile(grid, "bottom_bump", amplitude=1e-2) if case == "square_bump"
             else BoundaryData(grid, {}))
    lift = build_lift(walls, 0.4, grid)
    got = assemble_tensors(basis, lift, nu=1.0)
    want = _reference_tensors(basis, lift)
    # a zero reference (D, E and F without wall data) must be met exactly
    devs = {name: np.linalg.norm(getattr(got, name) - ref) / (np.linalg.norm(ref) or 1.0)
            for name, ref in zip("BDEF", want)}
    print(case, ", ".join(f"{name} {dev:.3e}" for name, dev in devs.items()))
    assert all(dev <= 1e-12 for dev in devs.values())   # NaN fails too


def test_selection_rule_of_b(square16_13):
    # the field forms obey the rule, and the sweep keeps exactly the rest
    grid, basis = square16_13
    lift = build_zero_lift(grid)
    want = _reference_tensors(basis, lift)[0]
    got = assemble_tensors(basis, lift).B
    p = basis.parities
    # the parities of i, l and j multiply to -1 on both axes
    allowed = (p[:, None, None] * p[None, :, None] * p[None, None, :] == -1).all(axis=-1)
    forbidden = np.abs(want[~allowed]).max() / np.abs(want).max()
    kept = np.linalg.norm(got[allowed] - want[allowed]) / np.linalg.norm(want[allowed])
    print(f"allowed {allowed.mean():.3f}, forbidden field forms {forbidden:.3e} max|B|, "
          f"kept entries {kept:.3e}")
    assert forbidden <= 1e-13
    assert kept <= 1e-12
    assert not got[~allowed].any()


def test_assembly_refuses_modes_without_a_parity():
    grid = Grid("square", 12)
    basis = compute_eigenbasis(grid, 3)
    # a 30 degree rotation inside the degenerate even-odd / odd-even pair
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    u, v = basis.ustack.copy(), basis.vstack.copy()
    for stack in (u, v):
        w1, w2 = stack[1].copy(), stack[2].copy()
        stack[1], stack[2] = c * w1 - s * w2, s * w1 + c * w2
    rotated = StokesBasis(grid, basis.eigenvalues, u, v)
    assert rotated.orthonormality_error() <= 1e-10
    with pytest.raises(ValueError, match="mode 1 has no single mirror parity"):
        assemble_tensors(rotated, build_zero_lift(grid))


def _reference_rhs(c, tensors, nu):
    """The coefficient derivative written out term by term with einsum."""
    quad = np.einsum("ilj,i,l->j", tensors.B, c, c)
    return -nu * tensors.lam * c - quad - c @ (tensors.D + tensors.E) + tensors.F


@pytest.fixture(scope="module")
def sliced_tensors(tensors32):
    # how criterion 8 truncates a basis
    m = 6
    t = tensors32
    return Tensors(B=t.B[:m, :m, :m], D=t.D[:m, :m], E=t.E[:m, :m], F=t.F[:m],
                   lam=t.lam[:m])


def _random_tensors(m):
    """Hand-built tensors of m modes, B antisymmetric in (l, j): no basis needed."""
    rng = np.random.default_rng(m)
    t = rng.standard_normal((m, m, m))
    e = rng.standard_normal((m, m))
    return Tensors(B=0.5 * (t - t.transpose(0, 2, 1)), D=0.1 * rng.standard_normal((m, m)),
                   E=0.05 * (e - e.T), F=rng.standard_normal(m),
                   lam=np.sort(rng.uniform(50.0, 500.0, m)))


@pytest.fixture(scope="module")
def random_packed_7():
    # 28 pairs, padded to 32
    return _random_tensors(7)


@pytest.fixture(scope="module")
def random_packed_40():
    return _random_tensors(40)


@pytest.fixture(scope="module")
def random_packed_56():
    return _random_tensors(56)


@pytest.fixture(scope="module")
def random_packed_58():
    # m = 58 has 1,711 pairs: without W's padding to a multiple of 8 pairs,
    # its stack rows do not step bitwise as they would alone
    return _random_tensors(58)


@pytest.mark.parametrize("which", ["tensors32", "sliced_tensors", "random_packed_7",
                                   "random_packed_40", "random_packed_56"])
def test_rhs_matches_einsum_reference(request, which):
    tensors = request.getfixturevalue(which)
    if which == "sliced_tensors":
        assert not tensors.B.flags.c_contiguous
    rng = np.random.default_rng(17)
    m = len(tensors.lam)
    worst = 0.0
    for _ in range(20):
        c = rng.standard_normal(m)
        got = rhs(GalerkinState(0.0, c), tensors, 1.0)
        want = _reference_rhs(c, tensors, 1.0)
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    print(f"{which}: max relative deviation from einsum {worst:.3e}")
    assert worst <= 1e-13


def test_solve_calls_step_through_the_module(monkeypatch, basis32, lift32, tensors32,
                                            config32):
    # the benchmark traces `galerkin.step` by replacing the module
    # attribute; a solve that bypassed it would report no step time
    calls = []
    original = galerkin.step

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(galerkin, "step", counting)
    traj = solve(config32, GalerkinState(0.0, np.zeros(8)), lift32, basis32,
                 tensors=tensors32)
    assert len(calls) == traj.n_steps == config32.n_steps()


@pytest.fixture(scope="module")
def tensors32_nolift(basis32, zero_lift32):
    return assemble_tensors(basis32, zero_lift32)


def test_zero_lift_is_no_wall_data(zero_lift32, tensors32_nolift, tensors32):
    # g = 0 lifts to G = 0, f = 0 and beta = 0: its coupling tensors are
    # exact, unsigned zeros, and the mode coupling B does not see the lift
    for field in (zero_lift32.G_eps, zero_lift32.f_eps):
        assert not field.u.any() and not field.v.any()
    assert zero_lift32.beta == 0.0
    for name in "DEF":
        t = getattr(tensors32_nolift, name)
        assert not t.any() and not np.signbit(t).any(), name
    assert np.array_equal(tensors32_nolift.B, tensors32.B)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("which", ["tensors32", "tensors32_nolift", "sliced_tensors",
                                   "random_packed_7", "random_packed_40", "random_packed_56",
                                   "random_packed_58", "tensors48", "tensors48_64"])
def test_stack_rows_match_single_solves(request, config32, basis32, lift32, zero_lift32,
                                        lift48, which, k):
    # each row of a (k, m) stack steps bitwise as the same state alone;
    # k = 1 is given as a (1, m) stack, not as an (m,) state
    tensors = request.getfixturevalue(which)
    lift = {"tensors32_nolift": zero_lift32, "tensors48": lift48,
            "tensors48_64": lift48}.get(which, lift32)
    m = len(tensors.lam)
    cfg = dataclasses.replace(config32, m=m)
    rng = np.random.default_rng(23)
    stack = rng.standard_normal((k, m))
    stack *= 0.03 / np.sqrt((stack**2) @ tensors.lam)[:, None]
    traj = solve(cfg, GalerkinState(0.0, stack.copy()), lift, basis32, tensors=tensors)
    assert traj.coeffs.shape == (cfg.n_steps() + 1, k, m)
    assert traj.l2sq.shape == traj.h1sq.shape == traj.h2sq.shape == (cfg.n_steps() + 1, k)
    for row in range(k):
        alone = solve(cfg, GalerkinState(0.0, stack[row].copy()), lift, basis32,
                      tensors=tensors)
        assert np.array_equal(traj.coeffs[:, row], alone.coeffs)
        assert np.array_equal(traj.l2sq[:, row], alone.l2sq)
        assert np.array_equal(rhs(GalerkinState(0.0, stack[row]), tensors, 1.0),
                              rhs(GalerkinState(0.0, stack), tensors, 1.0)[row])


def test_quadratic_term_reads_w(random_packed_7, random_packed_56):
    # a doubled W doubles the quadratic term of a state (m,) and of every row
    # of a stack (k, m) alike: each reads W, whatever m and k
    for t in (random_packed_7, random_packed_56):
        doubled = dataclasses.replace(t)
        doubled.W[...] *= 2.0
        stack = np.random.default_rng(29).standard_normal((40, len(t.lam)))
        for c in (stack[0], stack[:1], stack):
            assert np.array_equal(quadratic_term(c, doubled), 2.0 * quadratic_term(c, t))


def test_dt_bound_monotone_and_enforced(tensors32, config32):
    c_small = 1e-3 * np.ones(8)
    c_big = 1.0 * np.ones(8)
    assert explicit_dt_bound(tensors32, c_big) < explicit_dt_bound(tensors32, c_small)
    # a stack is bounded by its largest row
    assert (explicit_dt_bound(tensors32, np.stack([c_small, c_big]))
            == explicit_dt_bound(tensors32, c_big))
    bad = dataclasses.replace(config32, dt=0.5, T=1.0)
    with pytest.raises(ConfigError):
        check_dt_bound(bad, tensors32, c_big)


def test_step_is_second_order():
    # self-convergence against a 4096-step reference on a nonlinear run
    grid = Grid("square", 16)
    basis = compute_eigenbasis(grid, 8)
    nu, T = 0.2, 0.25
    lift = build_zero_lift(grid, nu=nu)
    tensors = assemble_tensors(basis, lift)
    c0 = np.array([0.9, 0.0, 0.0, 0.0, 0.5, 0.0, -0.3, 0.0])

    def run(n):
        cfg = SolverConfig(nu=nu, T=T, dt=T / n, m=8, epsilon=0.4, nx=16)
        return solve(cfg, GalerkinState(0.0, c0.copy()), lift, basis,
                     tensors=tensors).coeffs[-1]

    ref = run(4096)
    errs = [np.abs(run(n) - ref).max() for n in (64, 128, 256)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    print("errs:", [f"{e:.3e}" for e in errs], "ratios:",
          [f"{r:.2f}" for r in ratios])
    assert all(3.4 < r < 4.6 for r in ratios)


def test_linear_only_system_is_exact():
    lam = np.array([1.0, 2.0, 5.0, 10.0])
    m = 4
    tensors = Tensors(B=np.zeros((m, m, m)), D=np.zeros((m, m)),
                      E=np.zeros((m, m)), F=np.zeros(m), lam=lam)
    cfg = SolverConfig(nu=0.7, T=1.0, dt=0.25, m=m, epsilon=0.4, nx=8)
    c0 = np.array([1.0, -2.0, 0.5, 3.0])
    grid = Grid("square", 8)
    traj = solve(cfg, GalerkinState(0.0, c0), build_zero_lift(grid, nu=cfg.nu),
                 compute_eigenbasis(grid, 4), tensors=tensors)
    want = c0 * np.exp(-0.7 * lam * 1.0)
    dev = np.abs(traj.coeffs[-1] - want).max()
    print(f"linear-only final deviation {dev:.3e}")
    assert dev <= 1e-14


def test_blowup_detected_with_partial_history(basis32, zero_lift32):
    m = 2
    tensors = Tensors(B=np.zeros((m, m, m)), D=-40.0 * np.eye(m),
                      E=np.zeros((m, m)), F=np.zeros(m), lam=np.zeros(m))
    cfg = SolverConfig(nu=1.0, T=1.0, dt=1e-3, m=m, epsilon=0.4, nx=32)
    with pytest.raises(BlowupDetected) as info:
        solve(cfg, GalerkinState(0.0, np.ones(m)), zero_lift32, basis32,
              tensors=tensors)
    exc = info.value
    assert exc.step_index > 100
    assert exc.partial.coeffs.shape == (exc.step_index + 1, m)
    assert np.isfinite(exc.partial.coeffs).all()
    assert exc.row is None and "row" not in str(exc)

    # in a stack the row that leaves first is named, at the step it leaves alone
    stack = np.array([[1e-3, 1e-3], [1.0, 1.0], [1e-3, 0.0]])
    with pytest.raises(BlowupDetected) as info:
        solve(cfg, GalerkinState(0.0, stack), zero_lift32, basis32, tensors=tensors)
    rows = info.value
    assert rows.row == 1 and "stack row 1" in str(rows)
    assert rows.step_index == exc.step_index
    assert rows.partial.coeffs.shape == (exc.step_index + 1, 3, m)
    assert np.array_equal(rows.partial.coeffs[:, 1], exc.partial.coeffs)


def test_solve_rejects_mismatched_state(basis32, lift32, tensors32, config32):
    # m = 8: a state (8,) or a stack (k, 8) with k >= 1, nothing else
    for shape in [(5,), (3, 5), (2, 3, 8), (0, 8), ()]:
        with pytest.raises(ConfigError, match="initial state shape"):
            solve(config32, GalerkinState(0.0, np.zeros(shape)), lift32, basis32,
                  tensors=tensors32)


def test_reconstruction_is_divergence_free(basis32, lift32, tensors32, config32):
    traj = solve(config32, GalerkinState(0.0, np.zeros(8)), lift32, basis32,
                 tensors=tensors32)
    from reproflow.galerkin import reconstruct

    dv = np.abs(divergence(reconstruct(traj, basis32, lift32)).values).max()
    print(f"reconstructed final-state divergence {dv:.3e}")
    assert dv <= 1e-12


def test_pressure_recovery_guards(basis32, zero_lift32):
    s0 = GalerkinState(0.0, np.zeros(8))
    s1 = GalerkinState(1e-3, np.zeros(8))
    # the residual differentiates in time, so ordering matters
    with pytest.raises(ValueError):
        recover_pressure((s1, s0), basis32, zero_lift32, nu=1.0)


def test_lift_forcing_enters_the_pressure_once(basis48, lift48):
    # with u = 0 the momentum residual is the lift's forcing
    # f = nu Lap G - (G.grad)G itself, so the pressure is the Poisson
    # solve of div f; counting f twice doubles it
    zero = np.zeros(basis48.m)
    p = recover_pressure((GalerkinState(0.0, zero), GalerkinState(1e-3, zero)),
                         basis48, lift48, nu=1.0)
    want = LerayProjector(basis48.grid).solve_poisson(divergence(lift48.f_eps)).values
    ratio = float(p.values.ravel() @ want.ravel() / (want.ravel() @ want.ravel()))
    dev = np.abs(p.values - want).max() / np.abs(want).max()
    print(f"pressure / Poisson solve of div f: ratio {ratio:.15f}, deviation {dev:.3e}")
    assert abs(ratio - 1.0) <= 1e-12
    assert dev <= 1e-12


def test_step_blowup_guard():
    m = 1
    tensors = Tensors(B=np.zeros((m, m, m)), D=np.zeros((m, m)),
                      E=np.zeros((m, m)), F=np.array([1e9]),
                      lam=np.zeros(m))
    cfg = SolverConfig(nu=1.0, T=1.0, dt=1e-3, m=m, epsilon=0.4, nx=8)
    with pytest.raises(BlowupDetected):
        step(GalerkinState(0.0, np.array([1e5])), tensors, cfg)

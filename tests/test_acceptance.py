"""Acceptance battery: one test per shipped guarantee, tolerances pinned.

Run with -v to get one pass/fail line per criterion; each test also
prints the measured numbers it judged.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

from reproflow.fields import Grid, advect, divergence, inner_l2, norm_l2
from reproflow.galerkin import (
    GalerkinState,
    SolverConfig,
    Tensors,
    momentum_residual_drop,
    reconstruct,
    solve,
)
from reproflow.lift import boundary_profile, build_lift, verify_smallness
from reproflow.reproductive import (
    find_reproductive,
    measure_contraction,
    validate_budget,
)
from reproflow.stokes import compute_eigenbasis
from reproflow.verification import (
    calibrate_slack,
    check_energy_inequality,
    poincare_constant,
    require,
    stability_experiment,
)

from .conftest import build_zero_lift

# smallest clamped-plate buckling eigenvalue of the unit square, which the
# discrete Stokes pencil approximates (Bjorstad & Tjostheim, Computing 63, 1999)
LAMBDA1 = 52.344691168


def _ball(rng, lam, radius):
    """Random coefficient state of prescribed V-norm."""
    c = rng.standard_normal(lam.size)
    return c * (radius / math.sqrt(float((c**2 * lam).sum())))


def test_criterion_1_square_stokes_oracle(basis48, cache_dir):
    t0 = time.monotonic()
    lam = {nx: compute_eigenbasis(Grid("square", nx), 1, cache_dir=cache_dir).eigenvalues[0]
           for nx in (24, 96)}
    lam[48] = basis48.eigenvalues[0]
    legs = {}
    for coarse, fine in ((24, 48), (48, 96)):
        ratio = (lam[coarse] - LAMBDA1) / (lam[fine] - LAMBDA1)
        richardson = lam[fine] + (lam[fine] - lam[coarse]) / 3.0
        legs[fine] = ratio, abs(richardson - LAMBDA1) / LAMBDA1

    # a run without wall data: what the momentum balance leaves is a discrete gradient
    config = SolverConfig(nu=0.1, T=0.1, dt=1e-3, m=32, nx=48)
    c0 = _ball(np.random.default_rng(0), basis48.eigenvalues, 0.2)
    zero_lift = build_zero_lift(basis48.grid, nu=config.nu)
    traj = solve(config, GalerkinState(0.0, c0), zero_lift, basis48)
    pair = (traj.state(traj.n_steps - 1), traj.state(traj.n_steps))
    drop = momentum_residual_drop(pair, basis48, zero_lift, config.nu)

    elapsed = time.monotonic() - t0
    print(f"criterion 1: lambda_1 {lam[24]:.8f} (nx 24), {lam[48]:.8f} (nx 48), "
          f"{lam[96]:.8f} (nx 96); 24/48 error ratio {legs[48][0]:.3f} (4 +- 0.2), "
          f"Richardson rel err {legs[48][1]:.2e} (tol 5e-5); 48/96 error ratio "
          f"{legs[96][0]:.3f} (4 +- 0.02), Richardson rel err {legs[96][1]:.2e} "
          f"(tol 2e-6); momentum residual drop {drop:.1f}x (min 100), {elapsed:.1f}s")
    assert 3.8 <= legs[48][0] <= 4.2
    assert legs[48][1] <= 5e-5
    assert 3.98 <= legs[96][0] <= 4.02
    assert legs[96][1] <= 2e-6
    assert drop >= 100.0
    assert elapsed < 60.0


def test_criterion_2_contraction_envelope(config48, bump48, lift48, basis48,
                                          tensors48):
    t0 = time.monotonic()
    budget = validate_budget(bump48, lift48, nu=config48.nu)
    require(*budget.gates())  # in budget, or RegimeViolation lists the failed gates
    report = measure_contraction(config48, lift48, basis48, pairs=5, seed=0,
                                 budget=budget, tensors=tensors48)
    elapsed = time.monotonic() - t0
    bound = math.exp(-config48.nu * config48.T) * 1.1
    print(f"criterion 2: max ratio {max(report.ratios):.3e} over "
          f"{len(report.ratios)} pairs, bound {bound:.4f}, {elapsed:.1f}s")
    assert max(report.ratios) <= bound
    assert report.passed(0.1)
    assert elapsed < 300.0


def test_criterion_3_reproductive_fixed_point(config48, lift48, basis48,
                                              tensors48):
    tol = 1e-10
    report = find_reproductive(config48, lift48, basis48, tol=tol,
                               tensors=tensors48, m_radius=0.05)
    r = report.residuals
    cap = math.ceil(math.log(r[0] / tol) / (config48.nu * config48.T)) + 2
    per_step = math.exp(-config48.nu * config48.T) * 1.1

    traj = solve(config48, report.state, lift48, basis48, tensors=tensors48)
    closure = norm_l2(reconstruct(traj, basis48, lift48)
                      - reconstruct(traj, basis48, lift48, n=0))

    print(f"criterion 3: residuals {[f'{x:.3e}' for x in r]}, "
          f"cap {cap}, closure {closure:.3e}")
    # from a zero start the first residual is ||L(0)||_V, the attractor scale
    assert r[0] == pytest.approx(1.40406758e-2, rel=1e-8)
    assert report.converged
    assert report.n_iterations <= cap
    assert all(rho <= per_step for rho in report.ratios)
    assert report.l2_closure <= 1e-9
    assert closure <= 1e-9


def test_criterion_4_energy_inequality(config48, bump48, lift48, zero_lift48, basis48,
                                       tensors48):
    lam = basis48.eigenvalues
    c_omega = poincare_constant(basis48)
    budget = validate_budget(bump48, lift48, nu=config48.nu)
    require(*budget.gates())  # in budget, or RegimeViolation lists the failed gates
    zero = GalerkinState(0.0, np.zeros(lam.size))
    kappa = calibrate_slack(config48, zero, lift48, basis48, tensors48)

    starts = [zero.c]
    for seed in (0, 1):
        starts.append(_ball(np.random.default_rng(seed), lam, 0.05))
    worst = -np.inf
    for c0 in starts:
        traj = solve(config48, GalerkinState(0.0, c0.copy()), lift48, basis48,
                     tensors=tensors48)
        report = check_energy_inequality(traj, config48.nu, c_omega,
                                         beta=lift48.beta, kappa=kappa)
        worst = max(worst, report.gate.value)
        assert report.passed, report.gate.line()

    # with no wall data at all the balance must hold without any slack
    free = Tensors(B=tensors48.B, D=np.zeros_like(tensors48.D),
                   E=np.zeros_like(tensors48.E), F=np.zeros_like(tensors48.F),
                   lam=tensors48.lam)
    worst_free = -np.inf
    for seed in (0, 1, 2):
        c0 = _ball(np.random.default_rng(seed), lam, 0.05)
        traj = solve(config48, GalerkinState(0.0, c0), zero_lift48, basis48,
                     tensors=free)
        report = check_energy_inequality(traj, config48.nu, c_omega,
                                         beta=zero_lift48.beta)
        worst_free = max(worst_free, report.gate.value)
        assert report.gate.value <= 0.0, report.gate.line()

    print(f"criterion 4: bump-suite max violation {worst:+.3e} "
          f"(kappa {kappa:.3e}), zero-data max violation {worst_free:+.3e}")


def test_criterion_5_stability_decay(config48, lift48, basis48, tensors48):
    lam = basis48.eigenvalues
    rng = np.random.default_rng(0)
    c0 = _ball(rng, lam, 0.02)
    z = _ball(rng, lam, 1e-4)
    report = stability_experiment(config48, GalerkinState(0.0, c0),
                                  GalerkinState(0.0, c0 + z), lift48, basis48,
                                  tensors=tensors48, m_radius=0.05)
    ratio, monotone = report.gates()
    print(f"criterion 5: {ratio.line()}; {monotone.line()}")
    assert ratio.value <= 1.05
    assert monotone.passed


def test_criterion_6_lift_correctness(square48):
    g = boundary_profile(square48, "bottom_bump", amplitude=1.0)
    sweep = (0.4, 0.2, 0.1, 0.05)
    divs, betas, ratios = [], [], []
    for eps in sweep:
        lift = build_lift(g, eps, square48)
        divs.append(float(np.abs(divergence(lift.G_eps).values).max()))
        betas.append(lift.beta)
        ratios.append(verify_smallness(lift, samples=100, seed=0))
    for eps, d, b, r in zip(sweep, divs, betas, ratios):
        print(f"criterion 6: eps {eps:<4}  div {d:.2e}  beta {b:.6e}  "
              f"smallness {r:.3e}")
    assert max(divs) <= 1e-13
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))
    # the band is thinner than one cell below eps = 0.4 here, so the
    # sampled ratio bottoms out at exactly zero rather than decaying on
    assert all(r1 >= r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[0] > ratios[-1]


def test_criterion_7_algebraic_invariants(basis48, tensors48):
    skew = float(np.abs(tensors48.B + tensors48.B.transpose(0, 2, 1)).max())

    rng = np.random.default_rng(7)
    worst_cubic = 0.0
    for _ in range(100):
        c = rng.standard_normal(tensors48.B.shape[0])
        s = np.einsum("ilj,i,l,j->", tensors48.B, c, c, c)
        worst_cubic = max(worst_cubic, abs(s) / max(np.abs(c).max() ** 3, 1e-30))

    # the mirror selection rule on field forms: (advect(w_i, w_l), w_j) = 0
    # unless the parities of i, l and j multiply to -1 on both axes
    par = basis48.parities
    triples = np.random.default_rng(0).integers(basis48.m, size=(2000, 3))
    forbidden = triples[(par[triples].prod(axis=1) != -1).any(axis=1)][:200]
    worst_rule = max(abs(inner_l2(advect(basis48.mode(i), basis48.mode(l)), basis48.mode(j)))
                     for i, l, j in forbidden) / float(np.abs(tensors48.B).max())

    orth = basis48.orthonormality_error()
    eig = float(np.max(basis48.eigen_residuals()))

    print(f"criterion 7: B skew {skew:.1e}, cubic sum {worst_cubic:.3e}, "
          f"selection rule {worst_rule:.3e} max|B| over {len(forbidden)} forbidden "
          f"triples, orthonormality {orth:.3e}, "
          f"eigen residual {eig:.3e}")
    assert skew == 0.0
    assert worst_cubic <= 1e-12
    assert len(forbidden) == 200 and worst_rule <= 1e-13
    assert orth <= 1e-10
    assert eig <= 1e-8


def test_criterion_8_m_convergence(basis48_64, tensors48_64, lift48, config48):
    basis, full = basis48_64, tensors48_64

    finals = {}
    for m in (8, 16, 32, 64):
        sub = Tensors(B=full.B[:m, :m, :m], D=full.D[:m, :m],
                      E=full.E[:m, :m], F=full.F[:m], lam=full.lam[:m])
        traj = solve(config48, GalerkinState(0.0, np.zeros(m)), lift48, basis,
                     tensors=sub)
        finals[m] = traj.coeffs[-1]

    diffs = []
    for m in (8, 16, 32):
        a = np.zeros(2 * m)
        a[:m] = finals[m]
        diffs.append(float(np.linalg.norm(finals[2 * m] - a)))

    print("criterion 8: |u_2m(T) - u_m(T)| =",
          ", ".join(f"{d:.6e}" for d in diffs))
    assert all(d1 >= d2 for d1, d2 in zip(diffs, diffs[1:]))
    np.testing.assert_allclose(
        diffs, [4.29518396e-04, 4.12231677e-04, 3.81816712e-04], rtol=1e-6)


def test_criterion_9_cli_determinism(tmp_path):
    cfg = {
        "experiment": "solve",
        "seed": 11,
        "solver": {"nu": 1.0, "T": 0.05, "dt": 1e-3, "m": 6, "epsilon": 0.4,
                   "nx": 24},
        "boundary": {"profile": "bottom_bump", "amplitude": 0.01},
        "initial": {"kind": "ball", "radius": 0.01},
    }
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    env = dict(os.environ, REPROFLOW_CACHE=str(tmp_path / "cache"))

    blobs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "reproflow.cli", "solve",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        for name in ("energy.csv", "coeffs.csv"):
            with open(out / name, "rb") as fh:
                blobs.setdefault(name, []).append(fh.read())

    for name, (blob_a, blob_b) in blobs.items():
        assert blob_a == blob_b, f"{name} differs between identical runs"
    print("criterion 9: energy.csv and coeffs.csv byte-identical "
          f"({len(blobs['energy.csv'][0])} and {len(blobs['coeffs.csv'][0])} "
          "bytes)")

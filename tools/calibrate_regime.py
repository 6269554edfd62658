"""Calibrate the smallness-regime constants for the standard wall-bump fixture.

Produces the numbers frozen into reproflow.reproductive.DEFAULT_BUDGET_FIXTURE
and into the test fixtures: the wall-data norm bound alpha, the forcing bound
K, the ball radius M, the energy-monitor slack rate kappa, and the empirical
regime edge of the amplitude sweep.  Run at the acceptance operating point:
square, nx = 48, m = 32, nu = 1, epsilon = 0.4, amplitude 1e-2.
"""

import sys
import time

import numpy as np

sys.path.insert(0, "src")

from reproflow.fields import Grid  # noqa: E402
from reproflow.galerkin import (  # noqa: E402
    GalerkinState, SolverConfig, assemble_tensors, explicit_dt_bound, solve, vnorm,
)
from reproflow.lift import boundary_profile, build_lift  # noqa: E402
from reproflow.reproductive import (  # noqa: E402
    SmallnessBudget, find_reproductive, map_L, measure_contraction,
    validate_budget,
)
from reproflow.stokes import compute_eigenbasis  # noqa: E402
from reproflow.verification import (  # noqa: E402
    calibrate_slack, check_energy_inequality, poincare_constant,
)

NU = 1.0
T = 1.0
DT = 1e-3
NX = 48
M_MODES = 32
EPS = 0.4
AMP = 1e-2

grid = Grid("square", NX)
t0 = time.time()
basis = compute_eigenbasis(grid, M_MODES)
print(f"basis nx={NX} m={M_MODES}: {time.time()-t0:.1f}s, "
      f"lam1 = {basis.eigenvalues[0]:.10f}, lam{M_MODES} = {basis.eigenvalues[-1]:.6f}")
print(f"C(Omega) = {poincare_constant(basis):.10f}")

bdata = boundary_profile(grid, "bottom_bump", amplitude=AMP)
lift = build_lift(bdata, EPS, grid)
t0 = time.time()
tensors = assemble_tensors(basis, lift, nu=NU)
print(f"tensors: {time.time()-t0:.1f}s; beta = {lift.beta:.8e}")

budget_raw = validate_budget(bdata, lift, NU,
                             budget=SmallnessBudget(alpha=np.inf, k_force=np.inf,
                                                    m_radius=np.nan))
print(f"measured g-norm = {budget_raw.g_norm:.8e}")
print(f"measured f-norm = {budget_raw.f_norm:.8e}")

# attractor scale: V-norm of L(0)
cfg = SolverConfig(nu=NU, T=T, dt=DT, m=M_MODES, nx=NX)
t0 = time.time()
l0 = map_L(GalerkinState(0.0, np.zeros(M_MODES)), cfg, lift, basis, tensors=tensors)
t_solve = time.time() - t0
r0 = float(vnorm(l0.c, basis.eigenvalues))
print(f"attractor V-norm ||L(0)|| = {r0:.8e}  (one solve: {t_solve:.2f}s)")

# ball radius check: draws at radius M stay inside (three starts, one stacked solve)
M_RADIUS = 0.05
rng = np.random.default_rng(11)
draws = rng.standard_normal((3, M_MODES))
draws *= M_RADIUS / vnorm(draws, basis.eigenvalues)[:, None]
traj = solve(cfg, GalerkinState(0.0, draws), lift, basis, tensors=tensors)
sup = float(np.sqrt(traj.h1sq.max()))
print(f"M = {M_RADIUS}: sup ||u(t)|| over radius-M draws = "
      f"{sup:.8e} (ratio {sup/M_RADIUS:.6f})")
c = draws[-1]
print(f"dt bound at radius M: {explicit_dt_bound(tensors, c):.4e} (dt = {DT})")

# kappa for the energy suite (T = 0.5 runs)
cfg_e = SolverConfig(nu=NU, T=0.5, dt=DT, m=M_MODES, nx=NX)
u0 = GalerkinState(0.0, c)  # last draw, radius M
t0 = time.time()
kappa = calibrate_slack(cfg_e, u0, lift, basis, tensors)
print(f"kappa (energy slack rate) = {kappa:.8e}  ({time.time()-t0:.1f}s)")

# energy monitor at the fixture with the calibrated slack
traj = solve(cfg_e, u0, lift, basis, tensors=tensors)
rep = check_energy_inequality(traj, NU, poincare_constant(basis),
                              beta=lift.beta, kappa=kappa)
print(f"energy monitor (radius-M start): passed={rep.passed}, "
      f"max violation {rep.max_violation:+.6e}")
traj0 = solve(cfg_e, GalerkinState(0.0, np.zeros(M_MODES)), lift, basis,
              tensors=tensors)
rep0 = check_energy_inequality(traj0, NU, poincare_constant(basis),
                               beta=lift.beta, kappa=kappa)
print(f"energy monitor (zero start):     passed={rep0.passed}, "
      f"max violation {rep0.max_violation:+.6e}")

# contraction at the acceptance operating point
budget = SmallnessBudget(alpha=0.05, k_force=1.0, m_radius=M_RADIUS,
                         g_norm=budget_raw.g_norm, f_norm=budget_raw.f_norm,
                         beta=lift.beta)
t0 = time.time()
crep = measure_contraction(cfg, lift, basis, pairs=5, seed=0, budget=budget,
                           tensors=tensors)
t_contr = time.time() - t0
print(f"contraction: max ratio {crep.max_ratio:.6e} vs envelope "
      f"{crep.envelope:.6f} (runtime {t_contr:.1f}s, ratios "
      f"{['%.3e' % r for r in crep.ratios]})")

# reproductive at the acceptance operating point
t0 = time.time()
frep = find_reproductive(cfg, lift, basis, tol=1e-10, tensors=tensors)
t_rep = time.time() - t0
print(f"reproductive: residuals {['%.6e' % r for r in frep.residuals]}, "
      f"converged={frep.converged}, closure {frep.l2_closure:.3e}, "
      f"runtime {t_rep:.1f}s")

# amplitude sweep for the regime edge
print("\namplitude sweep (beta gate is nu/4 = 0.25):")
for amp in (1e-2, 0.1, 1.0, 10.0):
    bd = boundary_profile(grid, "bottom_bump", amplitude=amp)
    lf = build_lift(bd, EPS, grid)
    b = validate_budget(bd, lf, NU, budget=SmallnessBudget(
        alpha=np.inf, k_force=np.inf, m_radius=np.nan))
    gate = "OPEN " if lf.beta <= 0.25 * NU else "TRIP!"
    print(f"  amp {amp:8.2f}: beta {lf.beta:.6e} [{gate}] "
          f"g-norm {b.g_norm:.6e} f-norm {b.f_norm:.6e}")
bd1 = boundary_profile(grid, "bottom_bump", amplitude=1.0)
lf1 = build_lift(bd1, EPS, grid)
beta_unit = lf1.beta
print(f"beta at unit amplitude: {beta_unit:.8e} "
      f"-> beta gate trips at amplitude {0.25 * NU / beta_unit:.6f}")

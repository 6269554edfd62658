"""Command-line front end: configuration, orchestration, and artifacts.

One run = one YAML config + one output directory.  Every run value is
set in the config; the command line adds only ``--config``, ``--out``
(a path) and ``--seed``.  `parse_config` judges a config in one pass,
by each key's type and rule in `SCHEMA` (unknown keys, misplaced nulls
and broken rules are reported with their full path), and builds the
wall data; a config error exits 2 before the output directory exists.
The effective config — defaults filled in — is written next to the
results, so a run directory is self-describing.  Every run ends with an
atomically written ``manifest.json`` listing the config hash, code
version, basis cache key, wall-clock, every output file, every gate
(value, bound, margin, verdict) and ``passed``, their conjunction (a
refused run lists its failed regime gates), or a ``config_error`` the
run itself found (the explicit dt bound).

Exit codes: 0 every gate passed; 1 a gate failed or a monitor refused
to judge (out of regime); 2 usage or config error; 3 numerical failure
(blowup, solver breakdown, non-convergence).

Reproducibility contract: (config, seed, code version) determines every
CSV byte.  Wall-clock and absolute paths appear only in the manifest.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np
import yaml

from . import __version__
from .fields import SQUARE, Grid, divergence
from .galerkin import (
    BlowupDetected,
    ConfigError,
    GalerkinState,
    SolverConfig,
    assemble_tensors,
    momentum_residual_drop,
    recover_pressure,
    reconstruct,
    solve,
    validate_config,
    vnorm,
)
from .lift import (
    DIVERGENCE_TOL,
    BoundaryData,
    InvalidBoundaryData,
    SolverFailure,
    boundary_profile,
    build_lift,
    load_boundary_table,
    verify_smallness,
)
from .reproductive import (
    M_RADIUS,
    NonConvergence,
    find_reproductive,
    measure_contraction,
    validate_budget,
)
from .snapshots import save_scalar, save_vector
from .stokes import (EIGEN_RESIDUAL_TOL, ORTHONORMALITY_TOL, EigensolverError, _cache_path,
                     check_mode_count, compute_eigenbasis)
from .verification import (
    Gate,
    RegimeViolation,
    check_energy_inequality,
    check_h1_bound,
    check_tensors,
    poincare_constant,
    stability_experiment,
)

EXPERIMENTS = ("eigs", "lift", "solve", "verify", "stability", "reproductive")
CACHE_ENV = "REPROFLOW_CACHE"


class ConfigFileError(ValueError):
    """Config rejected; message lists every offending field with its path."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# A rule is a tuple of the allowed values or a (predicate, phrase) pair.
POSITIVE = (lambda x: x > 0, "a positive number")
AT_LEAST_1 = (lambda n: n >= 1, "at least 1")
EPSILONS = (lambda es: len(es) > 0 and all(
    type(e) in (int, float) and 0.0 < e <= 1.0 for e in es),
    "a non-empty list of numbers in (0, 1]")

# (default, type, rule) rows; dicts nest.  None as default means "may be
# absent" and is the only case where a config may write null.  The solver
# rows have no rule, as galerkin.validate_config is their range check, and
# neither has boundary.profile: lift.boundary_profile knows the names.
SCHEMA = {
    "experiment": (None, str, EXPERIMENTS),
    "out": ("runs/out", str, None),
    "seed": (0, int, None),
    "solver": {
        "nu": (1.0, float, None),
        "T": (1.0, float, None),
        "dt": (1e-3, float, None),
        "m": (32, int, None),
        "epsilon": (0.4, float, None),
        "nx": (48, int, None),
    },
    "boundary": {
        "profile": (None, str, None),
        "amplitude": (1.0, float, None),
        "table": (None, str, None),
    },
    "initial": {
        "kind": ("zero", str, ("zero", "ball")),
        "radius": (0.05, float, POSITIVE),
    },
    "verify": {
        # slack rate of the standard fixture, recomputed and pinned by
        # tests/test_verification.py::test_kappa_default_is_the_calibrated_rate
        "kappa": (3.00531870e-3, float, None),
        # the smallness ball B_M of verify, stability and reproductive
        "m_radius": (M_RADIUS, float, POSITIVE),
    },
    "stability": {
        "perturbation": (1e-4, float, POSITIVE),
    },
    "reproductive": {
        "tol": (1e-10, float, POSITIVE),
        "pairs": (5, int, AT_LEAST_1),
    },
    "sweep": {
        "epsilons": ([0.4, 0.2, 0.1, 0.05], list, EPSILONS),
        "samples": (100, int, AT_LEAST_1),
    },
}


def _walk_schema(data, schema, path, errors):
    """The effective config of one mapping: every key typed, ruled and defaulted.

    Unknown keys, wrong types and broken rules (of defaults too) are
    appended to `errors` with their dotted path.
    """
    errors.extend(f"{path}{key}: unknown key (expected one of: {', '.join(sorted(schema))})"
                  for key in data if key not in schema)
    out = {}
    for key, spec in schema.items():
        here, val = path + key, data.get(key, {} if isinstance(spec, dict) else spec[0])
        if isinstance(spec, dict):
            if isinstance(val, dict):
                out[key] = _walk_schema(val, spec, here + ".", errors)
            else:
                errors.append(f"{here}: expected a mapping")
            continue
        default, typ, rule = spec
        if val is not None or default is not None:
            if isinstance(val, bool) or not isinstance(val, (int, float) if typ is float else typ):
                got = "null" if val is None else type(val).__name__
                errors.append(f"{here}: expected {typ.__name__}, got {got}")
                continue
            val = typ(val)
        if rule is not None:
            ok, want = rule if callable(rule[0]) else (rule.__contains__,
                                                      "one of " + ", ".join(rule))
            if not ok(val):
                errors.append(f"{here}: expected {want}, got {val!r}")
        out[key] = val
    return out


@dataclasses.dataclass
class RunConfig:
    experiment: str
    out: str
    seed: int
    solver: SolverConfig
    raw: dict  # the full effective config (what the manifest hashes)
    boundary: BoundaryData  # on the run's grid
    # boundary.table resolved against the config file's directory, with the
    # sha256 of its bytes; None without a table
    table: dict = None


def parse_config(path, out_override=None, seed_override=None):
    """Load, validate, and default-fill a YAML run config.

    The one place a config is judged: every problem is a ConfigFileError,
    raised before anything is written.  Unknown keys anywhere in the tree
    are collected and reported with their dotted path; nothing is
    silently ignored.  The wall data is built here, on the run's grid; a
    relative boundary.table is read from the config file's directory.
    """
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigFileError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigFileError(f"config is not valid YAML: {exc}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigFileError("config root must be a mapping")

    errors = []
    out = _walk_schema(data, SCHEMA, "", errors)
    if errors:
        raise ConfigFileError("invalid config:\n  " + "\n  ".join(errors))
    if out_override is not None:
        out["out"] = out_override
    if seed_override is not None:
        out["seed"] = int(seed_override)

    try:
        solver = validate_config(SolverConfig(**out["solver"]))
    except ConfigError as exc:
        raise ConfigFileError(f"solver: {exc}")
    try:
        check_mode_count(solver.nx, solver.m)
    except ValueError as exc:
        raise ConfigFileError(f"solver.m: {exc}")

    b = out["boundary"]
    if b["profile"] is not None and b["table"] is not None:
        raise ConfigFileError("boundary: give profile or table, not both")
    if out["experiment"] in ("lift", "reproductive") and not (b["profile"] or b["table"]):
        raise ConfigFileError(
            f"boundary: the {out['experiment']} experiment needs wall data "
            f"(set boundary.profile or boundary.table)")
    grid, table = Grid(SQUARE, solver.nx), None
    boundary = BoundaryData(grid, {})  # no wall data: zeros
    try:
        if b["table"] is not None:
            table_path = os.path.join(os.path.dirname(os.path.abspath(path)), b["table"])
            with open(table_path, "rb") as fh:
                table = {"path": table_path, "sha256": hashlib.sha256(fh.read()).hexdigest()}
            boundary = load_boundary_table(grid, table_path)
        elif b["profile"] is not None:
            boundary = boundary_profile(grid, b["profile"], amplitude=b["amplitude"])
    except (InvalidBoundaryData, OSError) as exc:
        raise ConfigFileError(f"boundary.{'profile' if b['table'] is None else 'table'}: {exc}")
    return RunConfig(experiment=out["experiment"], out=out["out"], seed=out["seed"],
                     solver=solver, raw=out, boundary=boundary, table=table)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _fmt(x):
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def write_csv(path, header, rows):
    """Tidy CSV with %.17g floats; header-only when there are no rows."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _atomic_json(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class RunContext:
    """Everything one experiment needs: config, outdir bookkeeping, cache."""

    def __init__(self, config):
        self.config = config
        self.outdir = config.out
        os.makedirs(self.outdir, exist_ok=True)
        self.cache_dir = os.environ.get(CACHE_ENV) or os.path.join(self.outdir, "cache")
        self.outputs = []
        self.grid = config.boundary.grid

    def path(self, name):
        self.outputs.append(name)
        return os.path.join(self.outdir, name)

    def basis(self):
        return compute_eigenbasis(self.grid, self.config.solver.m,
                                  cache_dir=self.cache_dir)

    def basis_cache_key(self):
        return os.path.basename(_cache_path(self.cache_dir, self.grid,
                                            self.config.solver.m))

    def pipeline(self):
        """(basis, lift, tensors, rng) of a solving experiment.

        Each runner calls this once, so nothing is built twice in a run;
        without wall data the boundary is all zeros and so is its lift.
        """
        cfg = self.config.solver
        basis = self.basis()
        lift = build_lift(self.config.boundary, cfg.epsilon, self.grid)
        tensors = assemble_tensors(basis, lift, nu=cfg.nu)
        return basis, lift, tensors, np.random.default_rng(self.config.seed)

    def initial_state(self, basis, rng):
        ini = self.config.raw["initial"]
        m = self.config.solver.m
        if ini["kind"] == "ball":
            c = rng.standard_normal(m)
            c *= ini["radius"] / vnorm(c, basis.eigenvalues)
            return GalerkinState(0.0, c)
        return GalerkinState(0.0, np.zeros(m))


def _write_trajectory(ctx, traj):
    write_csv(ctx.path("energy.csv"),
              ["t", "l2sq", "h1sq", "h2sq", "f_l2sq"],
              zip(traj.times, traj.l2sq, traj.h1sq, traj.h2sq, traj.f_l2sq))
    m = traj.coeffs.shape[1]
    header = ["t"] + [f"c{j}" for j in range(m)]
    rows = [(t, *c) for t, c in zip(traj.times, traj.coeffs)]
    write_csv(ctx.path("coeffs.csv"), header, rows)


# ---------------------------------------------------------------------------
# experiments: each returns (gates, summary); run() alone judges the gates
# ---------------------------------------------------------------------------


def _run_eigs(ctx):
    basis = ctx.basis()
    write_csv(ctx.path("eigenvalues.csv"), ["j", "eigenvalue"],
              list(enumerate(basis.eigenvalues)))
    gates = [Gate("orthonormality", basis.orthonormality_error(), ORTHONORMALITY_TOL),
             Gate("eigen-residual", float(basis.eigen_residuals().max()), EIGEN_RESIDUAL_TOL)]
    # each such pair is an even-odd mode, then its transpose
    lam = basis.eigenvalues
    degenerate = [[j, j + 1] for j in range(len(lam) - 1)
                  if abs(lam[j + 1] - lam[j]) <= 1e-10 * abs(lam[j + 1])]
    return gates, {"m": ctx.config.solver.m, "degenerate_pairs": degenerate}


def _run_lift(ctx):
    sweep = ctx.config.raw["sweep"]
    boundary = ctx.config.boundary
    # the snapshot is the run's own lift, whether or not the sweep visits its epsilon
    own = build_lift(boundary, ctx.config.solver.epsilon, ctx.grid)
    save_vector(ctx.path("lift_G.npz"), own.G_eps)
    rows = []
    for eps in sweep["epsilons"]:
        lift = build_lift(boundary, eps, ctx.grid)
        ratio = verify_smallness(lift, samples=sweep["samples"],
                                 seed=ctx.config.seed)
        div_max = float(np.abs(divergence(lift.G_eps).values).max())
        rows.append((eps, lift.delta, lift.beta, ratio, div_max))
    write_csv(ctx.path("beta_vs_eps.csv"),
              ["epsilon", "delta", "beta", "smallness_ratio", "div_max"], rows)
    _, _, betas, ratios, divs = (list(col) for col in zip(*rows))
    # a beta 0/0 reads NaN and fails; a one-epsilon sweep reads 0 on both order gates
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_step = float(np.max(np.divide(betas[1:], betas[:-1]), initial=0.0))
    rise = float(np.max(np.diff(ratios))) if len(ratios) > 1 else 0.0
    gates = [Gate("beta-decreasing", beta_step, 1.0, "<"),
             Gate("smallness-non-increasing", rise, 0.0),
             Gate("divergence", float(np.max(divs)), DIVERGENCE_TOL)]
    return gates, {"betas": betas, "smallness_ratios": ratios}


def _solve_common(ctx):
    """Solve from the configured initial state; writes the trajectory CSVs."""
    basis, lift, tensors, rng = ctx.pipeline()
    u0 = ctx.initial_state(basis, rng)
    traj = solve(ctx.config.solver, u0, lift, basis, tensors=tensors)
    _write_trajectory(ctx, traj)
    return basis, lift, tensors, traj


def _run_solve(ctx):
    cfg = ctx.config.solver
    basis, lift, _, traj = _solve_common(ctx)
    save_vector(ctx.path("v_final.npz"), reconstruct(traj, basis, lift),
                t=traj.times[-1])
    summary = {"steps": traj.n_steps, "l2sq_final": float(traj.l2sq[-1]),
               "h1sq_final": float(traj.h1sq[-1])}
    b = ctx.config.raw["boundary"]
    # with wall data the lift forcing outside the modes' span dominates the
    # residual: pressure and residual drop are written only without wall data
    if not (b["profile"] or b["table"]):
        n = traj.n_steps
        pair = (traj.state(n - 1), traj.state(n))
        p = recover_pressure(pair, basis, lift, cfg.nu)
        save_scalar(ctx.path("pressure_final.npz"), p, t=traj.times[-1])
        summary["momentum_residual_drop"] = float(
            momentum_residual_drop(pair, basis, lift, cfg.nu))
    return [], summary


def _run_verify(ctx):
    cfg = ctx.config.solver
    vcfg = ctx.config.raw["verify"]
    basis, lift, tensors, traj = _solve_common(ctx)

    energy = check_energy_inequality(traj, cfg.nu, poincare_constant(basis),
                                     beta=lift.beta, kappa=vcfg["kappa"])
    ball = check_h1_bound(traj, vcfg["m_radius"])
    audit = check_tensors(tensors, basis, lift)

    write_csv(ctx.path("violations.csv"), ["step", "lhs", "rhs", "violation"],
              zip(range(1, len(energy.lhs) + 1), energy.lhs, energy.rhs, energy.violations))
    return [energy.gate, ball.gate, audit.gate], {
        "h1_sup": float(ball.lhs.max()), "beta": lift.beta, "kappa": vcfg["kappa"]}


def _run_stability(ctx):
    cfg = ctx.config.solver
    amp = ctx.config.raw["stability"]["perturbation"]
    basis, lift, tensors, rng = ctx.pipeline()
    v0 = ctx.initial_state(basis, rng)
    z = rng.standard_normal(cfg.m)
    z *= amp / vnorm(z, basis.eigenvalues)
    w0 = GalerkinState(0.0, v0.c + z)
    rep = stability_experiment(cfg, v0, w0, lift, basis, tensors=tensors,
                               m_radius=ctx.config.raw["verify"]["m_radius"])
    rows = list(zip(rep.times, rep.z_norms, rep.envelope, rep.ratios))
    write_csv(ctx.path("z_norms.csv"), ["t", "z_vnorm", "envelope", "ratio"], rows)
    return rep.gates(), {"z0": float(rep.z_norms[0]), "zT": float(rep.z_norms[-1])}


def _run_reproductive(ctx):
    cfg = ctx.config.solver
    rcfg = ctx.config.raw["reproductive"]
    basis, lift, tensors, _ = ctx.pipeline()

    budget = validate_budget(ctx.config.boundary, lift, cfg.nu,
                             m_radius=ctx.config.raw["verify"]["m_radius"])
    # first, as it refuses (RegimeViolation) data outside the budget
    contraction = measure_contraction(cfg, lift, basis, pairs=rcfg["pairs"],
                                      seed=ctx.config.seed, budget=budget, tensors=tensors)
    write_csv(ctx.path("contraction.csv"), ["pair", "ratio", "envelope"],
              [(i, r, contraction.envelope) for i, r in enumerate(contraction.ratios)])

    report = find_reproductive(cfg, lift, basis, tol=rcfg["tol"],
                               tensors=tensors, m_radius=budget.m_radius)
    ratios = report.ratios
    rows = [(k, r, ratios[k - 1] if 1 <= k <= len(ratios) else "")
            for k, r in enumerate(report.residuals)]
    write_csv(ctx.path("residuals.csv"), ["iteration", "residual", "ratio"], rows)
    save_vector(ctx.path("v0_reproductive.npz"), report.v0)
    return budget.gates() + report.gates() + contraction.gates(), {
        "iterations": report.n_iterations, "residuals": report.residuals,
        "l2_closure": report.l2_closure, "envelope": contraction.envelope,
        "beta": lift.beta, "m_radius": budget.m_radius}


RUNNERS = {
    "eigs": _run_eigs,
    "lift": _run_lift,
    "solve": _run_solve,
    "verify": _run_verify,
    "stability": _run_stability,
    "reproductive": _run_reproductive,
}


# ---------------------------------------------------------------------------
# manifest + entry point
# ---------------------------------------------------------------------------


def _config_hash(config):
    """sha256 prefix of the effective config (but its out) and the table's bytes."""
    effective = {key: val for key, val in config.raw.items() if key != "out"}
    blob = json.dumps(effective, sort_keys=True).encode()
    if config.table is not None:
        blob += config.table["sha256"].encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _gate_record(gate):
    return {**dataclasses.asdict(gate), "margin": gate.margin, "passed": gate.passed}


def run(config):
    """Execute one experiment; returns (exit_code, manifest_dict)."""
    ctx = RunContext(config)
    eff_path = ctx.path("effective_config.json")
    _atomic_json(eff_path, config.raw)

    manifest = {
        "experiment": config.experiment,
        "config_hash": _config_hash(config),
        "code_version": __version__,
        "basis_cache_key": ctx.basis_cache_key(),
        "seed": config.seed,
        "passed": False,  # until the runner's gates say otherwise
    }
    if config.table is not None:
        manifest["boundary_table"] = config.table
    started = time.monotonic()
    try:
        gates, manifest["summary"] = RUNNERS[config.experiment](ctx)
        manifest["gates"] = [_gate_record(g) for g in gates]
        manifest["passed"] = all(g.passed for g in gates)
        for g in gates:
            print(g.line())
        code = 0 if manifest["passed"] else 1
    except ConfigError as exc:
        manifest["config_error"] = str(exc)
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except RegimeViolation as exc:
        manifest["gates"] = [_gate_record(g) for g in exc.gates]
        manifest["regime_violation"] = str(exc)
        print(f"out of regime: {exc}", file=sys.stderr)
        code = 1
    except (BlowupDetected, SolverFailure, EigensolverError, NonConvergence) as exc:
        manifest["numerical_failure"] = f"{type(exc).__name__}: {exc}"
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 3
    manifest["wall_clock_s"] = round(time.monotonic() - started, 3)
    manifest["outputs"] = ctx.outputs + ["manifest.json"]
    _atomic_json(os.path.join(ctx.outdir, "manifest.json"), manifest)
    print(f"{'pass' if manifest['passed'] else 'FAIL'}  manifest: "
          f"{os.path.join(ctx.outdir, 'manifest.json')}")
    return code, manifest


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="reproflow",
        description="wall-driven incompressible flow: spectral solver, "
                    "estimate monitors, reproductive data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="YAML run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config, out_override=args.out,
                              seed_override=args.seed)
        if config.experiment != args.command:
            raise ConfigFileError(
                f"config names experiment {config.experiment!r} but the "
                f"subcommand is {args.command!r}")
        code, _ = run(config)
    except ConfigFileError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())

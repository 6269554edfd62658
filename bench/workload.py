"""One benchmark workload in its own process: set-up, timed iterations, checks.

Started by run.py, never by hand:

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
        --work DIR --result FILE [--setup-only]

The process imports reproflow from the checkout's ``src`` (run.py puts it
on PYTHONPATH), builds the workload's fixture, then runs iterations until
`--seconds` have passed.  Each iteration is timed as a whole and then
checked; the checks are not timed.  With ``--trace 1`` iterations
alternate untraced and traced, so one process gives the per-layer
breakdown and the tracing overhead.  Everything is written as JSON to
`--result`; run.py turns it into metrics.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLOCK = spans.CLOCK
RTOL = 1e-6  # reference agreement, as for ROADMAP item 2's pinned values
NU = 1.0
EPSILON = 0.4
AMPLITUDE = 1e-2
CLI_TIMEOUT_S = 120

# Imported in main(), after run.py has pinned the BLAS threads.
np = cli = fields = galerkin = lift = reproductive = snapshots = stokes = verification = None


def _import_library():
    global np, cli, fields, galerkin, lift, reproductive, snapshots, stokes, verification
    import numpy as np
    from reproflow import (cli, fields, galerkin, lift, reproductive, snapshots,
                           stokes, verification)


def _vnorm(c, lam):
    return float(np.sqrt((c**2) @ lam))


def ball_state(rng, lam, radius):
    """Coefficient state of V-norm `radius` in a seeded uniform direction."""
    c = rng.standard_normal(len(lam))
    return galerkin.GalerkinState(0.0, c * (radius / _vnorm(c, lam)))


def close_to(failures, name, value, ref):
    if not abs(value - ref) <= RTOL * abs(ref):
        failures.append(f"{name} = {value!r}, reference {ref!r} (rtol {RTOL:g})")


def at_most(failures, name, value, bound):
    if not value <= bound:
        failures.append(f"{name} = {value!r} exceeds {bound!r}")


def require(failures, name, ok):
    if not ok:
        failures.append(f"{name} failed")


class Workload:
    """Set-up in __init__; `iterate` is timed, `check` is not."""

    m = None

    def __init__(self, ctx):
        self.ctx = ctx
        self.ref = ctx.reference[ctx.name]

    def iterate(self, k, tracer):
        raise NotImplementedError

    def check(self, out):
        raise NotImplementedError


class Trajectory(Workload):
    """One long verified solve at 48/64 from a seeded state in the ball."""

    m = 64
    horizon = 2.0

    def __init__(self, ctx):
        super().__init__(ctx)
        self.grid = fields.Grid("square", 48)
        self.boundary = lift.boundary_profile(self.grid, "bottom_bump", amplitude=AMPLITUDE)
        self.basis = stokes.compute_eigenbasis(self.grid, self.m,
                                               cache_dir=ctx.fresh_dir("cache"))
        self.config = galerkin.SolverConfig(nu=NU, T=self.horizon, dt=1e-3, m=self.m,
                                            epsilon=EPSILON, nx=48)
        self.kappa = cli.SCHEMA["verify"]["kappa"][0]
        self.m_radius = cli.SCHEMA["verify"]["m_radius"][0]

    def iterate(self, k, tracer):
        u0 = ball_state(self.ctx.rng, self.basis.eigenvalues,
                        self.m_radius * self.ctx.rng.uniform(0.5, 1.0))
        lf = lift.build_lift(self.boundary, EPSILON, self.grid)
        tensors = galerkin.assemble_tensors(self.basis, lf, nu=NU)
        traj = galerkin.solve(self.config, u0, lf, self.basis, tensors=tensors)
        energy = verification.check_energy_inequality(
            traj, NU, verification.poincare_constant(self.basis), beta=lf.beta,
            kappa=self.kappa)
        ball = verification.check_h1_bound(traj, self.m_radius)
        return {"steps": traj.n_steps, "l2sq": float(traj.l2sq[-1]),
                "h1sq": float(traj.h1sq[-1]), "energy_passed": energy.passed,
                "ball_passed": ball.passed}

    def check(self, out):
        bad = []
        close_to(bad, "final l2sq", out["l2sq"], self.ref["l2sq"])
        close_to(bad, "final h1sq", out["h1sq"], self.ref["h1sq"])
        require(bad, "energy inequality", out["energy_passed"])
        require(bad, "h1 ball bound", out["ball_passed"])
        return bad


class ColdBuild(Workload):
    """A new resolution from nothing: basis into an empty cache, then tensors."""

    m = 64

    def __init__(self, ctx):
        super().__init__(ctx)
        self.grid = fields.Grid("square", 96)
        self.boundary = lift.boundary_profile(self.grid, "bottom_bump", amplitude=AMPLITUDE)
        self.config = galerkin.SolverConfig(nu=NU, T=0.05, dt=1e-3, m=self.m,
                                            epsilon=EPSILON, nx=96)

    def iterate(self, k, tracer):
        cache = self.ctx.fresh_dir(f"cache-{k}")
        basis = stokes.compute_eigenbasis(self.grid, self.m, cache_dir=cache)
        lf = lift.build_lift(self.boundary, EPSILON, self.grid)
        lift.compute_forcing(lf, NU)
        tensors = galerkin.assemble_tensors(basis, lf)
        u0 = ball_state(self.ctx.rng, basis.eigenvalues, 0.05 * self.ctx.rng.uniform(0.5, 1.0))
        traj = galerkin.solve(self.config, u0, lf, basis, tensors=tensors)
        n = traj.n_steps
        pressure = galerkin.recover_pressure((traj.state(n - 1), traj.state(n)),
                                             basis, lf, NU)
        return {"steps": n, "basis": basis, "lift": lf, "tensors": tensors,
                "pressure": pressure, "cache": cache, "coeffs": traj.coeffs}

    def check(self, out):
        bad = []
        basis, tensors, p = out["basis"], out["tensors"], out["pressure"].values
        close_to(bad, "lambda_1", float(basis.eigenvalues[0]), self.ref["lambda_1"])
        at_most(bad, "orthonormality error", basis.orthonormality_error(), 1e-10)
        at_most(bad, "max eigen residual", float(basis.eigen_residuals().max()), 1e-8)
        at_most(bad, "lift divergence",
                float(np.abs(fields.divergence(out["lift"].G_eps).values).max()), 1e-13)
        # Frobenius norms are invariant under rotations inside degenerate
        # eigenspaces (lambda_64 < lambda_65 here, so the span is fixed).
        close_to(bad, "|B|", float(np.linalg.norm(tensors.B)), self.ref["B_norm"])
        close_to(bad, "|D+E|", float(np.linalg.norm(tensors.D + tensors.E)),
                 self.ref["DE_norm"])
        close_to(bad, "|F|", float(np.linalg.norm(tensors.F)), self.ref["F_norm"])
        require(bad, "finite trajectory", bool(np.isfinite(out["coeffs"]).all()))
        require(bad, "finite pressure", bool(np.isfinite(p).all()))
        at_most(bad, "pressure mean", abs(float(p.mean())), 1e-12 * float(np.abs(p).max()))
        require(bad, "basis cache written",
                any(f.endswith(".npz") for f in os.listdir(out["cache"])))
        shutil.rmtree(out["cache"])
        return bad


class PeriodMap(Workload):
    """Reproductive datum, contraction sample and a stability pair at T = 0.02."""

    m = 32
    pairs = 20

    def __init__(self, ctx):
        super().__init__(ctx)
        self.grid = fields.Grid("square", 48)
        boundary = lift.boundary_profile(self.grid, "bottom_bump", amplitude=AMPLITUDE)
        self.basis = stokes.compute_eigenbasis(self.grid, self.m,
                                               cache_dir=ctx.fresh_dir("cache"))
        self.lift = lift.build_lift(boundary, EPSILON, self.grid)
        self.tensors = galerkin.assemble_tensors(self.basis, self.lift, nu=NU)
        self.budget = reproductive.validate_budget(boundary, self.lift, NU)
        # nu * lambda_1 * T = 1.05: Picard contracts at about 0.35 per solve.
        self.config = galerkin.SolverConfig(nu=NU, T=0.02, dt=1e-4, m=self.m,
                                            epsilon=EPSILON, nx=48)
        self.perturbation = cli.SCHEMA["stability"]["perturbation"][0]

    def iterate(self, k, tracer):
        rng, lam, radius = self.ctx.rng, self.basis.eigenvalues, self.budget.m_radius
        pair_seed = int(rng.integers(2**31))
        v0 = ball_state(rng, lam, radius * rng.uniform(0.2, 0.5))
        z = ball_state(rng, lam, self.perturbation)
        w0 = galerkin.GalerkinState(0.0, v0.c + z.c)
        with warnings.catch_warnings():
            # sup-norm excursions past the ball are reported, not fatal
            warnings.simplefilter("ignore", reproductive.BallExit)
            t0 = time.perf_counter()
            fixed = reproductive.find_reproductive(self.config, self.lift, self.basis,
                                                   tol=1e-10, tensors=self.tensors,
                                                   m_radius=radius)
            fixed_point_s = time.perf_counter() - t0
            contraction = reproductive.measure_contraction(
                self.config, self.lift, self.basis, pairs=self.pairs, seed=pair_seed,
                budget=self.budget, tensors=self.tensors)
        stability = verification.stability_experiment(
            self.config, v0, w0, self.lift, self.basis, tensors=self.tensors,
            m_radius=radius)
        solves = fixed.n_iterations + 2 * len(contraction.ratios) + 2
        return {"steps": solves * self.config.n_steps(), "fixed_point_s": fixed_point_s,
                "fixed": fixed, "contraction": contraction, "stability": stability}

    def check(self, out):
        bad = []
        fixed, contraction = out["fixed"], out["contraction"]
        require(bad, "Picard converged", fixed.converged)
        close_to(bad, "fixed-point V-norm", _vnorm(fixed.state.c, self.basis.eigenvalues),
                 self.ref["fixed_point_vnorm"])
        require(bad, "Picard ratios within 1.1 exp(-nu T)",
                all(r <= contraction.envelope * 1.1 for r in fixed.ratios))
        require(bad, "contraction gate", contraction.passed(0.1))
        require(bad, f"{self.pairs} contraction pairs", len(contraction.ratios) == self.pairs)
        require(bad, "stability gate", out["stability"].passed(0.05))
        return bad


class CliSuite(Workload):
    """The six CLI experiments, each a fresh process, sharing one fresh cache."""

    m = 32

    def __init__(self, ctx):
        super().__init__(ctx)
        self.seed = int(ctx.rng.integers(2**31))
        self.configs = {}
        cfg_dir = ctx.fresh_dir("configs")
        for exp in cli.EXPERIMENTS:
            path = os.path.join(cfg_dir, f"{exp}.yaml")
            with open(path, "w") as fh:
                fh.write(f"experiment: {exp}\nboundary:\n  profile: bottom_bump\n"
                         f"  amplitude: {AMPLITUDE!r}\n")
            cli.parse_config(path)  # a config the CLI would reject fails here
            self.configs[exp] = path
        self.first_csvs = None

    def iterate(self, k, tracer):
        root = self.ctx.fresh_dir(f"iter-{k}")
        env = dict(os.environ, **{cli.CACHE_ENV: os.path.join(root, "cache")})
        runs = {}
        for exp in cli.EXPERIMENTS:
            out = os.path.join(root, exp)
            args = [exp, "--config", self.configs[exp], "--out", out,
                    "--seed", str(self.seed)]
            if tracer is None:
                cmd, span = [sys.executable, "-m", "reproflow.cli"], contextlib.nullcontext()
            else:
                trace_out = os.path.join(root, f"{exp}.trace.json")
                cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), trace_out, "--"]
                span = tracer.span(f"cli.{exp}")
            with span as idx:
                proc = subprocess.run(cmd + args, env=env, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, timeout=CLI_TIMEOUT_S)
            if tracer is not None and os.path.exists(trace_out):
                with open(trace_out) as fh:
                    child = json.load(fh)
                tracer.adopt(child["spans"], child["counters"], idx)
            runs[exp] = {"code": proc.returncode, "stderr": proc.stderr.decode()[-2000:],
                         "out": out}
        return {"root": root, "runs": runs}

    def _read(self, out):
        """Manifests, CSV digests and ODE step counts of one iteration."""
        steps, digests, manifests = 0, {}, {}
        for exp, run in out["runs"].items():
            with open(os.path.join(run["out"], "manifest.json")) as fh:
                man = json.load(fh)
            manifests[exp] = man
            with open(os.path.join(run["out"], "effective_config.json")) as fh:
                solver = json.load(fh)["solver"]
            n = int(round(solver["T"] / solver["dt"]))
            summary = man.get("summary", {})
            solves = {"solve": 1, "verify": 1, "stability": 2}.get(exp, 0)
            if exp == "reproductive":
                solves = summary["iterations"] + 2 * len(_csv_rows(run["out"], "contraction.csv"))
            steps += solves * n
            for name in man["outputs"]:
                if name.endswith(".csv"):
                    with open(os.path.join(run["out"], name), "rb") as fh:
                        digests[f"{exp}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        return steps, digests, manifests

    def check(self, out):
        bad = []
        for exp, run in out["runs"].items():
            if run["code"] != 0:
                bad.append(f"{exp} exited {run['code']}: {run['stderr']}")
        if bad:
            return bad
        steps, digests, manifests = self._read(out)
        out["steps"] = steps
        out["manifest_s"] = {e: m["wall_clock_s"] for e, m in manifests.items()}
        for exp, man in manifests.items():
            require(bad, f"{exp} manifest passed", man.get("passed") is True)
        if self.first_csvs is None:
            self.first_csvs = digests
        elif digests != self.first_csvs:
            changed = sorted(k for k in set(digests) | set(self.first_csvs)
                             if digests.get(k) != self.first_csvs.get(k))
            bad.append(f"CSV bytes differ from the first iteration: {changed}")
        solve = manifests["solve"]["summary"]
        close_to(bad, "solve l2sq_final", solve["l2sq_final"], self.ref["l2sq_final"])
        close_to(bad, "solve h1sq_final", solve["h1sq_final"], self.ref["h1sq_final"])
        lam1 = float(_csv_rows(out["runs"]["eigs"]["out"], "eigenvalues.csv")[0][1])
        close_to(bad, "lambda_1", lam1, self.ref["lambda_1"])
        for exp, name in (("lift", "lift_G.npz"), ("solve", "v_final.npz"),
                          ("reproductive", "v0_reproductive.npz")):
            field, _ = snapshots.load(os.path.join(out["runs"][exp]["out"], name))
            require(bad, f"{exp} snapshot finite",
                    bool(np.isfinite(field.u).all() and np.isfinite(field.v).all()))
        shutil.rmtree(out["root"])
        return bad


def _csv_rows(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return [line.rstrip("\n").split(",") for line in fh.readlines()[1:]]


WORKLOADS = {
    "trajectory": Trajectory,
    "cold_build": ColdBuild,
    "period_map": PeriodMap,
    "cli_suite": CliSuite,
}


class Context:
    def __init__(self, name, seed, work):
        self.name = name
        self.rng = np.random.default_rng(seed)
        self.work = work
        with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
            self.reference = json.load(fh)

    def fresh_dir(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def fingerprint():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def layer_metrics(tracer, samples, workload):
    """Per-layer metrics of a traced run, each with its unit.

    Self times and counts are means per verified traced iteration.  The
    untraced iterations give the tracing overhead and `fixed_point_s`.
    """
    plain = [s for s in samples if not s["traced"] and not s["failures"]]
    samples = [s for s in samples if s["traced"] and not s["failures"]]
    n = len(samples)
    traced = {s["iteration"] for s in samples}
    roll = spans.rollup(tracer.spans, traced)

    def row(name):
        return roll.get(name, {"calls": 0, "wall": 0.0, "self": 0.0})

    def self_s(name):
        return row(name)["self"] / n

    def calls(name):
        return row(name)["calls"] / n

    out = {}
    step = row("galerkin.step")
    evals = 2 * step["calls"] / n  # two right-hand sides per Heun step
    out["galerkin.step.calls"] = (calls("galerkin.step"), "count")
    out["galerkin.step.s"] = (self_s("galerkin.step"), "s")
    out["galerkin.step.us"] = (1e6 * step["self"] / step["calls"] if step["calls"] else 0.0,
                               "us")
    out["galerkin.nonstiff.flop_computed"] = (evals * 2 * workload.m**3, "flop")
    out["galerkin.nonstiff.bytes_computed"] = (evals * 8 * workload.m**3, "B")
    for name in ("galerkin.solve", "fields.advect", "fields.trilinear",
                 "stokes.compute_eigenbasis", "reproductive.map_L"):
        out[f"{name}.calls"] = (calls(name), "count")
    for name in ("galerkin.solve", "galerkin.assemble_tensors", "fields.advect",
                 "fields.trilinear", "stokes.compute_eigenbasis", "stokes.eigsh",
                 "lift.build_stream_function", "lift.build_lift", "lift.compute_forcing",
                 "lift.compute_beta", "lift.verify_smallness", "galerkin.recover_pressure",
                 "reproductive.find_reproductive", "reproductive.measure_contraction",
                 "verification.check_energy_inequality", "verification.stability_experiment",
                 "snapshots.save_vector"):
        out[f"{name}.s"] = (self_s(name), "s")
    basis_calls = row("stokes.compute_eigenbasis")["calls"]
    hits = basis_calls - row("stokes.eigsh")["calls"]
    out["stokes.cache_hit_ratio"] = (hits / basis_calls if basis_calls else 0.0, "ratio")
    picard = sum(1 for name, _, _, parent, it in tracer.spans
                 if name == "reproductive.map_L" and it in traced and parent is not None
                 and tracer.spans[parent][0] == "reproductive.find_reproductive")
    out["reproductive.picard_iterations"] = (picard / n, "count")
    written = sum(v for name, v, it in tracer.counters
                  if name == "snapshots.bytes_written" and it in traced)
    out["snapshots.bytes_written"] = (written / n, "B")
    imports = row("cli.import")
    out["cli.import_s"] = (imports["wall"] / imports["calls"] if imports["calls"] else 0.0, "s")
    for exp in cli.EXPERIMENTS:
        out[f"cli.{exp}.s"] = (row(f"cli.{exp}")["wall"] / n, "s")
    for exp in cli.EXPERIMENTS:
        out[f"cli.{exp}.manifest_s"] = (
            sum(s["manifest_s"][exp] for s in samples) / n if "manifest_s" in samples[0]
            else 0.0, "s")
    fixed = [s["fixed_point_s"] for s in plain if "fixed_point_s" in s]
    out["fixed_point_s"] = (statistics.median(fixed) if fixed else 0.0, "s")
    traced_p50 = statistics.median(s["s"] for s in samples)
    untraced_p50 = statistics.median(s["s"] for s in plain)
    out["trace.iter_s_p50"] = (traced_p50, "s")
    out["trace.untraced_iter_s_p50"] = (untraced_p50, "s")
    out["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    out["trace.glue_s"] = (self_s("iteration"), "s")
    out["trace.self_sum_s"] = (sum(r["self"] for r in roll.values()) / n, "s")
    out["trace.iter_s_mean"] = (row("iteration")["wall"] / n, "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def _iteration(workload, k, tracer):
    t0 = time.perf_counter()
    try:
        out, error = workload.iterate(k, tracer), None
    except Exception:
        out, error = None, traceback.format_exc()
    return out, error, time.perf_counter() - t0


def _traced_iteration(workload, k, tracer):
    """An iteration under the tracer, rooted in one span named `iteration`."""
    tracer.iteration = k
    tracer.install()
    try:
        with tracer.span("iteration"):
            return _iteration(workload, k, tracer)
    finally:
        tracer.uninstall()
        tracer.iteration = None


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    _import_library()
    ctx = Context(args.workload, args.seed, args.work)
    workload = WORKLOADS[args.workload](ctx)
    setup_done = CLOCK()
    result = {"setup_done": setup_done}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = spans.Tracer() if args.trace else None
    samples = []
    k = 0
    while True:
        is_traced = bool(args.trace) and k % 2 == 1
        if is_traced:
            out, error, seconds = _traced_iteration(workload, k, tracer)
        else:
            out, error, seconds = _iteration(workload, k, None)
        if out is not None:
            try:
                failures = workload.check(out)
            except Exception:
                failures = [traceback.format_exc()]
        else:
            failures = [error]
        sample = {"iteration": k, "s": seconds, "traced": is_traced, "failures": failures,
                  "steps": (out or {}).get("steps", 0)}
        for key in ("fixed_point_s", "manifest_s"):
            if out is not None and key in out:
                sample[key] = out[key]
        samples.append(sample)
        k += 1
        if CLOCK() - setup_done >= args.seconds and (not args.trace or k >= 2):
            break

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(fingerprint=fingerprint(), samples=samples,
                  peak_rss_mb=usage * 1024 / 1e6)
    if tracer is not None:
        tracer.dump(args.trace_out)
        if all(any(s["traced"] == t and not s["failures"] for s in samples)
               for t in (False, True)):
            result["layers"] = layer_metrics(tracer, samples, workload)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

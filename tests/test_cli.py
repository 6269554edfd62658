"""The run front end: config validation, artifacts, manifests, exit codes."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

from reproflow import __version__, cli
from reproflow.cli import main, parse_config, ConfigFileError
from reproflow.fields import Grid
from reproflow.galerkin import BlowupDetected
from reproflow.lift import SolverFailure, boundary_profile, build_lift
from reproflow.reproductive import NonConvergence
from reproflow.snapshots import load
from reproflow.stokes import EigensolverError, compute_eigenbasis
from reproflow.verification import Gate

# a tent of wall speed on the bottom wall, clear of the corners
TENT = "# s value\n0.0 0\n0.3 0.0\n0.5 {peak}\n0.7 0.0\n3.9 0\n"


def write_config(tmp_path, name="run.yaml", **overrides):
    cfg = {
        "experiment": "solve",
        "out": str(tmp_path / "out"),
        "solver": {"nu": 1.0, "T": 0.05, "dt": 1e-3, "m": 6, "epsilon": 0.4, "nx": 24},
        "boundary": {"profile": "bottom_bump", "amplitude": 0.01},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def read_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


def gates_of(manifest):
    return {g["name"]: g for g in manifest["gates"]}


def test_unknown_keys_reported_with_paths(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    # reproductive.max_iter and budget are not keys: the Picard cap is
    # derived from the first residual, the budget's bounds are the calibrated
    # fixture's, and verify.m_radius is the ball
    path.write_text("experiment: solve\nboundar: {profile: x}\n"
                    "verify: {kapa: 1.0}\nsolver: {dx: 0.1}\n"
                    "reproductive: {max_iter: 3}\nbudget: {m_radius: 0.05}\n")
    rc = main(["solve", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    for needle in ("boundar", "verify.kapa", "solver.dx", "reproductive.max_iter",
                   "budget"):
        assert f"{needle}: unknown key" in err, err


@pytest.mark.parametrize("dotted", ["solver.nu", "verify.kappa", "seed"])
def test_null_rejected_where_default_is_set(tmp_path, capsys, dotted):
    *section, key = dotted.split(".")
    path = write_config(tmp_path, **({section[0]: {key: None}} if section else {key: None}))
    rc = main(["solve", "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{dotted}: expected" in err, err


@pytest.mark.parametrize("dotted, value", [
    ("reproductive.tol", 0.0), ("reproductive.tol", -1.0), ("reproductive.pairs", 0),
    ("sweep.epsilons", []), ("sweep.epsilons", [0.4, 1.5]), ("sweep.epsilons", ["a"]),
    ("sweep.samples", 0), ("stability.perturbation", 0.0),
    ("verify.m_radius", 0.0),
    ("verify", 3), ("solver.m", "six"), ("initial.kind", "box"),
    ("initial.radius", -0.05), ("initial.radius", 0.0)],
    ids=["tol=0", "tol<0", "pairs=0", "epsilons=[]", "epsilon>1", "epsilon=str",
         "samples=0", "perturbation=0", "m_radius=0", "section=number", "m=str",
         "kind=box", "radius<0", "radius=0"])
def test_out_of_range_values_rejected(tmp_path, capsys, dotted, value):
    # tol <= 0 and a bad epsilon used to end in a traceback; zero pairs,
    # no epsilons, no samples, a zero perturbation or a zero ball radius
    # (every contraction pair degenerate) passed a gate with nothing measured;
    # a start radius <= 0 ran a flipped or zero "ball" start
    section, _, key = dotted.partition(".")
    exp = {"sweep": "lift", "stability": "stability"}.get(section, "reproductive")
    path = write_config(tmp_path, experiment=exp, **{section: {key: value} if key else value})
    rc = main([exp, "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{dotted}: expected" in err, err


@pytest.mark.parametrize("flag", ["--tol=1e-8", "--pairs=2", "--force-rebuild-basis"])
def test_run_values_have_no_flags(tmp_path, capsys, flag):
    path = write_config(tmp_path, experiment="reproductive")
    with pytest.raises(SystemExit) as exc:
        main(["reproductive", "--config", path, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_dt_must_divide_horizon(tmp_path, capsys):
    path = write_config(tmp_path, solver={"dt": 0.3, "T": 1.0})
    rc = main(["solve", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "dt" in err and "T" in err


def test_bad_solver_values(tmp_path, capsys):
    for overrides in ({"nu": -1.0}, {"nx": 2}, {"m": 0}):
        path = write_config(tmp_path, name=f"b{len(overrides)}.yaml",
                            solver=overrides)
        assert main(["solve", "--config", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("exp, solver", [
    ("eigs", {"nx": 8, "m": 32}),
    ("solve", {"nx": 8, "m": 13})],
    ids=["square_eigs", "square_solve"])
def test_modes_over_the_grid_cap_rejected(tmp_path, capsys, exp, solver):
    # the cap at nx = 8 is 12 modes; over it a run used to end in an
    # uncaught ValueError from the basis build
    out = tmp_path / "out"
    path = write_config(tmp_path, experiment=exp, out=str(out), solver=solver,
                        boundary={"profile": None})
    rc = main([exp, "--config", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "solver.m: m = " in err and "exceeds the spectral-accuracy cap" in err, err
    assert not out.exists()


def test_grid_kind_key_rejected(tmp_path, capsys):
    # the unit square is the only domain, so there is no key to choose one
    path = write_config(tmp_path, solver={"grid_kind": "square"})
    assert main(["solve", "--config", path]) == 2
    assert "solver.grid_kind: unknown key" in capsys.readouterr().err


def test_profile_and_table_are_exclusive(tmp_path, capsys):
    path = write_config(tmp_path, boundary={"profile": "bottom_bump",
                                            "table": "walls.txt"})
    assert main(["solve", "--config", path]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", [None, "0.5 abc\n", ""],
                         ids=["missing", "non_numeric", "empty"])
def test_bad_boundary_table_is_a_config_error(tmp_path, capsys, content):
    table = tmp_path / "walls.txt"
    if content is not None:
        table.write_text(content)
    path = write_config(tmp_path, boundary={"profile": None, "table": str(table)})
    assert main(["solve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(table) in err, err


SMALL = "solver: {nx: 24, m: 6, T: 0.05}\n"


@pytest.mark.parametrize("exp, text, table, needle", [
    ("solve", "experiment: solve\nsolver: {nu: [1.0\n", None, "config is not valid YAML"),
    ("solve", "experiment: bogus\n", None,
     "experiment: expected one of eigs, lift, solve, verify, stability, reproductive, "
     "got 'bogus'"),
    ("lift", "experiment: lift\n", None, "boundary: the lift experiment needs wall data"),
    ("reproductive", "experiment: reproductive\nboundary: {amplitude: 0.01}\n", None,
     "boundary: the reproductive experiment needs wall data"),
    ("solve", "experiment: solve\n" + SMALL + "boundary: {profile: bottom_bumb}\n", None,
     "boundary.profile: unknown profile 'bottom_bumb'"),
    ("solve", "experiment: solve\n" + SMALL + "boundary: {table: walls.txt}\n",
     "0.5 abc\n", "walls.txt: not a readable numeric table"),
    # s = 0.02 puts wall speed on node 1 of the bottom wall, a cell from the corner
    ("solve", "experiment: solve\n" + SMALL + "boundary: {table: walls.txt}\n",
     "0.0 0\n0.02 1.0\n0.5 0\n3.9 0\n",
     "boundary.table: wall 'bottom': sample 1 is 1 cells from a corner"),
    ("reproductive", "experiment: reproductive\n" + SMALL
     + "boundary: {profile: bottom_bump}\nreproductive: {tol: 0}\n", None,
     "reproductive.tol: expected a positive number, got 0.0"),
    ("solve", "experiment: solve\nsolver: {nx: 8, m: 13}\n", None,
     "solver.m: m = 13 exceeds the spectral-accuracy cap 12")],
    ids=["invalid_yaml", "unknown_experiment", "lift_without_walls",
         "reproductive_without_walls", "unknown_profile", "non_numeric_table",
         "table_inside_corner_margin", "tol_zero", "modes_over_cap"])
def test_config_refusals_name_the_problem(tmp_path, capsys, exp, text, table, needle):
    # every refusal comes before the output directory, cache included, is made
    path = tmp_path / "run.yaml"
    path.write_text(text)
    if table is not None:
        (tmp_path / "walls.txt").write_text(table)
    assert main([exp, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and needle in err, err
    assert not (tmp_path / "out").exists()


def test_refusal_during_the_run_writes_a_manifest(tmp_path, capsys):
    # a start this large breaks the explicit dt bound, which only the run can check
    out = tmp_path / "out"
    path = write_config(tmp_path, out=str(out), initial={"kind": "ball", "radius": 1000.0})
    assert main(["solve", "--config", path]) == 2
    assert "config error: dt = 0.001 exceeds the explicit stability bound" in (
        capsys.readouterr().err)
    man = read_manifest(str(out))
    assert man["passed"] is False
    assert man["config_error"].startswith("dt = 0.001 exceeds the explicit stability bound")
    assert "manifest.json" in man["outputs"]


def test_config_hash_covers_the_table_bytes(tmp_path, capsys):
    table = tmp_path / "walls.txt"
    path = write_config(tmp_path, boundary={"profile": None, "table": "walls.txt"})
    manifests = []
    for out, peak in (("a", 0.01), ("b", 0.01), ("c", 0.02)):
        table.write_text(TENT.format(peak=peak))
        assert main(["solve", "--config", path, "--out", str(tmp_path / out)]) == 0
        manifests.append(read_manifest(str(tmp_path / out)))
    capsys.readouterr()
    a, b, c = manifests
    assert a["config_hash"] == b["config_hash"]  # only --out differs
    assert c["config_hash"] != a["config_hash"]  # the table was edited
    digest = hashlib.sha256(TENT.format(peak=0.02).encode()).hexdigest()
    assert c["boundary_table"] == {"path": str(table), "sha256": digest}


def test_relative_table_is_read_beside_the_config(tmp_path, capsys, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "walls.txt").write_text(TENT.format(peak=1.0))
    write_config(sub, name="rel.yaml", experiment="lift", solver={"nx": 48, "m": 4},
                 boundary={"profile": None, "table": "walls.txt"}, sweep={"samples": 20})
    csvs = []
    for cwd, config in ((tmp_path, "sub/rel.yaml"), (sub, "rel.yaml")):
        monkeypatch.chdir(cwd)
        out = tmp_path / f"out_{cwd.name}"
        assert main(["lift", "--config", config, "--out", str(out)]) == 0
        csvs.append((out / "beta_vs_eps.csv").read_bytes())
        # the effective config keeps the path as written
        eff = json.loads((out / "effective_config.json").read_text())
        assert eff["boundary"]["table"] == "walls.txt"
    capsys.readouterr()
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("failure", [
    BlowupDetected(7, 2e6), SolverFailure("residual 1e-3"), EigensolverError("stalled"),
    NonConvergence("tol not reached", [1e-2, 1e-3])], ids=lambda exc: type(exc).__name__)
def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch, failure):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(cli, "solve", fail)
    out = str(tmp_path / "out")
    assert main(["solve", "--config", write_config(tmp_path, out=out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    man = read_manifest(out)
    assert man["passed"] is False
    assert man["numerical_failure"].startswith(f"{type(failure).__name__}: ")


def test_subcommand_must_match_experiment(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["eigs", "--config", path]) == 2
    capsys.readouterr()


def test_missing_config_file(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "not found" in capsys.readouterr().err


def test_defaults_are_logged(tmp_path):
    path = write_config(tmp_path)
    cfg = parse_config(path)
    # untouched sections arrive fully defaulted
    assert cfg.raw["reproductive"]["tol"] == 1e-10
    assert cfg.raw["verify"]["m_radius"] == 0.05
    assert "budget" not in cfg.raw
    assert cfg.raw["sweep"]["epsilons"] == [0.4, 0.2, 0.1, 0.05]
    assert cfg.solver.nx == 24


def test_code_version_matches_pyproject():
    # CSV bytes are pinned per code version, so the two must move together
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:
        found = re.search(r'^version = "([^"]+)"$', fh.read(), re.MULTILINE)
    assert found is not None
    assert found.group(1) == __version__


SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_does_not_load_scipy_fft():
    # importing the CLI must not load any scipy module
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    code = f"import sys, reproflow.cli; print({SCIPY_MODULES})"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_warm_runs_load_no_scipy(tmp_path):
    # with the basis cached, lift, solve and verify (which reaches the Leray
    # projector through the tensor audit) run on numpy alone
    cache = str(tmp_path / "cache")
    compute_eigenbasis(Grid("square", 32), 8, cache_dir=cache)
    paths = [write_config(tmp_path, name=f"{exp}.yaml", experiment=exp,
                          out=str(tmp_path / exp), solver={"nx": 32, "m": 8, "T": 0.1},
                          sweep={"samples": 20})
             for exp in ("lift", "solve", "verify")]
    code = ("import sys\n"
            "from reproflow.cli import main\n"
            "codes = [main([exp, '--config', path])\n"
            "         for exp, path in zip(('lift', 'solve', 'verify'), sys.argv[1:])]\n"
            f"print(codes, {SCIPY_MODULES})\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=src, **{cli.CACHE_ENV: cache})
    out = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[0, 0, 0] []", out.stdout + out.stderr
    for exp in ("lift", "solve", "verify"):
        assert read_manifest(str(tmp_path / exp))["passed"] is True


def test_cli_runs_load_no_scipy(tmp_path):
    # from an empty cache, importing the CLI and running every experiment,
    # the basis build of `eigs` included, load no scipy module
    exps = ("eigs", "lift", "solve", "verify", "stability", "reproductive")
    paths = [write_config(tmp_path, name=f"{exp}.yaml", experiment=exp,
                          out=str(tmp_path / exp), solver={"nx": 32, "m": 8, "T": 0.1},
                          sweep={"samples": 20}, reproductive={"pairs": 2})
             for exp in exps]
    code = ("import sys\n"
            "from reproflow.cli import main\n"
            f"print({SCIPY_MODULES})\n"
            f"codes = [main([exp, '--config', path]) for exp, path in zip({exps}, sys.argv[1:])]\n"
            f"print(codes, {SCIPY_MODULES})\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=src, **{cli.CACHE_ENV: str(tmp_path / "cache")})
    out = subprocess.run([sys.executable, "-c", code, *paths], env=env,
                         capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[]", out.stdout
    assert lines[-1] == "[0, 0, 0, 0, 0, 0] []", out.stdout + out.stderr
    for exp in exps:
        assert read_manifest(str(tmp_path / exp))["passed"] is True


def test_config_root_must_be_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigFileError):
        parse_config(str(path))


def test_eigs_run_artifacts(tmp_path, capsys):
    out = str(tmp_path / "eigs_out")
    path = write_config(tmp_path, experiment="eigs", out=out, boundary={},
                        solver={"nx": 16, "m": 4})
    rc = main(["eigs", "--config", path])
    capsys.readouterr()
    assert rc == 0
    man = read_manifest(out)
    assert man["passed"] is True
    assert gates_of(man)["orthonormality"]["value"] <= 1e-10
    assert set(man["outputs"]) == {"effective_config.json", "eigenvalues.csv",
                                   "manifest.json"}
    for name in man["outputs"]:
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "eigenvalues.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "j,eigenvalue"
    assert len(rows) == 5
    # the square's x <-> y symmetry doubles eigenvalues; the manifest names them
    assert man["summary"]["degenerate_pairs"] == [[1, 2]]
    out48 = str(tmp_path / "eigs48_out")
    path = write_config(tmp_path, name="eigs48.yaml", experiment="eigs", out=out48,
                        boundary={}, solver={"nx": 48, "m": 32})
    assert main(["eigs", "--config", path]) == 0
    capsys.readouterr()
    assert read_manifest(out48)["summary"]["degenerate_pairs"] == [
        [1, 2], [6, 7], [8, 9], [13, 14], [17, 18], [22, 23], [25, 26], [28, 29]]


def test_solve_run_artifacts_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "solve_out")
    path = write_config(tmp_path, out=out)
    rc = main(["solve", "--config", path])
    capsys.readouterr()
    assert rc == 0
    man = read_manifest(out)
    assert man["passed"] and man["experiment"] == "solve"
    assert len(man["config_hash"]) == 16
    assert man["basis_cache_key"].endswith(".npz")
    assert man["wall_clock_s"] >= 0.0
    assert man["code_version"] == __version__
    with open(os.path.join(out, "energy.csv")) as fh:
        header = fh.readline().strip()
    assert header == "t,l2sq,h1sq,h2sq,f_l2sq"
    with open(os.path.join(out, "coeffs.csv")) as fh:
        assert fh.readline().strip() == "t," + ",".join(f"c{j}" for j in range(6))
    assert os.path.exists(os.path.join(out, "v_final.npz"))
    # with wall data the residual's drop cannot judge the run: no pressure
    assert "pressure_final.npz" not in man["outputs"]
    assert not os.path.exists(os.path.join(out, "pressure_final.npz"))
    assert "momentum_residual_drop" not in man["summary"]
    # effective config round-trips through the hash deterministically
    with open(os.path.join(out, "effective_config.json")) as fh:
        eff = json.load(fh)
    assert eff["solver"]["nx"] == 24
    assert eff["seed"] == 0


def test_square_solve_recovers_pressure(tmp_path, capsys):
    # without wall data the run recovers the pressure, and what the
    # momentum balance leaves after its gradient is removed is small
    out = str(tmp_path / "p_out")
    path = write_config(tmp_path, out=out, seed=3, boundary={"profile": None},
                        solver={"nu": 0.1, "T": 0.1, "nx": 32, "m": 8},
                        initial={"kind": "ball", "radius": 0.2})
    rc = main(["solve", "--config", path])
    capsys.readouterr()
    assert rc == 0
    man = read_manifest(out)
    assert "pressure_final.npz" in man["outputs"]
    assert os.path.exists(os.path.join(out, "pressure_final.npz"))
    print(f"momentum residual drop {man['summary']['momentum_residual_drop']:.1f}")
    assert man["summary"]["momentum_residual_drop"] > 100.0


def test_lift_sweep_run(tmp_path, capsys):
    out = str(tmp_path / "lift_out")
    path = write_config(tmp_path, experiment="lift", out=out,
                        solver={"nx": 48, "m": 4},
                        boundary={"profile": "bottom_bump", "amplitude": 1.0},
                        sweep={"samples": 20})
    rc = main(["lift", "--config", path])
    capsys.readouterr()
    assert rc == 0
    gates = gates_of(read_manifest(out))
    assert gates["beta-decreasing"]["passed"]
    assert gates["smallness-non-increasing"]["passed"]
    with open(os.path.join(out, "beta_vs_eps.csv")) as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "epsilon,delta,beta,smallness_ratio,div_max"
    assert len(rows) == 5
    assert os.path.exists(os.path.join(out, "lift_G.npz"))


def test_lift_snapshot_is_the_runs_own_epsilon(tmp_path, capsys):
    # the sweep does not visit solver.epsilon: the snapshot is still written
    out = str(tmp_path / "lift_out")
    path = write_config(tmp_path, experiment="lift", out=out,
                        solver={"epsilon": 0.3}, sweep={"epsilons": [0.4, 0.2]})
    rc = main(["lift", "--config", path])
    capsys.readouterr()
    assert rc == 0
    assert "lift_G.npz" in read_manifest(out)["outputs"]
    g, _ = load(os.path.join(out, "lift_G.npz"))
    grid = Grid("square", 24)
    want = build_lift(boundary_profile(grid, "bottom_bump", amplitude=0.01), 0.3, grid).G_eps
    assert np.array_equal(g.u, want.u) and np.array_equal(g.v, want.v)


def test_verify_run_passes(tmp_path, capsys):
    out = str(tmp_path / "verify_out")
    path = write_config(tmp_path, experiment="verify", out=out,
                        solver={"nx": 32, "m": 8, "T": 0.1})
    rc = main(["verify", "--config", path])
    capsys.readouterr()
    assert rc == 0
    gates = gates_of(read_manifest(out))
    assert gates["energy"]["passed"] and gates["h1-ball"]["passed"]
    assert gates["tensor-audit"]["passed"]
    assert gates["tensor-audit"]["value"] <= 1e-12
    assert os.path.exists(os.path.join(out, "violations.csv"))


def test_verify_fails_on_tenfold_advection_tensor(tmp_path, capsys, monkeypatch):
    # B is skew in its last two indices, so B x 10 leaves the energy
    # balance as it was; only the tensor audit can fail this run
    real = cli.assemble_tensors

    def tenfold_b(*args, **kwargs):
        tensors = real(*args, **kwargs)
        return dataclasses.replace(tensors, B=10.0 * tensors.B)

    monkeypatch.setattr(cli, "assemble_tensors", tenfold_b)
    out = str(tmp_path / "verify_out")
    path = write_config(tmp_path, experiment="verify", out=out,
                        solver={"nx": 32, "m": 8, "T": 0.1})
    rc = main(["verify", "--config", path])
    capsys.readouterr()
    assert rc == 1
    man = read_manifest(out)
    gates = gates_of(man)
    assert gates["energy"]["passed"] and gates["h1-ball"]["passed"]
    assert not gates["tensor-audit"]["passed"]
    assert man["passed"] is False


def test_stability_run_passes(tmp_path, capsys):
    out = str(tmp_path / "stab_out")
    path = write_config(tmp_path, experiment="stability", out=out,
                        solver={"nx": 32, "m": 8, "T": 0.1},
                        initial={"kind": "ball", "radius": 0.02})
    rc = main(["stability", "--config", path])
    capsys.readouterr()
    assert rc == 0
    gates = gates_of(read_manifest(out))
    assert gates["stability-ratio"]["value"] <= 1.05
    assert gates["stability-monotone"]["passed"]


def test_reproductive_run_and_budget_gate(tmp_path, capsys):
    out = str(tmp_path / "rep_out")
    path = write_config(tmp_path, experiment="reproductive", out=out,
                        solver={"nx": 32, "m": 8, "T": 0.2},
                        reproductive={"pairs": 2})
    rc = main(["reproductive", "--config", path])
    capsys.readouterr()
    assert rc == 0
    man = read_manifest(out)
    assert gates_of(man)["picard-residual"]["passed"]
    assert os.path.exists(os.path.join(out, "v0_reproductive.npz"))
    # the measured smallness budget is judged by its gates, ahead of Picard's
    gates = gates_of(man)
    for name in ("wall-data-norm", "forcing-norm"):
        assert gates[name]["passed"] and 0 < gates[name]["value"] <= gates[name]["bound"]
    assert man["summary"]["beta"] > 0 and man["summary"]["m_radius"] == 0.05

    again = str(tmp_path / "rep_again")
    assert main(["reproductive", "--config", path, "--out", again]) == 0
    capsys.readouterr()
    for name in ("residuals.csv", "contraction.csv"):
        with open(os.path.join(out, name), "rb") as fa, \
                open(os.path.join(again, name), "rb") as fb:
            assert fa.read() == fb.read(), name

    # verify.m_radius is the ball the contraction pairs are drawn from
    small = str(tmp_path / "rep_small")
    path_small = write_config(tmp_path, name="small.yaml", experiment="reproductive",
                              out=small, solver={"nx": 32, "m": 8, "T": 0.2},
                              reproductive={"pairs": 2}, verify={"m_radius": 0.02})
    assert main(["reproductive", "--config", path_small]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "contraction.csv"), "rb") as fa, \
            open(os.path.join(small, "contraction.csv"), "rb") as fb:
        assert fa.read() != fb.read()

    hot = str(tmp_path / "hot_out")
    path2 = write_config(tmp_path, name="hot.yaml", experiment="reproductive",
                         out=hot, solver={"nx": 32, "m": 8, "T": 0.2},
                         boundary={"profile": "bottom_bump", "amplitude": 5.0})
    rc2 = main(["reproductive", "--config", path2])
    capsys.readouterr()
    assert rc2 == 1
    man2 = read_manifest(hot)
    assert not man2["passed"]
    assert "regime_violation" in man2


@pytest.mark.parametrize("exp, overrides, failed", [
    ("verify", {"boundary": {"profile": "bottom_bump", "amplitude": 2.0}},
     ["lift-smallness"]),
    ("stability", {"initial": {"kind": "ball", "radius": 0.2}}, ["h1-ball"]),
    ("reproductive", {"boundary": {"profile": "bottom_bump", "amplitude": 5.0}},
     ["wall-data-norm", "forcing-norm"]),
], ids=["verify", "stability", "reproductive"])
def test_refusal_records_its_failed_gates(tmp_path, capsys, exp, overrides, failed):
    out = str(tmp_path / "out")
    path = write_config(tmp_path, experiment=exp, out=out,
                        solver={"nx": 32, "m": 8}, **overrides)
    assert main([exp, "--config", path]) == 1
    err = capsys.readouterr().err
    man = read_manifest(out)
    assert man["passed"] is False
    assert [g["name"] for g in man["gates"]] == failed
    for g in man["gates"]:
        assert g["passed"] is False and g["margin"] == g["bound"] - g["value"] < 0
        line = Gate(g["name"], g["value"], g["bound"], g["sense"]).line()
        assert line in man["regime_violation"] and line in err


def test_rerun_is_byte_identical(tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    path = write_config(tmp_path, out=out_a,
                        initial={"kind": "ball", "radius": 0.01}, seed=11)
    assert main(["solve", "--config", path]) == 0
    assert main(["solve", "--config", path, "--out", out_b]) == 0
    capsys.readouterr()
    for name in ("energy.csv", "coeffs.csv", "effective_config.json"):
        with open(os.path.join(out_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(out_b, name), "rb") as fh:
            blob_b = fh.read()
        if name == "effective_config.json":
            # out differs by design; strip it before comparing
            ea, eb = json.loads(blob_a), json.loads(blob_b)
            ea.pop("out"), eb.pop("out")
            assert ea == eb
        else:
            assert blob_a == blob_b, name
    assert read_manifest(out_a)["summary"] == read_manifest(out_b)["summary"]

    # a rerun judges the same: every gate's value, bound and margin agree
    verify_a, verify_b = str(tmp_path / "verify_a"), str(tmp_path / "verify_b")
    path = write_config(tmp_path, name="verify.yaml", experiment="verify", out=verify_a,
                        solver={"nx": 32, "m": 8, "T": 0.1})
    assert main(["verify", "--config", path]) == 0
    assert main(["verify", "--config", path, "--out", verify_b]) == 0
    capsys.readouterr()
    gates = read_manifest(verify_a)["gates"]
    assert len(gates) == 3 and gates == read_manifest(verify_b)["gates"]


# every experiment's gates, in order; dropping or renaming one shows here
GATES = {
    "eigs": ["orthonormality", "eigen-residual"],
    "lift": ["beta-decreasing", "smallness-non-increasing", "divergence"],
    "solve": [],
    "verify": ["energy", "h1-ball", "tensor-audit"],
    "stability": ["stability-ratio", "stability-monotone"],
    "reproductive": ["wall-data-norm", "forcing-norm", "picard-residual", "picard-ratio",
                     "contraction-ratio"],
}


def test_each_experiment_records_its_gates(tmp_path, capsys):
    assert set(GATES) == set(cli.EXPERIMENTS)
    for exp, names in GATES.items():
        out = str(tmp_path / exp)
        path = write_config(tmp_path, name=f"{exp}.yaml", experiment=exp, out=out,
                            solver={"nx": 32, "m": 8, "T": 0.1}, sweep={"samples": 20},
                            reproductive={"pairs": 2})
        assert main([exp, "--config", path]) == 0
        printed = capsys.readouterr().out
        man = read_manifest(out)
        assert [g["name"] for g in man["gates"]] == names
        assert man["passed"] is all(g["passed"] for g in man["gates"])
        for g in man["gates"]:
            assert g["margin"] == g["bound"] - g["value"]
            gate = Gate(g["name"], g["value"], g["bound"], g["sense"])
            assert gate.passed is g["passed"] and gate.line() in printed


def test_cache_env_is_honored(tmp_path, capsys, monkeypatch):
    cache = str(tmp_path / "shared_cache")
    out = str(tmp_path / "env_out")
    workdir = tmp_path / "workdir"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("REPROFLOW_CACHE", cache)
    # the config's relative out is overridden, so nothing lands in the cwd
    path = write_config(tmp_path, experiment="eigs", out="runs/out",
                        boundary={}, solver={"nx": 16, "m": 4})
    assert main(["eigs", "--config", path, "--out", out]) == 0
    capsys.readouterr()
    assert any(f.endswith(".npz") for f in os.listdir(cache))
    assert not os.path.exists(os.path.join(out, "cache"))
    assert os.listdir(workdir) == []


def test_seed_override_changes_ball_start(tmp_path, capsys):
    outs = []
    path = write_config(tmp_path, initial={"kind": "ball", "radius": 0.01})
    for seed in (1, 2):
        out = str(tmp_path / f"seed{seed}")
        assert main(["solve", "--config", path, "--out", out,
                     "--seed", str(seed)]) == 0
        with open(os.path.join(out, "coeffs.csv")) as fh:
            outs.append(fh.read())
    capsys.readouterr()
    assert outs[0] != outs[1]


def test_empty_trajectory_never_happens_but_header_only_csv_is_valid(tmp_path):
    from reproflow.cli import write_csv

    path = str(tmp_path / "empty.csv")
    write_csv(path, ["a", "b"], [])
    with open(path) as fh:
        assert fh.read() == "a,b\n"


def test_csv_floats_survive_round_trip(tmp_path):
    from reproflow.cli import write_csv

    vals = [np.pi, 1.0 / 3.0, 1e-300, 123456789.123456789]
    path = str(tmp_path / "vals.csv")
    write_csv(path, ["x"], [(v,) for v in vals])
    back = np.loadtxt(path, skiprows=1)
    assert np.array_equal(back, np.array(vals))

"""The default run's outputs, pinned per code version.

(config, seed, code version) determines every CSV byte.  This test runs
the six experiments at the default config (the `bottom_bump` wall data at
amplitude 1e-2, seed 0, every other value its `cli.SCHEMA` default)
through `cli.main`, sharing one basis cache, and compares them with the
record for `reproflow.__version__` in `default_outputs.json`: the sha256
of every CSV and `.npz` file, and each run's exit code, `config_hash` and
gates (name, value, bound).  A missing record fails; it never skips.

A change that moves a byte or a gate bumps the code version (in
`pyproject.toml` and `reproflow.__version__`) and records the new outputs
in the same commit:

    PYTHONPATH=src python -m tests.test_default_outputs

Each record also holds the fingerprint (python, numpy, BLAS) it was
recorded under, since another BLAS build may round differently.
"""

import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from reproflow import __version__, cli

RECORD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "default_outputs.json")
GATE_RTOL = 1e-12  # tells a rounding move from a change of behaviour, in the message only


def fingerprint():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")}}


def run_default(root):
    """{"files": {"exp/name": sha256}, "runs": {exp: {code, config_hash, gates}}}
    of the six experiments run in `root` (the caller sets the cache)."""
    files, runs = {}, {}
    for exp in cli.EXPERIMENTS:
        config = os.path.join(root, f"{exp}.yaml")
        with open(config, "w") as fh:
            fh.write(f"experiment: {exp}\nboundary: {{profile: bottom_bump, amplitude: 0.01}}\n")
        out = os.path.join(root, exp)
        code = cli.main([exp, "--config", config, "--out", out])
        with open(os.path.join(out, "manifest.json")) as fh:
            man = json.load(fh)
        for name in man["outputs"]:
            if name.endswith((".csv", ".npz")):
                with open(os.path.join(out, name), "rb") as fh:
                    files[f"{exp}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        runs[exp] = {"code": code, "config_hash": man["config_hash"],
                     "gates": [[g["name"], g["value"], g["bound"]] for g in man.get("gates", [])]}
    return {"files": files, "runs": runs}


def _gate_values_agree(want, got):
    """The same gate names in each run, with values equal to rtol GATE_RTOL."""
    a = [g for exp in sorted(want) for g in want[exp]["gates"]]
    b = [g for exp in sorted(want) for g in got.get(exp, {"gates": []})["gates"]]
    return [g[0] for g in a] == [g[0] for g in b] and np.allclose(
        [g[1] for g in a], [g[1] for g in b], rtol=GATE_RTOL, atol=0.0)


def test_default_outputs_match_the_record(tmp_path, monkeypatch, capsys):
    with open(RECORD) as fh:
        records = json.load(fh)
    assert __version__ in records, (
        f"default_outputs.json has no record for code version {__version__}; "
        f"record it as the module docstring says")
    want = records[__version__]
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "cache"))
    got = run_default(str(tmp_path))
    capsys.readouterr()

    moved = sorted(key for key in set(want["files"]) | set(got["files"])
                   if want["files"].get(key) != got["files"].get(key))
    where = (f"recorded under {want['fingerprint']}, run under {fingerprint()}; gate values "
             f"{'agree' if _gate_values_agree(want['runs'], got['runs']) else 'differ'} "
             f"to rtol {GATE_RTOL:g}")
    assert not moved, f"code version {__version__}: {moved} moved ({where})"
    assert got["runs"] == want["runs"], (
        f"code version {__version__}: an exit code, config hash or gate moved ({where})")


if __name__ == "__main__":
    records = {}
    if os.path.exists(RECORD):
        with open(RECORD) as fh:
            records = json.load(fh)
    if __version__ in records:
        sys.exit(f"code version {__version__} is already recorded; bump it first")
    with tempfile.TemporaryDirectory() as root:
        os.environ[cli.CACHE_ENV] = os.path.join(root, "cache")
        records[__version__] = dict(run_default(root), fingerprint=fingerprint())
    with open(RECORD, "w") as fh:
        json.dump(records, fh, indent=1, sort_keys=True)
        fh.write("\n")

"""reproflow benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a reproflow checkout; the library is imported from
its ``src``.  Workloads: trajectory, cold_build, period_map, cli_suite
(see README.md in this directory for what each measures and why).

Each workload runs in its own process (workload.py) with the BLAS pinned
to one thread.  The workload is set up three times, each in a fresh
process, and `setup_s` is the median; the last of those processes goes
on to time iterations for `--seconds`.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer self
times and counts of the traced iterations, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment fingerprint, every sample) goes to
``.bench_out/results/``, and the spans of a traced run to
``.bench_out/traces/``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("trajectory", "cold_build", "period_map", "cli_suite")
SETUPS = 3
# One BLAS thread: the kernels here are small (m <= 64), and a second
# thread on a small shared box adds more spread than speed.
BLAS_THREADS = 1
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "iter_s_p50": "s", "iter_s_tail": "s", "steps_per_s": "1/s",
         "peak_rss_mb": "MB"}


def tail(values):
    """Highest percentile with at least ten samples beyond it: (value, rank, count).

    With 21 samples or fewer that percentile is not above the median,
    and the maximum is reported instead.
    """
    xs = sorted(values)
    n = len(xs)
    rank = n - 10 if n - 10 > (n + 1) // 2 else n
    return xs[rank - 1], rank, n


def git_state(root):
    """Commit and dirty flag when `root` is the top of a git work tree."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                              timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(root):
            return {"commit": None, "dirty": None}
        head = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": head or None, "dirty": dirty}


def spawn(cmd, env, cwd, deadline):
    """Run a child in its own process group; returns its start time.

    The child's standard output goes to our standard error, keeping our
    standard output for the report.  On timeout or interrupt the whole
    group is killed and reaped.
    """
    started = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=sys.stderr.fileno(),
                            start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode}")
    return started


def measure(args, root, work, deadline):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"])
    result_path = os.path.join(work, "result.json")
    trace_path = os.path.join(root, ".bench_out", "traces",
                              f"{args.workload}-seed{args.seed}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", os.path.join(work, "w"), "--result", result_path,
           "--trace-out", trace_path]
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    setups = []
    for k in range(SETUPS):
        last = k == SETUPS - 1
        started = spawn(cmd if last else cmd + ["--setup-only"], env, root, deadline)
        with open(result_path) as fh:
            result = json.load(fh)
        setups.append(result["setup_done"] - started)
    result["setups_s"] = setups
    result["trace_file"] = os.path.relpath(trace_path, root) if args.trace else None
    return result


def end_to_end(result, verified):
    times = [s["s"] for s in verified]
    value, rank, n = tail(times)
    return {
        "setup_s": statistics.median(result["setups_s"]),
        "iter_s_p50": statistics.median(times),
        "iter_s_tail": value,
        "steps_per_s": statistics.median(s["steps"] / s["s"] for s in verified),
        "peak_rss_mb": result["peak_rss_mb"],
    }, {"iter_s_p50_samples": n, "iter_s_tail_rank": rank, "iter_s_tail_count": n,
        "iter_s_tail_percentile": 100.0 * rank / n}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reproflow", "__init__.py")):
        print("bench/run.py: src/reproflow not found; run from the root of a "
              "reproflow checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    out_dir = os.path.join(root, ".bench_out")
    work = os.path.join(out_dir, "work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = measure(args, root, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["samples"]
    failed = [s for s in samples if s["failures"]]
    verified = [s for s in samples if not s["failures"]]
    for s in failed:
        print(f"iteration {s['iteration']} failed:\n  " + "\n  ".join(s["failures"]),
              file=sys.stderr)
    plain = [s for s in verified if not s["traced"]]
    if not plain or (args.trace and "layers" not in result):
        print("bench/run.py: no verified iteration to report", file=sys.stderr)
        return 1

    e2e, detail = end_to_end(result, plain)
    fixed = [s["fixed_point_s"] for s in plain if "fixed_point_s" in s]
    detail["fixed_point_s"] = statistics.median(fixed) if fixed else None
    detail["failed_ratio"] = len(failed) / len(samples)
    correct = not failed
    if args.trace:
        metrics = result["layers"]
        self_sum = metrics["trace.self_sum_s"]["value"]
        iter_mean = metrics["trace.iter_s_mean"]["value"]
        # span nesting holds when the self times add up to the iteration
        correct = correct and abs(self_sum - iter_mean) <= 1e-6 * iter_mean
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}

    env = dict(result["fingerprint"], **git_state(root))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": len(samples), "failed": len(failed), "metrics": metrics,
              "end_to_end": e2e, "detail": detail, "setups_s": result["setups_s"],
              "samples": samples, "trace_file": result["trace_file"]}
    results_dir = os.path.join(out_dir, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                                            f"-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    blas = env["blas"]
    print(f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    print(f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{blas['name']} {blas['version']} x{env['blas_threads']} threads, "
          f"nproc {env['nproc']}, {env['cpu_model']}, "
          f"commit {env['commit']}{' (dirty)' if env['dirty'] else ''}, "
          f"{platform.system()}")
    print(f"  setup_s        {e2e['setup_s']:.4f} s   median of {len(result['setups_s'])} set-ups")
    print(f"  iter_s_p50     {e2e['iter_s_p50']:.4f} s   {detail['iter_s_p50_samples']} samples")
    print(f"  iter_s_tail    {e2e['iter_s_tail']:.4f} s   p{detail['iter_s_tail_percentile']:.0f},"
          f" rank {detail['iter_s_tail_rank']} of {detail['iter_s_tail_count']}")
    print(f"  steps_per_s    {e2e['steps_per_s']:.1f} 1/s")
    print(f"  peak_rss_mb    {e2e['peak_rss_mb']:.1f} MB")
    if detail["fixed_point_s"] is not None:
        print(f"  fixed_point_s  {detail['fixed_point_s']:.4f} s")
    print(f"  failed_ratio   {len(failed)}/{len(samples)}")
    if args.trace:
        for name, m in sorted(metrics.items()):
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(record_path, root)}")
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

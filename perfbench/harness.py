"""The benchmark loop: rounds of CLI commands, checks, timings and traces.

Imported by run.py only after it has pinned the BLAS thread count, capped
the address space and put the package source on the path.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import noisy_grover
import oracle
import tracing
import workloads
from noisy_grover import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SAMPLES = 6   # fresh interpreters timed, spread evenly over the run
SETUP_SNIPPET = (
    "import sys\n"
    "from noisy_grover.cli import main\n"
    "sys.exit(main(['search', '--chi', '1', '--n', '4', '--m', '1', '--out', sys.argv[1]]))\n"
)


class Tally:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = {}
        self.mismatches = []


def run_op(main, op, path: str, tally: Tally, texts: dict, index: int) -> tuple:
    """Run one command and check its file; return (wall seconds, succeeded, rows)."""
    sink = io.StringIO()
    tally.attempted += 1
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = main([*op.argv, "--out", path])
        except Exception as exc:  # an escaped exception is a failed command
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if code != 0:
        tally.failed += 1
        tail = sink.getvalue().strip().splitlines()[-1:] or [""]
        tally.failures.setdefault(op.label, error or f"exit code {code}: {tail[0]}")
        return seconds, False, 0
    try:
        with open(path, newline="") as handle:
            text = handle.read()
        if op.rerun_of is not None and op.rerun_of in texts:
            if text != texts[op.rerun_of][0]:
                raise oracle.OracleMismatch("rerun is not byte-identical")
            rows = texts[op.rerun_of][1]
        else:
            rows = oracle.check_trajectory_file(text, op.fmt, op.cells, op.m, op.w)
    except (oracle.OracleMismatch, OSError, ValueError, KeyError, TypeError) as exc:
        tally.mismatches.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return seconds, True, 0
    texts[index] = (text, rows)
    return seconds, True, rows


def run_round(main, ops, work_dir: str, tally: Tally) -> list:
    """One pass over the round: (wall seconds, succeeded, rows checked) per command."""
    texts = {}
    return [
        run_op(main, op, os.path.join(work_dir, f"op{index}.{op.fmt}"), tally, texts, index)
        for index, op in enumerate(ops)
    ]


def best_times(rounds: list) -> list:
    """(fastest successful wall time, rows) of each command over the rounds.

    On a shared host the speed of fixed work drifts by up to 1.8x, in
    phases lasting seconds.  Rounds are short, so every command also runs
    in the run's fast phases; its fastest time is the figure that moves
    least between runs.
    """
    best = []
    for runs in zip(*rounds):
        times = [seconds for seconds, succeeded, _ in runs if succeeded]
        if times:
            best.append((min(times), max(rows for _, _, rows in runs)))
    return best


def measure_setup(work_dir: str, tally: Tally) -> float:
    """Wall time from a fresh interpreter to the end of a tiny search."""
    path = os.path.join(work_dir, "setup.csv")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, path],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    seconds = time.perf_counter() - start
    try:
        if proc.returncode != 0:
            raise oracle.OracleMismatch(f"exit code {proc.returncode}: {proc.stderr[-300:]}")
        with open(path, newline="") as handle:
            oracle.check_trajectory_file(handle.read(), "csv", [(1.0, 4)], 1, 0)
    except (oracle.OracleMismatch, OSError, ValueError) as exc:
        tally.mismatches.append(f"setup search: {exc}")
    return seconds


def _blas_threads():
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_record(args, rounds: int, tally: Tally) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    backend = getattr(noisy_grover, "kernel_backend", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_backend": backend() if backend else None,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "address_space_limit": resource.getrlimit(resource.RLIMIT_AS)[0],
        "git_commit": _git_commit(),
        "failures": tally.failures,
        "mismatches": tally.mismatches[:20],
    }


def run(args) -> int:
    """Run one workload for args.seconds; print the result line; return the exit code."""
    ops = workloads.make_round(args.workload, args.seed)
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    setup, untraced, traced = [], [], []
    try:
        if not tracer:
            measure_setup(work_dir, tally)  # compiles bytecode once per checkout
        warm_up = Tally()  # untimed and uncounted: lazy imports, first-call costs
        run_op(cli.main, ops[0], os.path.join(work_dir, "warm-up"), warm_up, {}, 0)
        tally.mismatches += warm_up.mismatches
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            if not tracer and round_start - start >= len(setup) * args.seconds / SETUP_SAMPLES:
                setup.append(measure_setup(work_dir, tally))
            untraced.append(run_round(cli.main, ops, work_dir, tally))
            if tracer:
                tracer.install()
                try:
                    ops_run = run_round(
                        tracer.wrap(cli.main, "cli", "main"), ops, work_dir, tally)
                finally:
                    tracer.uninstall()
                traced.append((ops_run, tracer.take()))
            # Whole rounds only; stop before a round that would overrun.
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))

    print(json.dumps(run_record(args, len(untraced) + len(traced), tally)), file=sys.stderr)
    if tally.failed == tally.attempted:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    if tracer:
        _, values = min(traced, key=lambda pair: sum(seconds for seconds, _, _ in pair[0]))
        untraced_s = sum(t for t, _ in best_times(untraced))
        traced_s = sum(t for t, _ in best_times([ops_run for ops_run, _ in traced]))
        metrics = tracing.metrics(values)
        metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
        metrics["trace.untraced_round_s"] = {"value": untraced_s, "unit": "s"}
    else:
        best = best_times(untraced)
        metrics = {
            "setup_s": {"value": min(setup), "unit": "s"},
            "op_p50_s": {"value": statistics.median([t for t, _ in best]), "unit": "s"},
            "rows_per_s": {
                "value": sum(r for _, r in best) / sum(t for t, _ in best), "unit": "rows/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB"},
        }
    print(json.dumps({
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0

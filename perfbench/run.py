#!/usr/bin/env python3
"""Closed-loop benchmark of the noisy-grover command line.

Run from the repository root:

    python3 perfbench/run.py --workload search_dense --seed 1 --seconds 60 --trace 0

One client calls `noisy_grover.cli.main` in this process, one command after
another, repeating the workload's round of commands until --seconds have
passed (whole rounds only).  Every written file is checked against the
independent plane oracle.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics of a traced round plus the
tracing overhead.  The last line of stdout is the result as JSON; the run
record (machine, versions, seed, failures) goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# One BLAS thread: never more than nproc, and steadiest on a shared host.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Bounds every allocation of this process and its children, whatever the
# machine's overcommit policy; a whole run peaks near 0.3 GiB of address space.
ADDRESS_SPACE_LIMIT = 2 * 1024**3


def _pin_environment() -> None:
    """Fix BLAS threads, cap address space and find the package source."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, SRC)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("search_dense", "sweep_plane"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "noisy_grover", "cli.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    _pin_environment()
    import harness  # only now: numpy must load after the thread count is pinned

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: kraus, chi-star, search, sweep, verify.  search is the
one-cell sweep; only sweep names the (chi, n) cell in front of each
invariant violation it prints.  Exit codes are a three-way contract:
0 success, 1 usage or I/O error, 2 numerical invariant violation.
Identical invocations (including seeds) produce byte-identical output
files.

Configuration precedence: command-line flags, then an optional key=value
config file (--config), then the NOISY_GROVER_OUT_DIR environment
variable for the default output directory, then built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .analysis import trajectory_report, trajectory_violations
from .channels import channel_choi_distance
from .errors import NoisyGroverError
from .noise import (
    chi_star,
    closed_form_kraus,
    hamiltonian_kraus,
    scalar_profile,
)
from .reporting import report_rows, rows_to_csv, rows_to_json
from .search import SearchInstance
from .tolerances import CHI_MAX, TRACE_ATOL, UNITARITY_ATOL
from .verify import run_verification

__all__ = ["main", "entrypoint"]

OUT_DIR_ENV = "NOISY_GROVER_OUT_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _load_config(path) -> dict:
    if not path:
        return {}
    cfg = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def _resolve(flag_value, cfg, key, default):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def _print_matrix(label: str, matrix) -> None:
    body = np.array2string(matrix, precision=10, suppress_small=False)
    print(f"{label} =\n{body}")


def cmd_kraus(args) -> int:
    chi = args.chi
    if chi < 0:
        raise _UsageError("kraus: --chi must be >= 0")
    prof = scalar_profile(chi)
    closed = closed_form_kraus(chi)
    derived = hamiltonian_kraus(chi)
    print(f"chi = {chi:.17g}")
    print(f"mu = {prof.mu:.17g}  delta = {prof.delta:.17g}  psi = {prof.psi:.17g}")
    print()
    for label, channel in (("closed-form", closed), ("hamiltonian", derived)):
        print(f"[{label}] completeness defect = {channel.completeness_defect():.3e}")
        print(f"[{label}] fractional weights  = "
              + ", ".join(f"{w:.10f}" for w in channel.fractional_weights()))
        for idx, op in enumerate(channel.operators):
            _print_matrix(f"[{label}] K{idx}", op)
        print()
    gap = channel_choi_distance(closed, derived)
    print(f"choi distance closed-form vs hamiltonian = {gap:.17g}")
    print("(recorded by `verify` as prop1_choi_gap; the hamiltonian channel "
          "is the ground truth)")
    worst = max(closed.completeness_defect(), derived.completeness_defect())
    return 0 if worst <= TRACE_ATOL else 2


def cmd_chi_star(args) -> int:
    """The table n, chi_n + perturb, psi for n = 1..n_max, printed row by row.

    chi_n + perturb rises with n, so checking rows 1 and n_max before the
    header means no row can fail; n_max above CHI_MAX is refused before
    chi_star is called, as chi_star overflows for huge n.
    """
    n_max, perturb = args.n_max, args.perturb
    if n_max < 1:
        raise _UsageError("chi-star: --n-max must be >= 1")
    if not math.isfinite(perturb):
        raise _UsageError(f"chi-star: --perturb must be finite, got {perturb}")
    first = chi_star(1) + perturb
    if not 0.0 <= first <= CHI_MAX:
        raise _UsageError(
            f"chi-star: --perturb puts chi_1 + perturb = {first:.17g} "
            f"outside [0, {CHI_MAX:.17g}]"
        )
    if n_max > CHI_MAX or chi_star(n_max) + perturb > CHI_MAX:
        raise _UsageError(
            f"chi-star: --n-max puts chi_n + perturb above {CHI_MAX:.17g}"
        )
    print("n,chi_n,psi")
    worst = 0.0
    for n in range(1, n_max + 1):
        value = chi_star(n) + perturb
        psi = scalar_profile(value).psi
        worst = max(worst, psi)
        print(f"{n},{value:.17g},{psi:.17g}")
    return 0 if worst <= UNITARITY_ATOL else 2


def _emit(text: str, out_path) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)


def _render(reports, fmt: str) -> str:
    """The rows of every report, in order, as one CSV or JSON text."""
    rows = [row for report in reports for row in report_rows(report)]
    return rows_to_json(rows) if fmt == "json" else rows_to_csv(rows)


def cmd_trajectories(args) -> int:
    """search and sweep: one trajectory per (chi, n) cell, chi-major.

    Every report is emitted, then every message of
    analysis.trajectory_violations is printed; search is the one-cell
    sweep, and only sweep names the cell in front of each message.
    """
    sweep = args.command == "sweep"
    cfg = _load_config(args.config)
    fmt = _resolve(args.format, cfg, "format", "csv")
    if fmt not in ("csv", "json"):
        raise _UsageError(f"{args.command}: unknown format {fmt!r}")
    target = _resolve(args.target, cfg, "target", 0)
    try:  # only a config value can fail: a flag is parsed as int already
        target = int(target)
    except ValueError:
        raise _UsageError(
            f"{args.command}: config target must be an integer, got {target!r}"
        ) from None
    chis, sizes = (args.chi, args.n) if sweep else ([args.chi], [args.n])
    if any(chi < 0 for chi in chis):
        values = " values" if sweep else ""
        raise _UsageError(f"{args.command}: --chi{values} must be >= 0")
    if args.m < 1:
        raise _UsageError(f"{args.command}: --m must be >= 1")
    if args.per_cell and args.out is not None:
        raise _UsageError(f"{args.command}: --out cannot be combined with --per-cell")

    # chi-major, then n: deterministic cell order independent of scheduling
    cells = [(chi, n) for chi in chis for n in sizes]
    reports = [
        trajectory_report(SearchInstance(n=n, w=target, chi=chi), args.m)
        for chi, n in cells
    ]
    if args.per_cell:
        default_dir = os.environ.get(OUT_DIR_ENV, ".")
        directory = _resolve(args.out_dir, cfg, "out_dir", default_dir)
        os.makedirs(directory, exist_ok=True)
        for (chi, n), report in zip(cells, reports):
            name = f"cell_chi{chi:.17g}_n{n}.{fmt}"
            _emit(_render([report], fmt), os.path.join(directory, name))
    else:
        _emit(_render(reports, fmt), args.out)

    problems = [
        f"chi={chi:.17g} n={n} {problem}" if sweep else problem
        for (chi, n), report in zip(cells, reports)
        for problem in trajectory_violations(report)
    ]
    for problem in problems:
        print(f"invariant violation: {problem}", file=sys.stderr)
    return 2 if problems else 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise _UsageError("verify: --seed must be >= 0")
    report = run_verification(seed=args.seed)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: worst {check.worst:.3e} ({check.detail})")
    for rec in report.discrepancies:
        print(
            f"[NOTE] {rec.kind} at chi={rec.chi:.6g}: magnitude {rec.magnitude:.6g}; "
            f"{rec.detail}"
        )
    if args.out:
        with open(args.out, "w", newline="") as handle:
            handle.write(json.dumps(report.to_dict(), indent=2) + "\n")
    if not report.all_hard_passed:
        return 2
    if args.strict_paper and report.max_discrepancy() > 1e-8:
        print(
            "strict mode: closed-form discrepancies exceed 1e-8", file=sys.stderr
        )
        return 2
    return 0


def _add_trajectory_parser(sub, name: str, nargs, text: str) -> _Parser:
    """The options search and sweep share; nargs of --chi and --n tells them apart."""
    parser = sub.add_parser(name, help=text)
    parser.add_argument("--chi", type=float, nargs=nargs, required=True)
    parser.add_argument("--n", type=int, nargs=nargs, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--target", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path, '-' for stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--config", default=None)
    parser.set_defaults(func=cmd_trajectories, out_dir=None, per_cell=False)
    return parser


def build_parser() -> _Parser:
    parser = _Parser(prog="noisy-grover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_kraus = sub.add_parser("kraus", help="print both Kraus constructions at one chi")
    p_kraus.add_argument("--chi", type=float, required=True)
    p_kraus.set_defaults(func=cmd_kraus)

    p_star = sub.add_parser("chi-star", help="table of magic strengths and psi")
    p_star.add_argument("--n-max", type=int, required=True)
    p_star.add_argument(
        "--perturb",
        type=float,
        default=0.0,
        help="debug: offset added to each chi_n before evaluating psi",
    )
    p_star.set_defaults(func=cmd_chi_star)

    _add_trajectory_parser(sub, "search", None, "one trajectory, one row per iteration")
    p_sweep = _add_trajectory_parser(sub, "sweep", "+", "cross product of chi and n values")
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.add_argument(
        "--per-cell", action="store_true", help="one file per (chi, n) cell"
    )

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--strict-paper",
        action="store_true",
        help="treat recorded closed-form discrepancies above 1e-8 as failures",
    )
    p_verify.add_argument("--out", default=None, help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)
    return parser


# Parsing leaves the parser unchanged, so one process builds it once.
_cached_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _cached_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a trajectory's arrays are allocated up front, so an impossible
        # --m fails here at once instead of running out of memory later
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NoisyGroverError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

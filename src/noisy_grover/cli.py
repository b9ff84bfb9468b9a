"""Command-line front end.

Subcommands: kraus, chi-star, search, sweep, verify.  search is the
one-cell sweep; only sweep names the (chi, n) cell in front of each
invariant violation it prints.  Exit codes are a three-way contract:
0 success, 1 usage or I/O error, 2 numerical invariant violation.  main
prints a usage or I/O error as one line; every text it echoes there is a
repr, unrecognized words included, and main names each (_describe_echo),
so the line stays short whatever the input.  Options must be spelled in
full.  Identical invocations (including seeds) give byte-identical files.

Configuration precedence: command-line flags, then an optional key=value
config file (--config), then the NOISY_GROVER_OUT_DIR environment
variable for the default output directory, then built-in defaults.
"""

from __future__ import annotations

import argparse
import ast
import functools
import math
import os
import re
import sys

import numpy as np

from .analysis import trajectory_report, trajectory_violations
from .errors import NoisyGroverError
from .noise import CHI_STAR_MAX_INDEX, _require_count, chi_star, scalar_profile
from .reporting import rows_to_csv, rows_to_json
from .search import SearchInstance
from .tolerances import UNITARITY_ATOL

# kraus and verify import channels, verify and json when they run, so
# search, sweep and chi-star start without the dense layers.

__all__ = ["main", "entrypoint"]

OUT_DIR_ENV = "NOISY_GROVER_OUT_DIR"
CONFIG_KEYS = ("format", "out_dir", "target")
# int() reads this, up to sys.get_int_max_str_digits() digits.
_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")
# A text a message echoes as its repr: argparse's, an I/O error's or our own.
_REPR = re.compile(r"'(?:[^'\\\n]|\\.)*'|\"(?:[^\"\\\n]|\\.)*\"")


def _int(text) -> int:
    """int(text); int()'s digit limit is process-wide, so it stays as set,
    and a digit string past it fails with its repr."""
    try:
        return int(text)
    except ValueError:
        if not _INTEGER_TEXT.fullmatch(text):
            raise  # argparse reports it as an "invalid int value"
    limit = f"{sys.get_int_max_str_digits()}-digit limit"
    raise argparse.ArgumentTypeError(f"{text!r} is past the {limit}")


_int.__name__ = "int"  # the type argparse names in its messages


def _describe_echo(echo) -> str:
    """The text an echoed repr stands for, as its repr up to 26 characters
    (24 and the quotes); past that, its digit count as an integer, else its
    length, so escapes cannot grow it."""
    try:
        text = ast.literal_eval(echo[0])
    except (SyntaxError, ValueError):  # a quoted span that is not a repr
        return echo[0]
    if len(repr(text)) <= 26:
        return repr(text)
    if _INTEGER_TEXT.fullmatch(text):
        return f"an integer of {sum(map(str.isdecimal, text))} digits"
    return f"a text of {len(text)} characters"


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # on the top-level parser: the command parsers by name

    def __init__(self, *args, **kwargs):  # options are read only when spelled in full
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        self.refuse(extras)
        return args

    def refuse(self, extras) -> None:
        """argparse's error for unrecognized words, each as its repr."""
        if extras:
            self.error(f"unrecognized arguments: {' '.join(map(repr, extras))}")

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


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
                raise ValueError(f"config line without '=': {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"config key {key!r} is not one of {', '.join(CONFIG_KEYS)}")
            if key in cfg:
                raise ValueError(f"config key {key!r} is set twice")
            cfg[key] = value
    return cfg


def _resolve(flag_value, cfg, key, default):
    if flag_value is not None:
        return flag_value
    if key in cfg:
        return cfg[key]
    return default


def cmd_kraus(args) -> int:
    """Both Kraus constructions at chi; building each checks its completeness."""
    from .channels import channel_choi_distance, closed_form_kraus, hamiltonian_kraus

    prof = scalar_profile(args.chi)
    chi = prof.chi
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
            body = np.array2string(op, precision=10, suppress_small=False)
            print(f"[{label}] K{idx} =\n{body}")
        print()
    gap = channel_choi_distance(closed, derived)
    print(f"choi distance closed-form vs hamiltonian = {gap:.17g}")
    print("(recorded by `verify` as prop1_choi_gap; the hamiltonian channel "
          "is the ground truth)")
    return 0


def cmd_chi_star(args) -> int:
    """The table n, chi_n, psi for n = 1..n_max, printed row by row.

    --n-max passes chi_star's index rule, [1, CHI_STAR_MAX_INDEX], before
    the header, so no row can fail.  psi(chi_n) is 0 in exact arithmetic
    but follows the rounded float chi_n: psi / ulp(chi_n) measured at most
    1.03 over every n <= 200000 and sampled n up to CHI_STAR_MAX_INDEX.
    Exit 2 when some row's psi exceeds max(UNITARITY_ATOL, 2 ulp(chi_n)),
    which is UNITARITY_ATOL while chi_n < 2^18.
    """
    n_max = _require_count("--n-max", args.n_max, 1, CHI_STAR_MAX_INDEX)
    print("n,chi_n,psi")
    failed = False
    for n in range(1, n_max + 1):
        value = chi_star(n)
        psi = scalar_profile(value).psi
        failed = failed or not psi <= max(UNITARITY_ATOL, 2.0 * math.ulp(value))
        print(f"{n},{value:.17g},{psi:.17g}")
    return 2 if failed else 0


def _emit(text: str, out_path) -> None:
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)


def _render(reports, fmt: str) -> str:
    """The rows of every report, in order, as one CSV or JSON text."""
    return rows_to_json(reports) if fmt == "json" else rows_to_csv(reports)


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
        raise ValueError(f"{args.command}: unknown format {fmt!r}")
    target = _resolve(args.target, cfg, "target", 0)
    try:  # only a config value can fail: a flag is parsed as int already
        target = _int(target)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{args.command}: config target: {exc}") from None
    except ValueError:
        raise ValueError(
            f"{args.command}: config target must be an integer, got {target!r}"
        ) from None
    chis, sizes = (args.chi, args.n) if sweep else ([args.chi], [args.n])
    if args.per_cell and args.out is not None:
        raise ValueError(f"{args.command}: --out cannot be combined with --per-cell")
    if args.out_dir is not None and not args.per_cell:  # a config out_dir is a default
        raise ValueError(f"{args.command}: --out-dir needs --per-cell")

    # chi-major, then n: deterministic cell order independent of scheduling;
    # every instance is checked, and trajectory_report checks m (through
    # plane_report, which it applies to bloch_map(inst)), before the
    # first trajectory runs; cells are named by the checked chi, so -0 and 0
    # are one cell
    instances = [SearchInstance(n=n, w=target, chi=chi) for chi in chis for n in sizes]
    reports = [trajectory_report(inst, args.m) for inst in instances]
    if args.per_cell:
        default_dir = os.environ.get(OUT_DIR_ENV, ".")
        directory = _resolve(args.out_dir, cfg, "out_dir", default_dir)
        os.makedirs(directory or ".", exist_ok=True)
        for inst, report in zip(instances, reports):
            name = f"cell_chi{inst.chi:.17g}_n{inst.n}.{fmt}"
            _emit(_render([report], fmt), os.path.join(directory, name))
    else:
        _emit(_render(reports, fmt), args.out)

    problems = [
        f"chi={inst.chi:.17g} n={inst.n} {problem}" if sweep else problem
        for inst, report in zip(instances, reports)
        for problem in trajectory_violations(report)
    ]
    for problem in problems:
        print(f"invariant violation: {problem}", file=sys.stderr)
    return 2 if problems else 0


def cmd_verify(args) -> int:
    import json

    from .verify import run_verification

    report = run_verification(seed=args.seed)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: worst {check.worst:.3e} ({check.detail})")
    for rec in report.discrepancies:
        print(
            f"[NOTE] {rec.kind} at chi={rec.chi:.6g}: magnitude {rec.magnitude:.6g}; "
            f"{rec.detail}"
        )
    if args.out is not None:
        _emit(json.dumps(report.to_dict(), indent=2) + "\n", args.out)
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
    parser.add_argument("--n", type=_int, nargs=nargs, required=True)
    parser.add_argument("--m", type=_int, required=True)
    parser.add_argument("--target", type=_int, default=None)
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
    p_star.add_argument("--n-max", type=_int, required=True)
    p_star.set_defaults(func=cmd_chi_star)

    _add_trajectory_parser(sub, "search", None, "one trajectory, one row per iteration")
    p_sweep = _add_trajectory_parser(sub, "sweep", "+", "cross product of chi and n values")
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.add_argument(
        "--per-cell", action="store_true", help="one file per (chi, n) cell"
    )

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--seed", type=_int, default=0)
    p_verify.add_argument(
        "--strict-paper",
        action="store_true",
        help="treat recorded closed-form discrepancies above 1e-8 as failures",
    )
    p_verify.add_argument(
        "--out", default=None, help="write the JSON report here, '-' for stdout"
    )
    p_verify.set_defaults(func=cmd_verify)
    parser.commands = sub.choices
    return parser


# Parsing leaves the parser unchanged, so one process builds it once.
_cached_parser = functools.cache(build_parser)


def _parse(argv=None) -> argparse.Namespace:
    """The top-level parse_args, with a command's words read once, by its parser.

    Nested, argparse reads each word twice: at the top level, then in the
    command's parser.  No arguments, help, an unknown command or an option
    before the command still take the nested path.
    """
    parser = _cached_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    parser.refuse(extras)
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        return args.func(args)
    except MemoryError as exc:
        # a trajectory's arrays are allocated up front, so an impossible
        # --m fails here at once instead of running out of memory later
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except NoisyGroverError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        # each text the message echoes in full, as its repr, is named here
        print(f"error: {_REPR.sub(_describe_echo, str(exc))}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

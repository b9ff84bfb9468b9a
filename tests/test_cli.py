import contextlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict, replace
from itertools import chain

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from noisy_grover import cli
from noisy_grover.cli import main
from noisy_grover.errors import NoisyGroverError
from noisy_grover.noise import CHI_STAR_MAX_INDEX, chi_star, scalar_profile
from noisy_grover.reporting import CSV_HEADER
from noisy_grover.verify import CheckResult, VerificationReport

# Past int()'s digit limit, and a text far longer than a message may echo.
HUGE_DIGITS = "1" + "0" * 5000
LONG_TEXT = "x" * 5000
WORD = "x" * 3000
MISSING_PATH = f"/nonexistent/{WORD}"
PAST_LIMIT = f"an integer of 5001 digits is past the {sys.get_int_max_str_digits()}-digit limit"


def fill_longer(path, written):
    """Fill path with other bytes, longer than the file written: a rewrite must truncate."""
    path.write_bytes(b"\0" * (written.stat().st_size + 4096))


def strict_json(path):
    """The JSON document at path; NaN, Infinity or -Infinity in it fails."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append(dict(zip(CSV_HEADER.split(","), parts)))
    return rows


class TestExitCodes:
    def test_usage_errors_exit_one(self, capsys):
        assert main(["kraus", "--chi", "-1"]) == 1
        assert main(["chi-star", "--n-max", "0"]) == 1
        assert main(["search", "--chi", "0", "--n", "4"]) == 1  # missing --m
        assert main(["sweep", "--chi", "--n", "4", "--m", "1"]) == 1  # empty list
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        capsys.readouterr()

    def test_impossible_m_is_a_usage_error(self):
        # the trajectory's arrays are allocated before the first step, so
        # this fails at once with a typed error instead of exhausting memory;
        # the child's 1 GiB address-space cap turns a regression to lazy
        # allocation into this test's failure, not an out-of-memory kill
        script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from noisy_grover.cli import main
sys.exit(main(["search", "--chi", "1", "--n", "16", "--m", "1000000000000000"]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: out of memory")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "m, shown",
        [
            ("9007199254740993", "9007199254740993"),
            ("576460752303423487", "576460752303423487"),
            (str(10**20), "an integer of 67 bits"),
        ],
        ids=["2^53+1", "2^59-1", "1e20"],
    )
    def test_m_past_the_ceiling_names_m(self, m, shown, capsys):
        # past 2^53, m * psi no longer holds m exactly; numpy's own shape
        # errors, which do not name m, are never reached
        assert main(["search", "--chi", "1", "--n", "4", "--m", m]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: iteration count m must be <= 9007199254740992, got {shown}\n"
        )

    def test_parser_reuse_matches_fresh_parsers(self, capsys):
        commands = [
            ["search", "--chi", "1", "--n", "8", "--m", "3"],
            ["sweep", "--chi", "0", "2", "--n", "4", "5", "--m", "2"],
            ["search", "--chi", "0", "--n", "4"],  # missing --m
            ["search", "--chi", "1", "--n", "8", "--m", "3", "--format", "json"],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        fresh = []
        for argv in commands:
            cli._cached_parser.cache_clear()
            fresh.append(run(argv))
        cli._cached_parser.cache_clear()
        reused = [run(argv) for argv in commands]
        assert cli._cached_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in fresh] == [0, 0, 1, 0]

    def test_unwritable_output_exits_one(self, capsys):
        code = main(
            ["search", "--chi", "0", "--n", "4", "--m", "1",
             "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 1
        capsys.readouterr()


USAGE_ERRORS = [
    pytest.param(["search", "--chi", "-1", "--n", "4", "--m", "3"],
                 "noise strength chi must be finite and >= 0, got -1.0",
                 id="search-chi-minus-1"),
    pytest.param(["sweep", "--chi", "1", "-1", "--n", "4", "--m", "3"],
                 "noise strength chi must be finite and >= 0, got -1.0",
                 id="sweep-chi-minus-1"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "0"],
                 "iteration count m must be >= 1, got 0", id="search-m-0"),
    pytest.param(["sweep", "--chi", "1", "--n", "4", "--m", "0"],
                 "iteration count m must be >= 1, got 0", id="sweep-m-0"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "-1"],
                 "iteration count m must be >= 1, got -1", id="search-m-minus-1"),
    pytest.param(["sweep", "--chi", "1", "--n", "4", "--m", "-3"],
                 "iteration count m must be >= 1, got -3", id="sweep-m-minus-3"),
    (["search", "--chi", "1", "--n", "4", "--m", "3", "--config", "bad.cfg"],
     "search: unknown format 'xml'"),
    (["sweep", "--chi", "1", "--n", "4", "--m", "3", "--config", "bad.cfg"],
     "sweep: unknown format 'xml'"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3", "--format", "xml"],
                 "noisy-grover search: argument --format: invalid choice: "
                 "'xml' (choose from 'csv', 'json')",
                 id="search-format-xml"),
    (["search", "--chi", "--n", "4", "--m", "3"],
     "noisy-grover search: argument --chi: expected one argument"),
    (["sweep", "--chi", "--n", "4", "--m", "3"],
     "noisy-grover sweep: argument --chi: expected at least one argument"),
    (["sweep", "--chi", "1", "--n", "4", "--m", "3", "--per-cell", "--out", "x.csv"],
     "sweep: --out cannot be combined with --per-cell"),
    (["search", "--chi", "1", "--n", "4", "--m", "3", "--config", "abc.cfg"],
     "search: config target must be an integer, got 'abc'"),
    pytest.param(["verify", "--random-chi", "5"],
                 "noisy-grover: unrecognized arguments: '--random-chi' '5'",
                 id="verify-unrecognized-option"),
    pytest.param(["verify", "--seed", "-1"], "seed must be >= 0, got -1",
                 id="verify-seed-minus-1"),
    (["search", "--chi", "1", "--n", "4", "--m", "3", "--config", "noeq.cfg"],
     "config line without '=': 'format json'"),
    pytest.param(["search", "--chi", "nan", "--n", "4", "--m", "3"],
                 "noise strength chi must be finite and >= 0, got nan",
                 id="search-chi-nan"),
    pytest.param(["search", "--chi", "inf", "--n", "4", "--m", "3"],
                 "noise strength chi must be finite and >= 0, got inf",
                 id="search-chi-inf"),
    pytest.param(["kraus", "--chi", "-1"],
                 "noise strength chi must be finite and >= 0, got -1.0",
                 id="kraus-chi-minus-1"),
    pytest.param(["search", "--chi", "1", "--n", "1", "--m", "3"],
                 "database size n must be >= 2, got 1", id="search-n-1"),
    pytest.param(["sweep", "--chi", "1", "--n", "4", "1", "--m", "3"],
                 "database size n must be >= 2, got 1", id="sweep-n-4-1"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3", "--target", "4"],
                 "target index w must be <= 3, got 4",
                 id="search-target-4"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3", "--target", "-1"],
                 "target index w must be >= 0, got -1",
                 id="search-target-minus-1"),
    # huge integers are named by their size, bounds as well as values
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--target", str(10**400)],
                 "target index w must be <= 3, got an integer of 1329 bits",
                 id="search-target-1e400"),
    pytest.param(["search", "--chi", "1", "--n", str(10**300), "--m", "3",
                  "--target", str(10**301)],
                 "target index w must be <= an integer of 997 bits, "
                 "got an integer of 1000 bits",
                 id="search-n-1e300-target-1e301"),
    # a mistyped key is refused, not ignored
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--config", "typo.cfg"],
                 "config key 'formt' is not one of format, out_dir, target",
                 id="search-config-typo"),
    # a repeated key is refused, not overridden by its last line
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--config", "twice.cfg"],
                 "config key 'format' is set twice",
                 id="search-config-twice"),
    # a flag is an explicit request; a config out_dir stays a default
    pytest.param(["sweep", "--chi", "1", "--n", "4", "--m", "2", "--out-dir", "D"],
                 "sweep: --out-dir needs --per-cell",
                 id="sweep-out-dir-without-per-cell"),
    # chi-star's flag passes chi_star's own index rule
    pytest.param(["chi-star", "--n-max", "0"], "--n-max must be >= 1, got 0",
                 id="chi-star-n-max-0"),
    # over-long text is named by its size: an integer by its digits
    *(
        pytest.param([*argv, HUGE_DIGITS],
                     f"noisy-grover {argv[0]}: argument {argv[-1]}: {PAST_LIMIT}",
                     id=f"{argv[0]}{argv[-1]}-5001-digits")
        for argv in (
            ["search", "--chi", "1", "--m", "3", "--n"],
            ["search", "--chi", "1", "--n", "4", "--m"],
            ["search", "--chi", "1", "--n", "4", "--m", "3", "--target"],
            ["sweep", "--chi", "1", "--m", "3", "--n"],
            ["chi-star", "--n-max"],
            ["verify", "--seed"],
        )
    ),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--target", "9" * 4300],
                 "target index w must be <= 3, got an integer of 14285 bits",
                 id="search-target-4300-digits"),
    pytest.param(["search", "--chi", LONG_TEXT, "--n", "4", "--m", "3"],
                 "noisy-grover search: argument --chi: invalid float value: "
                 "a text of 5000 characters",
                 id="search-chi-long-text"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--format", LONG_TEXT],
                 "noisy-grover search: argument --format: invalid choice: "
                 "a text of 5000 characters (choose from 'csv', 'json')",
                 id="search-format-long-text"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--config", "huge_target.cfg"],
                 f"search: config target: {PAST_LIMIT}",
                 id="search-config-target-5001-digits"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--config", "long_target.cfg"],
                 "search: config target must be an integer, "
                 "got a text of 5000 characters",
                 id="search-config-target-long-text"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--config", "long_format.cfg"],
                 "search: unknown format a text of 5000 characters",
                 id="search-config-format-long-text"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--config", "long_key.cfg"],
                 "config key a text of 5000 characters is not one of "
                 "format, out_dir, target",
                 id="search-config-long-key"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--config", "long_line.cfg"],
                 "config line without '=': a text of 5000 characters",
                 id="search-config-long-line"),
    # a short text whose repr escapes past 26 characters is named by its size
    pytest.param(["search", "--chi", "\x01" * 24, "--n", "4", "--m", "3"],
                 "noisy-grover search: argument --chi: invalid float value: "
                 "a text of 24 characters",
                 id="search-chi-24-control-characters"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3",
                  "--format", "'\"\\" * 8],
                 "noisy-grover search: argument --format: invalid choice: "
                 "a text of 24 characters (choose from 'csv', 'json')",
                 id="search-format-24-quotes-and-backslashes"),
    # an unrecognized word is echoed as its repr, whatever its length
    pytest.param(["verify", "a'\\x'b"],
                 "noisy-grover: unrecognized arguments: \"a'\\\\x'b\"",
                 id="verify-unrecognized-quotes"),
    pytest.param(["verify", "ab\ncd"],
                 "noisy-grover: unrecognized arguments: 'ab\\ncd'",
                 id="verify-unrecognized-newline"),
    # unrecognized words and paths in I/O errors are named by their size too
    pytest.param(["verify", WORD],
                 "noisy-grover: unrecognized arguments: a text of 3000 characters",
                 id="verify-unrecognized-long-word"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3", f"--bogus-{WORD}"],
                 "noisy-grover: unrecognized arguments: a text of 3008 characters",
                 id="search-unrecognized-long-option"),
    pytest.param([f"--bogus-{WORD}", "search", "--chi", "1", "--n", "4", "--m", "3"],
                 "noisy-grover: unrecognized arguments: a text of 3008 characters",
                 id="long-option-before-the-command"),
    # options are read only when spelled in full: a prefix is an unrecognized word
    pytest.param(["sweep", "--chi", "1", "--n", "4", "--m", "3", f"--ou={WORD}"],
                 "noisy-grover: unrecognized arguments: a text of 3005 characters",
                 id="sweep-option-prefix-with-a-long-value"),
    pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3", f"--c={WORD}"],
                 "noisy-grover: unrecognized arguments: a text of 3004 characters",
                 id="search-option-prefix-with-a-long-value"),
    pytest.param(["search", "--ch", "1", "--n", "4", "--m", "3"],
                 "noisy-grover search: the following arguments are required: --chi",
                 id="search-option-prefix"),
    pytest.param(["verify", "a'", WORD],
                 "noisy-grover: unrecognized arguments: \"a'\" a text of 3000 characters",
                 id="verify-quote-beside-a-long-word"),
    pytest.param(["verify", "extra", WORD, "1" * 30],
                 "noisy-grover: unrecognized arguments: 'extra' a text of 3000 characters "
                 "an integer of 30 digits",
                 id="verify-unrecognized-words"),
    *(
        pytest.param(["search", "--chi", "1", "--n", "4", "--m", "3", flag, MISSING_PATH],
                     "[Errno 2] No such file or directory: a text of 3013 characters",
                     id=f"search{flag}-long-missing-path")
        for flag in ("--config", "--out")
    ),
]


class TestStderrContract:
    """What search and sweep write to stderr, with which exit code."""

    @pytest.fixture
    def one_problem(self, monkeypatch):
        monkeypatch.setattr(cli, "trajectory_violations", lambda report: ["m=3: x"])

    def test_search_prints_violations_unprefixed(self, one_problem, tmp_path, capsys):
        out = tmp_path / "run.csv"
        argv = ["search", "--chi", "1", "--n", "4", "--m", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "invariant violation: m=3: x\n"
        assert len(read_rows(out)) == 4

    def test_sweep_prefixes_each_line_with_its_cell(self, one_problem, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--chi", "1", "2.5", "--n", "4", "--m", "3", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "invariant violation: chi=1 n=4 m=3: x\n"
            "invariant violation: chi=2.5 n=4 m=3: x\n"
        )
        assert len(read_rows(out)) == 8

    def test_per_cell_sweep_still_writes_its_files(self, one_problem, tmp_path, capsys):
        argv = ["sweep", "--chi", "1", "--n", "4", "8", "--m", "3",
                "--per-cell", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "invariant violation: chi=1 n=4 m=3: x\n"
            "invariant violation: chi=1 n=8 m=3: x\n"
        )
        assert len(read_rows(tmp_path / "cell_chi1_n8.csv")) == 4

    @pytest.mark.parametrize("argv, message", USAGE_ERRORS)
    def test_usage_errors(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("NOISY_GROVER_OUT_DIR", raising=False)
        configs = {"bad.cfg": "format=xml\n", "abc.cfg": "target=abc\n",
                   "noeq.cfg": "format json\n", "typo.cfg": "formt=json\n",
                   "twice.cfg": "format=csv\nformat=json\n",
                   "huge_target.cfg": f"target={HUGE_DIGITS}\n",
                   "long_target.cfg": f"target={LONG_TEXT}\n",
                   "long_format.cfg": f"format={LONG_TEXT}\n",
                   "long_key.cfg": f"{LONG_TEXT}=csv\n",
                   "long_line.cfg": f"{LONG_TEXT}\n"}
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert len(captured.err) < 120  # one short line, whatever the input's size
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(configs)

    def test_bad_chi_in_any_cell_runs_no_trajectory(self, monkeypatch, capsys):
        # every cell's instance is built, and its chi checked, first
        calls = []
        monkeypatch.setattr(cli, "trajectory_report", lambda *args: calls.append(args))
        assert main(["sweep", "--chi", "1", "-1", "--n", "4", "--m", "3"]) == 1
        assert calls == []
        assert capsys.readouterr().out == ""

    def test_library_contract_violation_exits_two(self, monkeypatch, capsys):
        # main maps any NoisyGroverError that escapes a command to exit 2
        def violated(inst, m_max):
            raise NoisyGroverError("x")

        monkeypatch.setattr(cli, "trajectory_report", violated)
        assert main(["search", "--chi", "1", "--n", "4", "--m", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: x\n"


def _argv(case) -> list:
    return case.values[0] if hasattr(case, "values") else case[0]


SEARCH = ["search", "--chi", "1", "--n", "4", "--m", "3"]
PARSE_CORPUS = [
    *map(_argv, USAGE_ERRORS),
    # the README commands
    ["kraus", "--chi", "0.8"],
    ["chi-star", "--n-max", "5"],
    ["search", "--chi", "1", "--n", "16", "--m", "40", "--target", "0", "--out", "run.csv"],
    ["sweep", "--chi", "0", "1", "6.083668013960418", "--n", "4", "16", "--m", "25"],
    ["verify", "--seed", "0", "--strict-paper", "--out", "report.json"],
    # the benchmark's command shapes
    ["search", "--chi", "6.083668013960418", "--n", "64", "--m", "60", "--target", "17",
     "--out", "op0.csv"],
    ["sweep", "--chi", "3.5", "--n", "300", "400", "--m", "200", "--format", "json",
     "--out", "op3.json"],
    ["search", "--chi", "1.0", "--n", str(2**20), "--m", "10", "--out", "op4.csv"],
    # help at both levels, and no arguments
    [], ["-h"], ["--help"], ["search", "-h"], ["sweep", "--help"], ["verify", "-h"],
    ["kraus", "--chi", "1", "-h"], ["search", "-h", "--bogus"],
    # option prefixes, --flag=value, --, repeated flags, negative values
    [*SEARCH, "--tar", "2", "--form", "json"],
    ["search", "--ch", "1", "--n", "4", "--m", "3"],
    ["sweep", "--chi", "1", "--n", "4", "--m", "3", "--per", "--out-d", "cells"],
    ["sweep", "--chi", "1", "--n", "4", "--m", "3", "--ou", "x.csv"],
    ["sweep", "--chi", "1", "--n", "4", "--m", "3", "--ou=x"],
    [*SEARCH, "--c=x"],
    ["search", "--chi=1", "--n=4", "--m=3"],
    ["search", "--", "--chi", "1", "--n", "4", "--m", "3"],
    [*SEARCH, "--", "extra"],
    ["sweep", "--chi", "1", "--", "2", "--n", "4", "--m", "3"],
    [*SEARCH, "--chi", "2", "--m", "5"],
    ["sweep", "--chi", "-1", "-0", "--n", "4", "--m", "-3", "--target", "-2"],
    # an option before the command, extra words, an unknown command
    ["--bogus", *SEARCH], ["-h", *SEARCH], ["--chi", "1", "search"],
    [*SEARCH, "extra"], ["kraus", "--chi", "1", "2"], ["verify", "extra", "--bogus=1"],
    ["nosuch"], ["nosuch", "--chi", "1"], [LONG_TEXT], ["Search", "--chi", "1"],
]


def _parse_outcome(parse, argv, capsys):
    """The namespace, or the exception and its message, or the exit code; and stdout."""
    try:
        outcome = repr(vars(parse(argv)))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    except Exception as exc:  # compared, not handled
        outcome = (type(exc), str(exc))
    return outcome, capsys.readouterr().out


class TestOnePassParse:
    """A command's words are parsed once, by its parser; the nested parse is the oracle."""

    @pytest.mark.parametrize("argv", PARSE_CORPUS)
    def test_matches_the_nested_parse(self, argv, capsys):
        nested = _parse_outcome(cli.build_parser().parse_args, argv, capsys)
        assert _parse_outcome(cli._parse, argv, capsys) == nested

    def test_the_top_level_parser_never_reads_a_command(self, tmp_path, monkeypatch):
        def nested(*args, **kwargs):
            raise AssertionError("the top-level parser read a command's words")

        monkeypatch.setattr(cli._cached_parser(), "parse_known_args", nested)
        assert main([*SEARCH, "--out", str(tmp_path / "search.csv")]) == 0
        sweep = ["sweep", "--chi", "0", "1", "--n", "4", "8", "--m", "3", "--format", "json"]
        assert main([*sweep, "--out", str(tmp_path / "sweep.json")]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["search.csv", "sweep.json"]


ECHO_ALPHABET = "'\"\\\x01\n0123456789éxy"


# a drawn text repeated up to 100 times: hypothesis alone rarely draws past 30 characters
ECHO_TEXTS = st.tuples(st.text(ECHO_ALPHABET, min_size=1, max_size=30), st.integers(1, 100)).map(
    lambda drawn: (drawn[0] * drawn[1])[:3000]
)


def named(text: str) -> str:
    """How an error line names an echoed text: its repr up to 26 characters,
    past that its digit count as an integer, else its length."""
    if len(repr(text)) <= 26:
        return repr(text)
    if text.strip().isdecimal():
        return f"an integer of {sum(map(str.isdecimal, text))} digits"
    return f"a text of {len(text)} characters"


class TestEchoNaming:
    """Every echo site's line is its template, the echo named by the rule above."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=ECHO_TEXTS)
    @example(text="'\"\\\x01\né" * 500)
    @example(text="\n" + "9" * 2999)
    def test_each_site_names_the_text(self, text, tmp_path_factory):
        line = text.replace("\n", "x")  # a config line cannot hold a newline
        assume(not line.isdecimal())  # that target is an integer, and runs
        quoted = text[:23] + "'"  # its quote must not pair with the next word's repr
        path = f"/nonexistent-dir/{text}"
        try:
            open(path, "w")
        except OSError as exc:  # which errno depends on the path's length
            missing = f"[Errno {exc.errno}] {exc.strerror}: {named(path)}"
        config = str(tmp_path_factory.mktemp("echo") / "echo.cfg")
        sites = [
            ([*SEARCH, "--format", text], None,
             "noisy-grover search: argument --format: invalid choice: "
             f"{named(text)} (choose from 'csv', 'json')"),
            ([*SEARCH, "--config", config], line,
             f"config line without '=': {named(line)}"),
            ([*SEARCH, "--config", config], f"{line}=csv",
             f"config key {named(line)} is not one of format, out_dir, target"),
            ([*SEARCH, "--config", config], f"target={line}",
             f"search: config target must be an integer, got {named(line)}"),
            ([*SEARCH, "--out", path], None, missing),
            ([*SEARCH, text], None, f"noisy-grover: unrecognized arguments: {named(text)}"),
            ([*SEARCH, quoted, text], None,
             f"noisy-grover: unrecognized arguments: {named(quoted)} {named(text)}"),
            ([*SEARCH, f"--c={text}"], None,
             "noisy-grover: unrecognized arguments: " + named("--c=" + text)),
        ]
        for argv, config_line, message in sites:
            if config_line is not None:
                with open(config, "w") as handle:
                    handle.write(config_line + "\n")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(argv) == 1
            assert (out.getvalue(), err.getvalue()) == ("", f"error: {message}\n")

    def test_warnings_do_not_change_the_line(self, capsys):
        # a word is echoed as its repr, so naming it never reads an invalid escape
        expected = "error: noisy-grover: unrecognized arguments: \"'\\\\d'\"\n"
        assert main(["verify", "'\\d'"]) == 1
        assert capsys.readouterr().err == expected
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "'\\d'"]) == 1
        assert capsys.readouterr().err == expected


class TestKraus:
    def test_reports_gap_between_constructions(self, capsys):
        assert main(["kraus", "--chi", "0"]) == 0
        out = capsys.readouterr().out
        assert "choi distance" in out
        gap = float(out.split("choi distance closed-form vs hamiltonian =")[1].split()[0])
        assert gap == pytest.approx(2.0, abs=1e-9)

    def test_magic_point_shows_vanishing_second_operator(self, capsys):
        assert main(["kraus", "--chi", "6.0836680139604178"]) == 0
        out = capsys.readouterr().out
        weights = out.split("[closed-form] fractional weights  = ")[1].split("\n")[0]
        assert float(weights.split(",")[1]) == pytest.approx(0.0, abs=1e-12)

    def test_negative_zero_prints_as_zero(self, capsys):
        assert main(["kraus", "--chi", "-0"]) == 0
        negative_zero = capsys.readouterr().out
        assert negative_zero.startswith("chi = 0\n")
        assert main(["kraus", "--chi", "0"]) == 0
        assert capsys.readouterr().out == negative_zero

    @pytest.mark.parametrize("chi", ["0.8", "6.083668013960418"])
    def test_rerun_prints_the_same_bytes(self, chi, capsys):
        # the completeness defects, weights and Choi distance, rounded bits included
        assert main(["kraus", "--chi", chi]) == 0
        first = capsys.readouterr()
        assert main(["kraus", "--chi", chi]) == 0
        assert capsys.readouterr() == first
        assert first.err == ""


class TestChiStar:
    def test_table(self, capsys):
        assert main(["chi-star", "--n-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,chi_n,psi"
        n1 = lines[1].split(",")
        assert float(n1[1]) == pytest.approx(6.0836680139604178, abs=1e-12)
        assert float(n1[2]) <= 1e-10
        n2 = lines[2].split(",")
        assert float(n2[1]) == pytest.approx(12.4678093230991225, abs=1e-12)

    def test_perturbed_point_fails_gate(self, monkeypatch, capsys):
        # psi(chi_n) stays below 1e-10 up to n = 131270, so the gate is
        # exercised by moving psi off zero at every row
        monkeypatch.setattr(
            cli, "scalar_profile", lambda chi: replace(scalar_profile(chi), psi=0.1)
        )
        assert main(["chi-star", "--n-max", "2"]) == 2
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [float(row.split(",")[2]) for row in rows] == [0.1, 0.1]

    @pytest.mark.parametrize(
        "shifted",
        [
            # psi(chi_n) first passes 1e-10 at n = 131271, by rounding alone
            pytest.param(lambda n: chi_star(n + 131270), id="from-131271"),
            pytest.param(lambda n: chi_star(CHI_STAR_MAX_INDEX), id="last-index"),
        ],
    )
    def test_rounded_magic_strengths_pass_gate(self, shifted, monkeypatch, capsys):
        # each row's bound grows with ulp(chi_n), so the exact zeros that
        # rounding moves off zero never fail the table
        monkeypatch.setattr(cli, "chi_star", shifted)
        assert main(["chi-star", "--n-max", "2"]) == 0
        first_row = capsys.readouterr().out.splitlines()[1]
        assert float(first_row.split(",")[2]) > 1e-10  # past the old fixed bound

    @pytest.mark.parametrize(
        "n_max, shown",
        [
            # chi_n first exceeds CHI_MAX at this n, CHI_STAR_MAX_INDEX + 1
            pytest.param("716770142402833", "716770142402833", id="first-row-past-chi-max"),
            pytest.param(str(10**15), str(10**15), id="n-max-1e15"),
            # a value wider than 64 bits is named by its size
            pytest.param("1" + "0" * 400, "an integer of 1329 bits", id="n-max-1e400"),
        ],
    )
    def test_failing_table_prints_nothing(self, n_max, shown, capsys):
        # --n-max is checked before the header, so no row can fail
        assert main(["chi-star", "--n-max", n_max]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --n-max must be <= 716770142402832, got {shown}\n"
        )

    def test_perturb_is_not_an_option(self, capsys):
        assert main(["chi-star", "--n-max", "5", "--perturb", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: noisy-grover: unrecognized arguments: '--perturb' '0.1'\n"
        )


class TestSearch:
    def test_single_step_reaches_target(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        assert main(
            ["search", "--chi", "0", "--n", "4", "--m", "1", "--out", str(out)]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 2
        assert abs(float(rows[1]["p_success"]) - 1.0) <= 1e-10
        capsys.readouterr()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_is_byte_deterministic(self, fmt, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["search", "--chi", "1", "--n", "8", "--m", "12", "--format", fmt]
        assert main(args + ["--out", str(a)]) == 0
        fill_longer(b, a)
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        # cos_gamma_sim is nan where the Bloch norm vanishes: null in JSON,
        # which must parse with no NaN or Infinity, and nan in CSV.  At
        # chi = 7.716, near the c = 0 strength 7.716019, |cos 2 psi| is
        # 1.86e-5, so the Bloch norm is 3.4e-10 at m = 2 and below
        # BLOCH_ZERO_ATOL (1e-10) from m = 3 on: 10 nan rows for m <= 12,
        # at n = 4 as at n = 16.  A sweep's encoder writes the commas
        # between the rows of different cells, and --per-cell one file each.
        out, csv = tmp_path / "run.json", tmp_path / "run.csv"
        sweep = ["sweep", "--chi", "0", "7.716", "--n", "4", "16", "--m", "12"]
        for argv, rows, nulls in (
            (["search", "--chi", "0.5", "--n", "4", "--m", "3"], 4, 0),
            (["search", "--chi", "7.716", "--n", "16", "--m", "12"], 13, 10),
            (sweep, 4 * 13, 20),
        ):
            assert main([*argv, "--format", "json", "--out", str(out)]) == 0
            assert main([*argv, "--out", str(csv)]) == 0
            payload = strict_json(out)
            assert set(payload) == {"rows", "discrepancies"}
            assert len(payload["rows"]) == rows
            assert payload["rows"][0]["m"] == 0
            undefined = [row["cos_gamma_sim"] is None for row in payload["rows"]]
            assert undefined == [row["cos_gamma_sim"] == "nan" for row in read_rows(csv)]
            assert sum(undefined) == nulls
        # the sweep's rows, read back one cell per file in chi-major order;
        # a file name holds chi at 17 significant digits
        assert main([*sweep, "--format", "json", "--per-cell", "--out-dir", str(tmp_path)]) == 0
        per_cell = [strict_json(tmp_path / f"cell_chi{chi}_n{n}.json")["rows"]
                    for chi in ("0", "7.7160000000000002") for n in ("4", "16")]
        assert list(chain(*per_cell)) == payload["rows"]

    def test_oversized_n_is_a_usage_error(self, capsys):
        huge = "1" + "0" * 400
        assert main(["search", "--chi", "1", "--n", huge, "--m", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_huge_n_runs_in_the_plane(self, tmp_path):
        out = tmp_path / "huge.csv"
        assert main(
            ["search", "--chi", "1", "--n", "1048576", "--m", "10", "--out", str(out)]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 11
        assert rows[0]["n"] == "1048576"

    def test_pure_initial_state_prints_zero_entropy(self, tmp_path):
        out = tmp_path / "run.csv"
        assert main(["search", "--chi", "1", "--n", "16", "--m", "3", "--out", str(out)]) == 0
        assert read_rows(out)[0]["entropy_nats"] == "0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--chi", "1e308", "--n", "4", "--m", "3"],
            ["search", "--chi", "1e305", "--n", "4", "--m", "10000"],
            ["sweep", "--chi", "1", "1e308", "--n", "4", "--m", "3"],
            ["kraus", "--chi", "1e308"],
        ],
    )
    def test_huge_chi_is_a_usage_error(self, argv, capsys):
        # above CHI_MAX, chi/2 resolves no angle and m * theta overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: noise strength chi must be <= 4503599627370496, got"
        )
        assert "Traceback" not in captured.err

    def test_negative_zero_prints_as_zero(self, capsys):
        assert main(["search", "--chi", "-0", "--n", "4", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["0", "0"]
        assert main(["search", "--chi", "0", "--n", "4", "--m", "1"]) == 0
        assert capsys.readouterr().out == out

    def test_stdout_when_no_out_given(self, capsys):
        assert main(["search", "--chi", "0", "--n", "4", "--m", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(CSV_HEADER)


class TestSweep:
    def test_cell_count_and_order(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--chi", "0", "1", "6.0836680139604178",
             "--n", "4", "16", "--m", "2", "--out", str(out)]
        ) == 0
        rows = read_rows(out)
        assert len(rows) == 3 * 2 * 3  # chi-major cells, m+1 rows each
        cells = [(r["chi"], r["n"]) for r in rows[:: 3]]
        assert cells == [
            ("0", "4"), ("0", "16"),
            ("1", "4"), ("1", "16"),
            ("6.083668013960418", "4"), ("6.083668013960418", "16"),
        ]

    def test_per_cell_files(self, tmp_path):
        assert main(
            ["sweep", "--chi", "0", "1", "--n", "4", "8", "--m", "1",
             "--per-cell", "--out-dir", str(tmp_path / "cells")]
        ) == 0
        files = sorted(p.name for p in (tmp_path / "cells").iterdir())
        assert files == [
            "cell_chi0_n4.csv", "cell_chi0_n8.csv",
            "cell_chi1_n4.csv", "cell_chi1_n8.csv",
        ]

    def test_negative_zero_is_the_zero_cell(self, tmp_path):
        assert main(
            ["sweep", "--chi", "0", "-0", "--n", "4", "--m", "1",
             "--per-cell", "--out-dir", str(tmp_path / "cells")]
        ) == 0
        files = sorted(p.name for p in (tmp_path / "cells").iterdir())
        assert files == ["cell_chi0_n4.csv"]

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOISY_GROVER_OUT_DIR", str(tmp_path / "envdir"))
        assert main(
            ["sweep", "--chi", "0", "--n", "4", "--m", "1", "--per-cell"]
        ) == 0
        assert (tmp_path / "envdir" / "cell_chi0_n4.csv").exists()

    @pytest.mark.parametrize("source", ["env", "config", "flag"])
    def test_empty_out_dir_is_the_cwd(self, source, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NOISY_GROVER_OUT_DIR", "" if source == "env" else "unused")
        (tmp_path / "run.cfg").write_text("out_dir=\n" if source == "config" else "")
        argv = ["sweep", "--chi", "1", "--n", "4", "--m", "1", "--per-cell",
                "--config", "run.cfg"]
        assert main(argv + (["--out-dir", ""] if source == "flag" else [])) == 0
        assert [p.name for p in tmp_path.glob("cell_*")] == ["cell_chi1_n4.csv"]

    def test_config_file_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\nformat=json\nout_dir=unused\n")
        out_json = tmp_path / "a"
        assert main(
            ["sweep", "--chi", "0", "--n", "4", "--m", "1",
             "--config", str(cfg), "--out", str(out_json)]
        ) == 0
        assert json.loads(out_json.read_text())["rows"]
        out_csv = tmp_path / "b"
        assert main(
            ["sweep", "--chi", "0", "--n", "4", "--m", "1",
             "--config", str(cfg), "--format", "csv", "--out", str(out_csv)]
        ) == 0
        assert out_csv.read_text().startswith(CSV_HEADER)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_deterministic(self, fmt, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["sweep", "--chi", "0.5", "2", "--n", "4", "--m", "5", "--format", fmt]
        assert main(args + ["--out", str(a)]) == 0
        fill_longer(b, a)
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_cell_sweep_equals_search(self, fmt, tmp_path):
        # search, per-cell and combined sweep output share one renderer
        cell = ["--chi", "2.5", "--n", "300", "--m", "12", "--target", "7",
                "--format", fmt]
        search, sweep = tmp_path / "search", tmp_path / "sweep"
        per_cell = tmp_path / f"cell_chi2.5_n300.{fmt}"
        assert main(["search", *cell, "--out", str(search)]) == 0
        assert main(["sweep", *cell, "--out", str(sweep)]) == 0
        fill_longer(per_cell, search)
        assert main(["sweep", *cell, "--per-cell", "--out-dir", str(tmp_path)]) == 0
        assert search.read_bytes() == sweep.read_bytes() == per_cell.read_bytes()


class TestVerify:
    def test_default_run_passes_and_records_gap(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(
            ["verify", "--out", str(out)]
        ) == 0
        payload = strict_json(out)
        assert payload["all_hard_passed"] is True
        gaps = [
            d for d in payload["discrepancies"]
            if d["kind"] == "prop1_choi_gap" and d["chi"] == 0.0
        ]
        assert gaps and gaps[0]["magnitude"] > 0.1
        kinds = {d["kind"] for d in payload["discrepancies"]}
        assert "prop3_normalization" in kinds
        capsys.readouterr()

    def test_strict_mode_fails_on_recorded_gaps(self, capsys):
        assert main(["verify", "--strict-paper"]) == 2
        capsys.readouterr()

    def test_failed_hard_check_exits_two(self, tmp_path, monkeypatch, capsys):
        failed = VerificationReport(
            checks=[CheckResult("x", False, 1.0, "d")], discrepancies=[]
        )
        monkeypatch.setattr("noisy_grover.verify.run_verification", lambda seed: failed)
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 2
        assert capsys.readouterr().out == "[FAIL] x: worst 1.000e+00 (d)\n"
        assert json.loads(out.read_text())["all_hard_passed"] is False

    @pytest.fixture
    def passed(self, tmp_path, monkeypatch):
        report = VerificationReport(checks=[CheckResult("x", True, 0.0, "d")], discrepancies=[])
        monkeypatch.setattr("noisy_grover.verify.run_verification", lambda seed: report)
        monkeypatch.chdir(tmp_path)
        return report

    def test_out_dash_prints_the_json_after_the_check_lines(self, passed, tmp_path, capsys):
        assert main(["verify", "--out", "-"]) == 0
        assert capsys.readouterr().out == (
            "[PASS] x: worst 0.000e+00 (d)\n" + json.dumps(passed.to_dict(), indent=2) + "\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_is_an_io_error(self, passed, tmp_path, capsys):
        assert main(["verify", "--out", ""]) == 1
        assert capsys.readouterr() == (
            "[PASS] x: worst 0.000e+00 (d)\n",
            "error: [Errno 2] No such file or directory: ''\n",
        )
        assert list(tmp_path.iterdir()) == []

    def test_rewrite_leaves_exactly_the_report(self, passed, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--out", str(a)]) == 0
        fill_longer(b, a)
        assert main(["verify", "--out", str(b)]) == 0
        assert b.read_bytes() == a.read_bytes()
        assert json.loads(b.read_text()) == passed.to_dict()
        capsys.readouterr()

    def test_seeded_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--seed", "42", "--out", str(a)]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "42", "--out", str(b)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert a.read_bytes() == b.read_bytes()

    def test_non_finite_worst_is_null_in_the_file(self, tmp_path, monkeypatch, capsys):
        # the zero scan's worst is inf when it finds another number of zeros
        scan = CheckResult("psi_zero_scan", False, math.inf, "found 2 zeros")
        monkeypatch.setattr("noisy_grover.verify._psi_zero_scan", lambda: scan)
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 2
        assert "[FAIL] psi_zero_scan: worst inf (found 2 zeros)\n" in capsys.readouterr().out
        payload = strict_json(out)
        assert payload["checks"][2] == {**asdict(scan), "worst": None}
        assert payload["all_hard_passed"] is False


# each command that writes --out, as argv up to the option
OUT_COMMANDS = {
    "search": SEARCH,
    "sweep": ["sweep", "--chi", "1", "2", "--n", "4", "--m", "3"],
    "verify": ["verify"],
}


class TestOutFile:
    """--out on a character device, through a symlink, as a new file and as a FIFO."""

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_dev_null_is_written_without_error(self, command, capsys):
        # a character device: ftruncate on it fails with EINVAL
        assert main([*OUT_COMMANDS[command], "--out", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_symlink_writes_its_target(self, command, tmp_path, capsys):
        plain, target, link = tmp_path / "plain", tmp_path / "target", tmp_path / "link"
        assert main([*OUT_COMMANDS[command], "--out", str(plain)]) == 0
        fill_longer(target, plain)
        link.symlink_to(target)
        assert main([*OUT_COMMANDS[command], "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == plain.read_bytes()
        capsys.readouterr()

    def test_new_file_mode_follows_the_umask(self, tmp_path, capsys):
        out = tmp_path / "new.csv"
        previous = os.umask(0o022)
        try:
            assert main([*SEARCH, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o022
        capsys.readouterr()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_fifo_reader_gets_the_file_bytes(self, tmp_path, capsys):
        # neither a regular file nor a device: ftruncate on a pipe fails with EINVAL
        plain, fifo = tmp_path / "plain", tmp_path / "fifo"
        assert main([*SEARCH, "--out", str(plain)]) == 0
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert main([*SEARCH, "--out", str(fifo)]) == 0
        finally:
            # a reader still waiting for a writer sees end of file, not a hang
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert received == [plain.read_bytes()]
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["chi-star", "--n-max", "1"], 0, "n,chi_n,psi\n1,", ""),
        (["chi-star", "--n-max", "0"], 1, "", "error: --n-max must be >= 1, got 0\n"),
        (["verify", "--strict-paper"], 2, "[PASS] completeness_grid: ",
         "strict mode: closed-form discrepancies exceed 1e-8\n"),
    ],
    ids=["exit-0", "usage-error-exit-1", "strict-paper-exit-2"],
)
def test_console_entry_point_runs(argv, code, stdout, stderr):
    # the console script calls cli.entrypoint, as python -m does: its exit
    # status is main's return code, and a usage error is one stderr line
    proc = subprocess.run(
        [sys.executable, "-m", "noisy_grover.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code
    assert proc.stdout.startswith(stdout) and (stdout or not proc.stdout)
    assert proc.stderr == stderr


def test_no_command_needs_mpmath():
    # sys.modules[name] = None makes every later `import mpmath` fail
    script = """
import contextlib, io, sys
sys.modules["mpmath"] = None
from noisy_grover.cli import main
commands = [
    ["kraus", "--chi", "0.8"],
    ["chi-star", "--n-max", "3"],
    ["search", "--chi", "1", "--n", "16", "--m", "40"],
    ["sweep", "--chi", "0", "1", "--n", "4", "--m", "25"],
    ["verify", "--seed", "0"],
]
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(codes)
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert proc.stderr == ""
    assert proc.stdout == "[0, 0, 0, 0, 0]\n"


# Runs one command in a fresh interpreter and prints its exit code and the
# modules it loaded beyond numpy's; the script itself imports nothing more.
IMPORT_SET_SCRIPT = """
import contextlib, io, sys
import numpy
before = set(sys.modules)
from noisy_grover.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(set(sys.modules) - before))
"""
DENSE_LAYERS = {"noisy_grover.verify", "noisy_grover.channels", "json"}


def _loaded_by(argv) -> tuple:
    """The exit code of `noisy-grover argv` and the modules it newly loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SET_SCRIPT, *argv], capture_output=True, text=True
    )
    assert proc.stderr == ""
    code, *modules = proc.stdout.split()
    return int(code), set(modules)


class TestImportSet:
    """Each command loads only the layers it runs; a difference set, so a json
    that site or numpy already loaded cannot fail it."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--chi", "1", "--n", "16", "--m", "40"],
            ["sweep", "--chi", "0", "1", "--n", "4", "16", "--m", "25"],
            ["sweep", "--chi", "0", "1", "--n", "4", "16", "--m", "25", "--format", "json"],
            ["chi-star", "--n-max", "5"],
        ],
        ids=["search", "sweep-csv", "sweep-json", "chi-star"],
    )
    def test_plane_commands_skip_the_dense_layers(self, argv):
        code, loaded = _loaded_by(argv)
        assert code == 0
        assert "noisy_grover.search" in loaded
        assert loaded & DENSE_LAYERS == set()

    def test_kraus_loads_channels_but_not_verify(self):
        code, loaded = _loaded_by(["kraus", "--chi", "0.8"])
        assert code == 0
        assert "noisy_grover.channels" in loaded
        assert "noisy_grover.verify" not in loaded

    def test_verify_loads_its_layers_and_still_works(self, tmp_path):
        out = tmp_path / "verify.json"
        code, loaded = _loaded_by(["verify", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert {"noisy_grover.verify", "noisy_grover.channels"} <= loaded
        assert json.loads(out.read_text())["all_hard_passed"] is True

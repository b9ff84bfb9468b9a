"""Deterministic CSV/JSON emission of trajectory reports.

CSV prints every float at 17 significant digits (`%.17g`); JSON prints
the shortest round-trip `repr`, with nan and infinities as null.  Both
round-trip exactly, and identical runs produce byte-identical files.
"""

from __future__ import annotations

from itertools import chain, repeat

from .analysis import TrajectoryReport

__all__ = ["CSV_HEADER", "report_rows", "rows_to_csv", "rows_to_json"]

CSV_HEADER = (
    "chi,n,w,m,p_success,f_paper,f_closed,cos_gamma_sim,cos_gamma_closed,"
    "bloch_norm,entropy_nats,majorized_by_prev,majorized_by_init"
)

_COLUMNS = CSV_HEADER.split(",")
_INT_COLUMNS = ("n", "w", "m")
_FLAG_COLUMNS = ("majorized_by_prev", "majorized_by_init")  # the last two
# One printf template per row, so no cell is type-tested: ints in decimal,
# flags as words, every other column a float at 17 significant digits.
_ROW_TEMPLATE = ",".join(
    "%s" if c in _FLAG_COLUMNS else "%d" if c in _INT_COLUMNS else "%.17g"
    for c in _COLUMNS
)
_FLAG_TEXT = {True: "true", False: "false"}
# One row object of json.dumps(indent=2), every value already JSON text.
_JSON_ROW = "    {\n" + ",\n".join(f'      "{c}": %s' for c in _COLUMNS) + "\n    }"
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def report_rows(report: TrajectoryReport) -> list:
    """One tuple per iteration, its values in CSV_HEADER order."""
    inst = report.instance
    return list(
        zip(
            repeat(float(inst.chi)),
            repeat(inst.n),
            repeat(inst.w),
            range(len(report.p_success)),
            report.p_success.tolist(),
            report.f_paper.tolist(),
            report.f_closed.tolist(),
            report.cos_gamma.tolist(),
            report.cos_gamma_closed.tolist(),
            report.bloch_norm.tolist(),
            report.entropies.tolist(),
            report.majorized_by_prev.tolist(),
            report.majorized_by_init.tolist(),
        )
    )


def _flag_words(column):
    return map(_FLAG_TEXT.__getitem__, column)


def _json_ints(column):
    return map(int.__repr__, column)


def _json_floats(column) -> list:
    """float.__repr__ of each value, as json.dumps prints it; nan, inf, -inf as null."""
    cells = list(map(float.__repr__, column))
    if not _NON_FINITE.isdisjoint(cells):
        cells = ["null" if cell in _NON_FINITE else cell for cell in cells]
    return cells


_JSON_TEXT = tuple(
    _flag_words if c in _FLAG_COLUMNS else _json_ints if c in _INT_COLUMNS
    else _json_floats
    for c in _COLUMNS
)


def _cells(columns) -> tuple:
    """The cells of equal-length columns, row by row."""
    return tuple(chain.from_iterable(zip(*columns)))


def rows_to_csv(rows: list) -> str:
    """The header and one `_ROW_TEMPLATE` line per row, filled in one call."""
    columns = list(zip(*rows))
    columns[-2:] = map(_flag_words, columns[-2:])
    return CSV_HEADER + "\n" + ((_ROW_TEMPLATE + "\n") * len(rows)) % _cells(columns)


def rows_to_json(rows: list) -> str:
    """Rows as JSON objects, nan as null; the ledger stays with `verify`.

    The text is json.dumps({"rows": ..., "discrepancies": []}, indent=2)
    plus a newline, byte for byte, laid out here column by column.
    """
    if not rows:
        return '{\n  "rows": [],\n  "discrepancies": []\n}\n'
    columns = [text(column) for text, column in zip(_JSON_TEXT, zip(*rows))]
    body = ",\n".join([_JSON_ROW] * len(rows)) % _cells(columns)
    return '{\n  "rows": [\n' + body + '\n  ],\n  "discrepancies": []\n}\n'

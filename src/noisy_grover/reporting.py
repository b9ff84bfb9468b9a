"""Deterministic CSV/JSON emission of trajectory reports.

CSV prints every float at 17 significant digits (`%.17g`); JSON prints
the shortest round-trip `repr`, with nan and infinities as null.  Both
round-trip exactly, and identical runs produce byte-identical files.

The emitters read each report's columns directly.  A report's cell
constants chi, n and w are formatted once, as the literal start of that
report's row template; the other ten columns fill it in one `%` call per
report, and the reports' texts are joined.
"""

from __future__ import annotations

from itertools import chain

__all__ = ["CSV_HEADER", "rows_to_csv", "rows_to_json"]

CSV_HEADER = (
    "chi,n,w,m,p_success,f_paper,f_closed,cos_gamma_sim,cos_gamma_closed,"
    "bloch_norm,entropy_nats,majorized_by_prev,majorized_by_init"
)

# The row after the cell constants chi, n, w: m, seven floats, two flags.
_CSV_ROW_TAIL = "%d," + "%.17g," * 7 + "%s,%s\n"
_JSON_ROW_TAIL = (
    ",\n".join(f'      "{c}": %s' for c in CSV_HEADER.split(",")[3:]) + "\n    }"
)
_FLAG_TEXT = {True: "true", False: "false"}
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def _json_floats(column) -> list:
    """float.__repr__ of each value, as json.dumps prints it; nan, inf, -inf as null."""
    cells = list(map(float.__repr__, column))
    if not _NON_FINITE.isdisjoint(cells):
        cells = ["null" if cell in _NON_FINITE else cell for cell in cells]
    return cells


def _float_columns(report) -> tuple:
    """The seven float columns after m, in CSV_HEADER order, as lists."""
    return tuple(
        column.tolist()
        for column in (
            report.p_success,
            report.f_paper,
            report.f_closed,
            report.cos_gamma,
            report.cos_gamma_closed,
            report.bloch_norm,
            report.entropies,
        )
    )


def _cells(report, floats) -> tuple:
    """m, the float columns `floats` and the two flags, row by row, flat."""
    flags = (report.majorized_by_prev.tolist(), report.majorized_by_init.tolist())
    return tuple(
        chain.from_iterable(
            zip(
                range(len(report.p_success)),
                *floats,
                *(map(_FLAG_TEXT.__getitem__, column) for column in flags),
            )
        )
    )


def _csv_block(report) -> str:
    inst = report.instance
    template = "%.17g,%d,%d," % (inst.chi, inst.n, inst.w) + _CSV_ROW_TAIL
    return (template * len(report.p_success)) % _cells(report, _float_columns(report))


def _json_block(report) -> str:
    inst = report.instance
    (chi,) = _json_floats([inst.chi])
    head = f'    {{\n      "chi": {chi},\n      "n": {inst.n},\n      "w": {inst.w},\n'
    cells = _cells(report, map(_json_floats, _float_columns(report)))
    return ",\n".join([head + _JSON_ROW_TAIL] * len(report.p_success)) % cells


def rows_to_csv(reports: list) -> str:
    """The header and one line per iteration of each report, in order."""
    return CSV_HEADER + "\n" + "".join(map(_csv_block, reports))


def rows_to_json(reports: list) -> str:
    """Every report's rows as JSON objects, nan as null; the ledger stays
    with `verify`.

    The text is json.dumps({"rows": ..., "discrepancies": []}, indent=2)
    plus a newline, byte for byte, for reports of one row or more (a
    trajectory_report has m_max + 1 >= 2).
    """
    if not reports:
        return '{\n  "rows": [],\n  "discrepancies": []\n}\n'
    body = ",\n".join(map(_json_block, reports))
    return '{\n  "rows": [\n' + body + '\n  ],\n  "discrepancies": []\n}\n'

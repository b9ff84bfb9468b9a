"""Deterministic CSV/JSON emission of trajectory reports.

Floats are printed with 17 significant digits so output round-trips
exactly and identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

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


def rows_to_csv(rows: list) -> str:
    lines = [CSV_HEADER]
    for *numbers, prev, init in rows:
        lines.append(_ROW_TEMPLATE % (*numbers, _FLAG_TEXT[prev], _FLAG_TEXT[init]))
    return "\n".join(lines) + "\n"


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def rows_to_json(rows: list) -> str:
    """Rows as JSON objects, nan as null; the ledger stays with `verify`."""
    payload = {
        "rows": [
            {k: _json_safe(v) for k, v in zip(_COLUMNS, row)} for row in rows
        ],
        "discrepancies": [],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"

"""The emitters against the encoders they replaced, kept here as oracles.

rows_to_csv and rows_to_json read the reports' columns and lay their text
out by hand; every byte must equal what a per-row printf and
json.dumps(indent=2) write for the rows zipped from those columns.
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisy_grover.analysis import trajectory_report
from noisy_grover.noise import chi_star
from noisy_grover.reporting import CSV_HEADER, rows_to_csv, rows_to_json
from noisy_grover.search import SearchInstance

# 7.716 is near the c = 0 strength 7.716019, where |cos 2 psi| is 1.86e-5:
# the Bloch norm drops below BLOCH_ZERO_ATOL from m = 3 on, so cos_gamma_sim
# is nan (null in JSON).  At 2^52, %.17g and repr print different text, and
# 5e-324 is the smallest subnormal.
CHIS = [0.0, 0.5, chi_star(1), 7.716, 2.0**52, 5e-324]
SIZES = [2, 4, 300, 2**40]
DEPTHS = [1, 60, 200]

COLUMNS = CSV_HEADER.split(",")
# The report attribute behind each column after chi, n, w and m.
ATTRIBUTES = (
    "p_success",
    "f_paper",
    "f_closed",
    "cos_gamma",
    "cos_gamma_closed",
    "bloch_norm",
    "entropies",
    "majorized_by_prev",
    "majorized_by_init",
)
FLAGS = ATTRIBUTES[-2:]
ROW_TEMPLATE = "%.17g,%d,%d,%d," + "%.17g," * 7 + "%s,%s"
FLAG_TEXT = {True: "true", False: "false"}


def oracle_rows(reports):
    """One tuple per iteration of each report, its values in CSV_HEADER order."""
    assert len(COLUMNS) == 4 + len(ATTRIBUTES)
    rows = []
    for report in reports:
        inst = report.instance
        columns = [getattr(report, name).tolist() for name in ATTRIBUTES]
        rows += [
            (inst.chi, inst.n, inst.w, m, *cells)
            for m, cells in enumerate(zip(*columns))
        ]
    return rows


def csv_oracle(rows):
    lines = [CSV_HEADER]
    for *numbers, prev, init in rows:
        lines.append(ROW_TEMPLATE % (*numbers, FLAG_TEXT[prev], FLAG_TEXT[init]))
    return "\n".join(lines) + "\n"


def json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_oracle(rows):
    payload = {
        "rows": [{k: json_safe(v) for k, v in zip(COLUMNS, row)} for row in rows],
        "discrepancies": [],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def assert_same_text(reports):
    rows = oracle_rows(reports)
    assert rows_to_csv(reports) == csv_oracle(rows)
    assert rows_to_json(reports) == json_oracle(rows)


def cell_report(chi, n, m):
    return trajectory_report(SearchInstance(n=n, w=n - 1, chi=chi), m)


@pytest.mark.parametrize("chi", CHIS, ids=lambda chi: f"chi={chi!r}")
def test_one_cell_matches_oracles(chi):
    for n in SIZES:
        for m in DEPTHS:
            assert_same_text([cell_report(chi, n, m)])


def test_grid_reaches_null_and_repr_cases():
    # the grid is only a check of those paths if it takes them
    nulls = rows_to_json([cell_report(7.716, 300, 60)]).count('"cos_gamma_sim": null')
    assert nulls == 58  # m = 3..60
    assert '"chi": 4503599627370496.0,' in rows_to_json([cell_report(2.0**52, 4, 1)])
    assert rows_to_csv([cell_report(2.0**52, 4, 1)]).splitlines()[1].startswith(
        "4503599627370496,4,3,0,"
    )


def test_multi_cell_rows_match_oracles():
    # sweep emits the reports of its cells, chi-major, as one text
    reports = [cell_report(chi, n, 60) for chi in CHIS for n in SIZES]
    assert len(oracle_rows(reports)) == len(CHIS) * len(SIZES) * 61
    assert_same_text(reports)


def test_empty_row_list():
    assert rows_to_csv([]) == CSV_HEADER + "\n"
    assert rows_to_json([]) == '{\n  "rows": [],\n  "discrepancies": []\n}\n'
    assert_same_text([])


any_float = st.one_of(
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)
any_size = st.integers(0, 2**70)


@st.composite
def stand_in_report(draw):
    """A report's columns and an instance that may hold any chi, n and w.

    A trajectory has at least two rows (m_max >= 1); a stand-in has one or
    more.
    """
    k = draw(st.integers(1, 5))
    floats = st.lists(any_float, min_size=k, max_size=k).map(np.array)
    flags = st.lists(st.booleans(), min_size=k, max_size=k).map(np.array)
    instance = SimpleNamespace(chi=draw(any_float), n=draw(any_size), w=draw(any_size))
    columns = {name: draw(flags if name in FLAGS else floats) for name in ATTRIBUTES}
    return SimpleNamespace(instance=instance, **columns)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(reports=st.lists(stand_in_report(), max_size=4))
def test_any_rows_match_oracles(reports):
    assert_same_text(reports)

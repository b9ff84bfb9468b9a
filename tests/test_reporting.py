"""The emitters against the encoders they replaced, kept here as oracles.

rows_to_csv and rows_to_json lay their text out by hand; every byte must
equal what a per-row printf and json.dumps(indent=2) write for the same
rows.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisy_grover.analysis import trajectory_report
from noisy_grover.noise import chi_star
from noisy_grover.reporting import (
    _COLUMNS,
    _FLAG_TEXT,
    _ROW_TEMPLATE,
    CSV_HEADER,
    report_rows,
    rows_to_csv,
    rows_to_json,
)
from noisy_grover.search import SearchInstance

# 7.716 is near the c = 0 strength 7.716019, where |cos 2 psi| is 1.86e-5:
# the Bloch norm drops below BLOCH_ZERO_ATOL from m = 3 on, so cos_gamma_sim
# is nan (null in JSON).  At 2^52, %.17g and repr print different text, and
# 5e-324 is the smallest subnormal.
CHIS = [0.0, 0.5, chi_star(1), 7.716, 2.0**52, 5e-324]
SIZES = [2, 4, 300, 2**40]
DEPTHS = [1, 60, 200]


def csv_oracle(rows):
    lines = [CSV_HEADER]
    for *numbers, prev, init in rows:
        lines.append(_ROW_TEMPLATE % (*numbers, _FLAG_TEXT[prev], _FLAG_TEXT[init]))
    return "\n".join(lines) + "\n"


def json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def json_oracle(rows):
    payload = {
        "rows": [{k: json_safe(v) for k, v in zip(_COLUMNS, row)} for row in rows],
        "discrepancies": [],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def assert_same_text(rows):
    assert rows_to_csv(rows) == csv_oracle(rows)
    assert rows_to_json(rows) == json_oracle(rows)


def cell_rows(chi, n, m):
    return report_rows(trajectory_report(SearchInstance(n=n, w=n - 1, chi=chi), m))


@pytest.mark.parametrize("chi", CHIS, ids=lambda chi: f"chi={chi!r}")
def test_one_cell_matches_oracles(chi):
    for n in SIZES:
        for m in DEPTHS:
            assert_same_text(cell_rows(chi, n, m))


def test_grid_reaches_null_and_repr_cases():
    # the grid is only a check of those paths if it takes them
    nulls = rows_to_json(cell_rows(7.716, 300, 60)).count('"cos_gamma_sim": null')
    assert nulls == 58  # m = 3..60
    assert '"chi": 4503599627370496.0,' in rows_to_json(cell_rows(2.0**52, 4, 1))
    assert rows_to_csv(cell_rows(2.0**52, 4, 1)).splitlines()[1].startswith(
        "4503599627370496,4,3,0,"
    )


def test_multi_cell_rows_match_oracles():
    # sweep joins the rows of its cells, chi-major, into one text
    rows = [row for chi in CHIS for n in SIZES for row in cell_rows(chi, n, 60)]
    assert len(rows) == len(CHIS) * len(SIZES) * 61
    assert_same_text(rows)


def test_empty_row_list():
    assert rows_to_csv([]) == CSV_HEADER + "\n"
    assert rows_to_json([]) == '{\n  "rows": [],\n  "discrepancies": []\n}\n'
    assert_same_text([])


any_float = st.floats(allow_nan=True, allow_infinity=True)
any_row = st.tuples(
    any_float,
    *[st.integers(0, 2**70)] * 3,
    *[any_float] * 7,
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=st.lists(any_row, max_size=6))
def test_any_rows_match_oracles(rows):
    assert_same_text(rows)

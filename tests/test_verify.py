import dataclasses

import numpy as np
import pytest

from noisy_grover.noise import chi_star
from noisy_grover.verify import DiscrepancyRecord, _aligned_distance, run_verification


@pytest.fixture(scope="module")
def report():
    return run_verification(seed=0)


def test_hard_invariants_pass(report):
    failed = [c.name for c in report.checks if not c.passed]
    assert not failed, f"hard checks failed: {failed}"


def test_discrepancy_ledger_contents(report):
    kinds = {d.kind for d in report.discrepancies}
    assert {"prop1_choi_gap", "prop2_phase_gap", "prop3_normalization",
            "prop3_exponent"} <= kinds

    gap_at_zero = [
        d for d in report.discrepancies
        if d.kind == "prop1_choi_gap" and d.chi == 0.0
    ]
    assert gap_at_zero and gap_at_zero[0].magnitude > 0.1

    norm_records = [
        d for d in report.discrepancies if d.kind == "prop3_normalization"
    ]
    assert norm_records and norm_records[0].magnitude > 0.4

    exponent = [d for d in report.discrepancies if d.kind == "prop3_exponent"]
    assert exponent and exponent[0].magnitude < 1e-6
    assert "exponent m" in exponent[0].detail


def test_phase_gap_records_show_branch_behavior(report):
    by_chi = {
        round(d.chi, 3): d.magnitude
        for d in report.discrepancies
        if d.kind == "prop2_phase_gap"
    }
    # small couplings: polar factors equal the closed-form rotations exactly
    assert by_chi[0.5] <= 1e-8
    assert by_chi[2.0] <= 1e-8
    # past the first sign flip of cos(mu) the branch genuinely differs
    assert by_chi[5.0] > 1e-2


def test_report_serialization_roundtrip(report):
    payload = report.to_dict()
    assert payload["all_hard_passed"] is True
    assert isinstance(payload["checks"], list)
    assert isinstance(payload["discrepancies"], list)
    record = DiscrepancyRecord(kind="prop1_choi_gap", chi=0.0, magnitude=2.0, detail="x")
    assert dataclasses.asdict(record) == {
        "kind": "prop1_choi_gap",
        "chi": 0.0,
        "magnitude": 2.0,
        "detail": "x",
    }


def test_output_order(report):
    # the order of checks and records is the order of the printed and
    # written report
    assert [c.name for c in report.checks] == [
        "completeness_grid",
        "magic_psi_zero",
        "psi_zero_scan",
        "noiseless_reference",
        "noiseless_channel_is_rotation",
        "composition_stays_mixed_unitary",
        "unitality",
        "entropy_majorization_chain",
        "bloch_contraction_constant",
    ]
    assert [(d.kind, d.chi) for d in report.discrepancies] == [
        *(("prop1_choi_gap", chi) for chi in (0.0, 0.5, 1.0, 2.0, 5.0, chi_star(1))),
        *(("prop2_phase_gap", chi) for chi in (0.5, 2.0, 5.0, 8.0, 11.0)),
        ("prop3_normalization", chi_star(1)),
        ("prop3_exponent", 2.0),
    ]
    payload = report.to_dict()
    assert list(payload) == ["checks", "discrepancies", "all_hard_passed"]
    assert all(list(c) == ["name", "passed", "worst", "detail"] for c in payload["checks"])
    assert all(
        list(d) == ["kind", "chi", "magnitude", "detail"] for d in payload["discrepancies"]
    )


def test_seeded_runs_are_reproducible():
    a = run_verification(seed=3)
    b = run_verification(seed=3)
    assert [c.worst for c in a.checks] == [c.worst for c in b.checks]
    assert [d.magnitude for d in a.discrepancies] == [
        d.magnitude for d in b.discrepancies
    ]


def test_aligned_distance_at_zero_overlap():
    # tr(a^dag b) = 0, so every global phase gives the same distance
    assert _aligned_distance(np.eye(2), [[0, 1], [-1, 0]]) == 2.0

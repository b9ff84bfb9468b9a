import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisy_grover import verify
from noisy_grover.analysis import trajectory_report
from noisy_grover.channels import (
    KrausChannel,
    channel_choi_distance,
    choi_matrix,
    choi_of_map,
    compose_channels,
)
from noisy_grover.errors import DimensionMismatch, NotNormalized
from noisy_grover.noise import chi_star, pair_rotations
from noisy_grover.search import SearchInstance
from noisy_grover.tolerances import UNITARITY_ATOL
from noisy_grover.verify import (
    CheckResult,
    DiscrepancyRecord,
    VerificationReport,
    _aligned_distance,
    build_search_channel,
    ideal_grover_probability,
    reflection,
    run_verification,
)

from conftest import random_channel, random_density
from oracles import (
    check_density_matrix,
    choi_rank,
    identity_channel,
    iterate,
    plane_basis,
    plane_channel,
    search_operators_per_operator,
    success_probability,
    target_state,
    uniform_state,
)

IDEAL_100_7 = 0.9953444003575990  # sin^2(15 asin(0.1)), 30-digit evaluation


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
    # a non-finite float is None, so the written JSON holds null
    odd = VerificationReport(
        checks=[CheckResult("x", False, math.nan, "d")],
        discrepancies=[DiscrepancyRecord("y", math.inf, -math.inf, "e")],
    )
    assert odd.to_dict() == {
        "checks": [{"name": "x", "passed": False, "worst": None, "detail": "d"}],
        "discrepancies": [{"kind": "y", "chi": None, "magnitude": None, "detail": "e"}],
        "all_hard_passed": False,
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


def _reset_channel(inst):
    """rho -> tr(rho) |0><0|, with K_i = |0><i|: complete, but not unital."""
    ops = np.zeros((inst.n, inst.n, inst.n), dtype=complex)
    ops[np.arange(inst.n), 0, np.arange(inst.n)] = 1.0
    return KrausChannel(ops)


@pytest.mark.parametrize(
    "check, worst",
    [
        (verify._noiseless_reference, 1.00),
        (verify._unitality, 0.968),  # sqrt(15/16): |0><0| against 1/16
        (lambda: verify._composition_stays_mixed_unitary(0), 3.46),
    ],
    ids=["noiseless_reference", "unitality", "composition_stays_mixed_unitary"],
)
def test_dense_checks_fail_on_a_wrong_channel(check, worst, monkeypatch):
    # each check that reads the dense channel can fail, not only report
    monkeypatch.setattr(verify, "build_search_channel", _reset_channel)
    result = check()
    assert not result.passed
    assert result.worst == pytest.approx(worst, abs=5e-3)


class TestStatesAndReflections:
    def test_uniform_state_entries(self):
        for n in (2, 4):
            inst = SearchInstance(n=n, w=0, chi=0.0)
            assert_allclose(uniform_state(inst), np.full((n, n), 1.0 / n))

    def test_uniform_state_is_rank_one(self):
        rho = uniform_state(SearchInstance(n=1024, w=0, chi=0.0))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        vals = np.linalg.eigvalsh(rho)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.abs(vals[:-1]) <= 1e-10)

    def test_reflection_about_basis_vector(self):
        assert_allclose(reflection([1.0, 0.0]), np.diag([-1.0, 1.0]))

    def test_reflection_negates_axis(self, rng):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        assert_allclose(reflection(v) @ v, -v, atol=1e-12)

    def test_reflection_is_involution(self, rng):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        r = reflection(v)
        assert np.linalg.norm(r @ r - np.eye(8)) <= 1e-10
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12

    def test_reflection_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            reflection([1.0, 1.0])

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.nan, np.nan]])
    def test_reflection_rejects_nan(self, v):
        with pytest.raises(NotNormalized):
            reflection(v)


class TestEmbedding:
    def test_lift_preserves_plane_and_complement(self):
        # build_search_channel lifts each rotation onto the plane, so every
        # dense operator maps the plane into itself and is the identity on
        # its complement
        for n, w, chi in (
            (2, 1, 0.4), (5, 2, 0.0), (7, 3, 0.8), (16, 0, chi_star(1)), (9, 8, 11.0)
        ):
            inst = SearchInstance(n=n, w=w, chi=chi)
            p = plane_basis(inst)
            complement = np.eye(n) - p @ p.T
            for op in build_search_channel(inst).operators:
                assert np.max(np.abs(complement @ op @ p)) <= 1e-12
                assert np.max(np.abs(op @ complement - complement)) <= 1e-12


class TestBuildChannel:
    def test_noiseless_kraus_is_double_reflection(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        t = build_search_channel(inst)
        s = np.full(4, 0.5)
        expected = reflection(s) @ reflection([1.0, 0.0, 0.0, 0.0])
        for op in t.operators:
            assert_allclose(op, expected, atol=1e-12)

    def test_magic_strength_gives_one_unitary(self):
        for order in (1, 2):
            inst = SearchInstance(n=8, w=0, chi=chi_star(order))
            t = build_search_channel(inst)
            assert_allclose(t.operators[0], t.operators[1], atol=1e-10)
            assert choi_rank(t) == 1

    def test_generic_strength_gives_rank_two(self):
        inst = SearchInstance(n=4, w=0, chi=1.0)
        t = build_search_channel(inst)
        assert choi_rank(t) == 2
        assert np.max(t.unitarity_defects()) <= UNITARITY_ATOL
        assert t.completeness_defect() <= 1e-10

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_stacked_lift_matches_per_operator_lift_bit_for_bit(self, n):
        for w, chi in ((0, 0.0), (n - 1, 0.7), (n // 2, chi_star(1)), (1, 11.0)):
            inst = SearchInstance(n=n, w=w, chi=chi)
            t = build_search_channel(inst)
            per_operator = search_operators_per_operator(inst, pair_rotations(inst.chi))
            assert t.operators.tobytes() == per_operator.tobytes()
            assert t.weights.tolist() == [0.5, 0.5]

    def test_plane_channel_is_dense_channel_on_plane(self):
        for n, w, chi in ((2, 1, 0.4), (5, 3, 1.0), (16, 0, chi_star(1)), (9, 8, 11.0)):
            inst = SearchInstance(n=n, w=w, chi=chi)
            p = plane_basis(inst)
            dense = build_search_channel(inst)
            plane = plane_channel(inst)
            assert plane.dim == 2
            assert np.max(plane.unitarity_defects()) <= UNITARITY_ATOL
            assert_allclose(plane.weights, dense.weights)
            for k2, kn in zip(plane.operators, dense.operators):
                assert_allclose(k2, p.conj().T @ kn @ p, atol=1e-13)


class TestApplyIterate:
    def test_identity_channel_is_neutral(self, rng):
        rho = random_density(rng, 4)
        assert_allclose(identity_channel(4)(rho), rho)

    def test_unitality(self):
        for chi in (0.0, 1.0, chi_star(1)):
            inst = SearchInstance(n=16, w=0, chi=chi)
            t = build_search_channel(inst)
            mixed = np.eye(16, dtype=complex) / 16
            assert np.linalg.norm(t(mixed) - mixed) <= 1e-12

    def test_trace_preserved_on_random_states(self, rng):
        t = build_search_channel(SearchInstance(n=6, w=1, chi=0.9))
        for _ in range(100):
            rho = random_density(rng, 6)
            out = t(rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-12

    def test_iterate_base_cases(self):
        inst = SearchInstance(n=4, w=0, chi=0.7)
        t = build_search_channel(inst)
        rho = uniform_state(inst)
        traj = iterate(t, rho, 0)
        assert traj.shape == (1, 4, 4)
        assert_allclose(traj[0], rho)
        traj = iterate(t, rho, 2)
        assert_allclose(traj[2], t(t(rho)), atol=1e-13)

    def test_iterate_rejects_wrong_dimension(self):
        t = build_search_channel(SearchInstance(n=4, w=0, chi=0.0))
        with pytest.raises(DimensionMismatch):
            iterate(t, uniform_state(SearchInstance(n=3, w=0, chi=0.0)), 2)

    def test_iterate_equals_repeated_apply_exactly(self, rng):
        # every step must carry the same bits as one more channel application
        plane = plane_channel(SearchInstance(n=2**40, w=3, chi=2.2))
        for channel, rho in (
            (random_channel(rng, 3, 3), random_density(rng, 3)),
            (plane, random_density(rng, 2)),
        ):
            traj = iterate(channel, rho, 12)
            assert isinstance(traj, np.ndarray) and traj.shape == (13, *rho.shape)
            state = rho.astype(complex)
            for k in range(13):
                assert traj[k].tobytes() == state.tobytes()
                state = channel(state)

    def test_iterate_identity_channel_fixes_state(self, rng):
        rho = random_density(rng, 3)
        traj = iterate(identity_channel(3), rho, 5)
        assert traj.shape == (6, 3, 3)
        for state in traj:
            assert_allclose(state, rho, atol=1e-14)

    def test_trajectory_stays_in_plane(self):
        inst = SearchInstance(n=8, w=2, chi=1.3)
        t = build_search_channel(inst)
        p = plane_basis(inst)
        complement = np.eye(8) - p @ p.conj().T
        for state in iterate(t, uniform_state(inst), 25):
            assert np.max(np.abs(complement @ state @ p)) <= 1e-10

    def test_trajectory_states_are_valid(self):
        for n, chi in ((16, 0.0), (16, 2.0), (64, 1.0), (64, chi_star(1))):
            inst = SearchInstance(n=n, w=0, chi=chi)
            t = build_search_channel(inst)
            for state in iterate(t, uniform_state(inst), 50):
                check_density_matrix(state)


class TestComposition:
    def test_squared_channel_matches_two_applications(self):
        for chi, n in ((0.6, 4), (2.0, 6)):
            t = build_search_channel(SearchInstance(n=n, w=0, chi=chi))
            squared = compose_channels(t, t)
            assert len(squared.operators) == 4
            assert_allclose(squared.weights, [0.25] * 4)
            assert np.max(squared.unitarity_defects()) <= 1e-10
            sequential = choi_of_map(lambda r: t(t(r)), n)
            assert np.linalg.norm(choi_matrix(squared) - sequential) <= 1e-10

    def test_identity_composition(self):
        t = build_search_channel(SearchInstance(n=4, w=0, chi=1.0))
        assert channel_choi_distance(compose_channels(identity_channel(4), t), t) <= 1e-12


class TestProbabilities:
    def test_success_probability_basics(self):
        assert success_probability(target_state(4, 2), 2) == pytest.approx(1.0)
        assert success_probability(np.eye(5, dtype=complex) / 5, 0) == pytest.approx(0.2)
        assert success_probability(uniform_state(SearchInstance(n=4, w=0, chi=0.0)), 3) == pytest.approx(0.25)

    def test_ideal_reference_values(self):
        inst4, inst100 = (SearchInstance(n=n, w=0, chi=0.0) for n in (4, 100))
        assert ideal_grover_probability(inst4, 1) == pytest.approx(1.0, abs=1e-12)
        assert ideal_grover_probability(inst4, 0) == pytest.approx(0.25, abs=1e-14)
        assert ideal_grover_probability(inst100, 7) == pytest.approx(IDEAL_100_7, abs=1e-14)
        with pytest.raises(ValueError):
            ideal_grover_probability(inst4, -1)

    # a nan n is refused by SearchInstance, a nan m by the step-count check
    @pytest.mark.parametrize("n, m", [(4, math.nan), (math.nan, 3)])
    def test_ideal_reference_rejects_nan(self, n, m):
        with pytest.raises(ValueError, match="got nan"):
            ideal_grover_probability(SearchInstance(n=n, w=0, chi=0.0), m)

    # n past int64 reaches numpy as a float: no object-array TypeError
    @pytest.mark.parametrize("n", [2**64, 10**300], ids=["2^64", "1e300"])
    @pytest.mark.parametrize("m", [0, 1, 7, 1000])
    def test_ideal_reference_at_huge_n(self, n, m):
        p = ideal_grover_probability(SearchInstance(n=n, w=0, chi=0.0), m)
        assert math.isfinite(p)
        assert p == pytest.approx((2 * m + 1) ** 2 / n, rel=1e-12)

    # the float conversion keeps every bit where numpy took the int as is
    @pytest.mark.parametrize(
        "n", [2, 3, 100, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1, 12345678901234567891]
    )
    @pytest.mark.parametrize("m", [0, 1, 7, 1000])
    def test_ideal_reference_bits_below_2_64(self, n, m):
        before = float(np.sin((2 * m + 1) * np.arcsin(1.0 / np.sqrt(n))) ** 2)
        got = ideal_grover_probability(SearchInstance(n=n, w=0, chi=0.0), m)
        assert got.hex() == before.hex()

    # the figures of the modelling assumption, as search's docstring and the
    # README quote them: at chi_1 and m = 8, p_success beats the best any
    # 8-query algorithm reaches, the noiseless reference
    @pytest.mark.parametrize(
        "n, p_quoted, ideal_quoted", [(2**20, 0.9982, 2.8e-4), (2**40, 0.9994, 2.6e-10)],
        ids=["2^20", "2^40"],
    )
    def test_modelling_assumption_figures(self, n, p_quoted, ideal_quoted):
        inst = SearchInstance(n=n, w=0, chi=chi_star(1))
        p = trajectory_report(inst, 8).p_success
        assert round(float(p[8]), 4) == p_quoted
        assert float(f"{ideal_grover_probability(inst, 8):.1e}") == ideal_quoted
        assert np.flatnonzero(p >= 0.99).tolist() == [8]  # the first m with p >= 0.99

    def test_noiseless_simulator_matches_reference(self):
        # the plane report `search` emits; a4 checks the dense channel
        for n in (4, 16, 64):
            inst = SearchInstance(n=n, w=0, chi=0.0)
            report = trajectory_report(inst, 30)
            for m in range(31):
                assert report.p_success[m] == pytest.approx(
                    ideal_grover_probability(inst, m), abs=1e-9
                )

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisy_grover.analysis import (
    FidelityPoint,
    closed_form_fidelities,
    trajectory_report,
)
from noisy_grover.errors import DimensionMismatch
from noisy_grover.noise import chi_star, scalar_profile
from noisy_grover.search import SearchInstance, bloch_map, uniform_plane_vector
from noisy_grover.tolerances import BLOCH_ZERO_ATOL, CHI_MAX, MAJORIZATION_ATOL
from noisy_grover.verify import build_search_channel, ideal_grover_probability

from oracles import (
    LengthMismatch,
    OffPlaneSupport,
    ZeroBlochVector,
    _bloch_of_block,
    angular_fidelity,
    bloch_from_density,
    closed_form_bloch,
    eigvals_hermitian,
    entropy,
    entropy_from_spectrum,
    high_precision_bloch_norms,
    iterate,
    plane_basis,
    plane_channel,
    report_columns_oracle,
    target_state,
    uniform_state,
)

ENTROPY_09_01 = 0.3250829733914482  # -0.9 ln 0.9 - 0.1 ln 0.1
CONTRACTION_AT_2 = 0.7332746302984231  # |cos(2 psi(2))|


def plane_state(inst, block):
    p = plane_basis(inst)
    return p @ block.astype(complex) @ p.conj().T


def majorization_check(after, before):
    """True iff `after` is majorized by `before` (more mixed than it).

    The general k-entry test, the oracle for the report's two-entry flags.
    Both spectra are sorted descending; every partial sum of `after`
    must stay below the matching partial sum of `before` within
    MAJORIZATION_ATOL, with equal totals.  Spectra run along the last axis
    and the leading axes broadcast: (..., k) inputs give a (...) boolean
    array, two single spectra give a bool.
    """
    a = np.sort(np.asarray(after, dtype=float), axis=-1)[..., ::-1]
    b = np.sort(np.asarray(before, dtype=float), axis=-1)[..., ::-1]
    if a.shape[-1] != b.shape[-1]:
        raise LengthMismatch(
            f"spectra lengths differ: {a.shape[-1]} != {b.shape[-1]}"
        )
    if np.any(np.abs(a.sum(axis=-1) - 1.0) > 1e-8) or np.any(
        np.abs(b.sum(axis=-1) - 1.0) > 1e-8
    ):
        raise ValueError("spectra must each sum to 1 within 1e-8")
    partial_gap = np.cumsum(a, axis=-1) - np.cumsum(b, axis=-1)
    result = np.all(partial_gap <= MAJORIZATION_ATOL, axis=-1)
    return bool(result) if result.ndim == 0 else result


def assert_flags_match_oracle(rep):
    """Both two-entry chains equal the general test on the report's spectra."""
    spectra = rep.spectra
    by_prev = majorization_check(spectra[1:], spectra[:-1])
    by_init = majorization_check(spectra[1:], spectra[0])
    assert rep.majorized_by_prev.tolist() == [True, *by_prev.tolist()]
    assert rep.majorized_by_init.tolist() == [True, *by_init.tolist()]


class TestBloch:
    def test_target_sits_at_north_pole(self):
        inst = SearchInstance(n=4, w=1, chi=0.0)
        b = bloch_from_density(target_state(4, 1), inst)
        assert (b.x, b.z) == pytest.approx((0.0, 1.0), abs=1e-14)

    def test_plane_mixed_state_at_center(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        rho = plane_state(inst, np.eye(2) / 2)
        b = bloch_from_density(rho, inst)
        assert (b.x, b.z) == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_uniform_state_coordinates(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        b = bloch_from_density(uniform_state(inst), inst)
        assert b.z == pytest.approx(-0.5, abs=1e-14)
        assert b.x == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)
        assert b.norm == pytest.approx(1.0, abs=1e-14)

    def test_off_plane_support_rejected(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        basis_state = target_state(4, 2)  # outside span{|w>, |r>}
        with pytest.raises(OffPlaneSupport):
            bloch_from_density(basis_state, inst)

    def test_wrong_dimension_rejected(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        with pytest.raises(DimensionMismatch):
            bloch_from_density(uniform_state(SearchInstance(n=3, w=0, chi=0.0)), inst)


class TestFidelities:
    def test_angular_at_target(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        assert angular_fidelity(target_state(4, 0), inst) == pytest.approx(1.0)

    def test_angular_orthogonal_direction(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        block = np.array([[0.5, 0.5], [0.5, 0.5]])  # bloch (1, 0)
        assert angular_fidelity(plane_state(inst, block), inst) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_angular_at_uniform(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        assert angular_fidelity(uniform_state(inst), inst) == pytest.approx(-0.5)

    def test_angular_undefined_at_center(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        with pytest.raises(ZeroBlochVector):
            angular_fidelity(plane_state(inst, np.eye(2) / 2), inst)


class TestClosedForms:
    def test_phase_bookkeeping_at_zero(self):
        # n = 4: alpha = pi/3 and theta = 4 pi/3, so phi/2 = pi/3 at m = 0
        # and -pi at m = 1
        f, cos_gamma = closed_form_fidelities(SearchInstance(n=4, w=0, chi=0.0), 1)
        assert f.tolist() == pytest.approx([0.125, 0.5], abs=1e-14)
        assert cos_gamma.tolist() == pytest.approx([0.25, 1.0], abs=1e-14)

    def test_half_normalization_ceiling(self):
        # the half-normalized radial fidelity cannot exceed 1/2 anywhere
        for chi in (0.0, 1.0, chi_star(1)):
            inst = SearchInstance(n=16, w=0, chi=chi)
            worst = np.max(closed_form_fidelities(inst, 39)[0])
            assert worst <= 0.5 + 1e-12

    def test_noiseless_closed_form_tracks_simulator(self):
        # with psi = chi = 0 the sign ambiguities vanish and the closed
        # form must reproduce the simulated overlap exactly
        n = 16
        inst = SearchInstance(n=n, w=0, chi=0.0)
        states = iterate(build_search_channel(inst), uniform_state(inst), 20)
        f, cg = closed_form_fidelities(inst, 20)
        for m in range(21):
            p_sim = states[m][0, 0].real
            assert f[m] == pytest.approx(0.5 * p_sim, abs=1e-9)
            assert cg[m] == pytest.approx(p_sim, abs=1e-9)

    def test_trajectory_evaluates_profile_once(self, monkeypatch):
        import noisy_grover.analysis as analysis_mod

        calls = []

        def counting(chi):
            calls.append(chi)
            return scalar_profile(chi)

        monkeypatch.setattr(analysis_mod, "scalar_profile", counting)
        for m_max in (1, 40):
            calls.clear()
            inst = SearchInstance(n=16, w=0, chi=1.0)
            rep = trajectory_report(inst, m_max)
            assert calls == [1.0]
            f, cos_gamma = closed_form_fidelities(inst, m_max)
            assert rep.f_closed.tobytes() == f.tobytes()
            assert rep.cos_gamma_closed.tobytes() == cos_gamma.tobytes()

    def test_trajectory_calls_closed_forms_once(self, monkeypatch):
        import noisy_grover.analysis as analysis_mod

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return closed_form_fidelities(*args, **kwargs)

        monkeypatch.setattr(analysis_mod, "closed_form_fidelities", counting)
        rep = trajectory_report(SearchInstance(n=16, w=0, chi=1.0), 40)
        assert len(calls) == 1
        assert calls[0][1] == 40
        assert rep.f_closed.shape == rep.cos_gamma_closed.shape == (41,)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 2**40),
        chi=st.one_of(st.floats(0.0, 13.0), st.just(chi_star(1))),
        m_max=st.integers(0, 200),
    )
    def test_columns_equal_scalar_calls(self, n, chi, m_max):
        # every entry of the columns must carry the bits of the formulas
        # evaluated one m at a time in Python floats (libm)
        f, cos_gamma = closed_form_fidelities(SearchInstance(n=n, w=0, chi=chi), m_max)
        alpha = math.acos(1.0 / math.sqrt(n))
        theta = math.pi + chi + math.asin(2.0 * math.sqrt(n - 1.0) / n)
        psi = scalar_profile(chi).psi
        halves = [m * psi - m * theta + alpha for m in range(m_max + 1)]
        for column, values in (
            (f, [0.25 * (1.0 + math.cos(2.0 * psi) ** m * math.cos(2.0 * h))
                 for m, h in enumerate(halves)]),
            (cos_gamma, [math.cos(h) ** 2 for h in halves]),
        ):
            assert column.shape == (m_max + 1,)
            assert column.tobytes() == np.array(values).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        chi=st.one_of(st.floats(0.0, 13.0), st.just(chi_star(1))),
        n=st.integers(2, 2**40),
        m_max=st.integers(1, 2000),
    )
    # deep runs at chi_1, the first odd-j unitary strength, and no noise
    @example(chi=chi_star(1), n=2**40, m_max=10**5)
    @example(chi=2.7207, n=2**20, m_max=10**5)
    @example(chi=0.0, n=2**40, m_max=10**5)
    def test_report_follows_closed_form_bloch(self, chi, n, m_max):
        # the iterated Bloch vector drifts from c^m R(m phi) (x_0, z_0)
        # about linearly in m: at most 3.5e-15 per step over 300 random
        # instances, and 1.2e-10 at m = 10^5 (chi_1, n = 2^40); the bound
        # allows 2e-14 per step
        inst = SearchInstance(n=n, w=0, chi=chi)
        rep = trajectory_report(inst, m_max)
        x, z = closed_form_bloch(inst, m_max)
        c = abs(math.cos(2.0 * scalar_profile(chi).psi))
        atol = 2e-14 * np.arange(1, m_max + 2)
        for column, expected in (
            (rep.bloch_x, x),
            (rep.bloch_z, z),
            (rep.p_success, [0.5 * (1.0 + zm) for zm in z]),
            (rep.bloch_norm, [c**m for m in range(m_max + 1)]),
        ):
            assert np.all(np.abs(column - np.array(expected)) <= atol)

    def test_negative_m_is_rejected(self):
        with pytest.raises(ValueError):
            closed_form_fidelities(SearchInstance(n=16, w=0, chi=1.0), -1)
        with pytest.raises(ValueError):  # a trajectory needs at least one step
            trajectory_report(SearchInstance(n=16, w=0, chi=1.0), 0)


class TestContraction:
    def test_factor_anchors(self):
        # |cos(2 psi)|, the predicted per-iteration shrink of the Bloch norm
        def factor(chi):
            return abs(math.cos(2.0 * scalar_profile(chi).psi))

        assert factor(0.0) == pytest.approx(1.0)
        assert factor(chi_star(1)) == pytest.approx(1.0, abs=1e-12)
        assert factor(2.0) == pytest.approx(CONTRACTION_AT_2, abs=1e-14)

    def test_simulated_ratio_is_the_authority(self):
        # trajectory ratios confirm the closed-form factor step by step
        inst = SearchInstance(n=16, w=0, chi=2.0)
        rep = trajectory_report(inst, 30)
        norms = rep.bloch_norm
        ratios = norms[1:] / norms[:-1]
        assert np.max(np.abs(ratios - CONTRACTION_AT_2)) <= 1e-8

    def test_high_precision_path_matches_float64_early_steps(self):
        for n in (16, 2**40):
            inst = SearchInstance(n=n, w=0, chi=1.0)
            hp = high_precision_bloch_norms(inst, 8)
            rep = trajectory_report(inst, 8)
            norms = rep.bloch_norm
            assert_allclose(hp, norms, rtol=1e-8)


class TestEntropy:
    def test_pure_state(self):
        assert entropy(target_state(4, 0)) == 0.0

    def test_maximally_mixed_qubit(self):
        assert entropy(np.eye(2, dtype=complex) / 2) == pytest.approx(
            math.log(2.0), abs=1e-14
        )

    def test_frozen_two_level_value(self):
        assert entropy(np.diag([0.9, 0.1]).astype(complex)) == pytest.approx(
            ENTROPY_09_01, abs=1e-14
        )

    def test_pure_state_entropy_is_positive_zero(self):
        # -0.0 would print as "-0" in every output's m = 0 row
        assert math.copysign(1.0, entropy_from_spectrum([1.0, 0.0])) == 1.0
        stacked = entropy_from_spectrum(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.all(np.copysign(1.0, stacked) == 1.0)
        report = trajectory_report(SearchInstance(n=16, w=0, chi=1.0), 3)
        assert math.copysign(1.0, report.entropies[0]) == 1.0

    def test_floor_swallows_negative_dust(self):
        vals = np.array([1.0 + 1e-16, -1e-16, 5e-15])
        assert entropy_from_spectrum(vals) == 0.0

    def test_stack_equals_each_spectrum(self):
        spectra = np.array(
            [[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [1.0 - 1e-15, 1e-15], [0.7, 0.3]]
        ).reshape(5, 1, 2)
        stacked = entropy_from_spectrum(spectra)
        assert stacked.shape == (5, 1)
        for row, value in zip(spectra[:, 0], stacked[:, 0]):
            single = entropy_from_spectrum(row)
            assert isinstance(single, float)
            assert np.float64(single).tobytes() == value.tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        chi=st.one_of(st.floats(0.0, 13.0), st.just(chi_star(1))),
        n=st.integers(2, 2**40),
        m_max=st.integers(1, 2000),
    )
    def test_report_entropy_is_the_general_form(self, chi, n, m_max):
        # the report's two-entry entropy carries the general formula's bits
        rep = trajectory_report(SearchInstance(n=n, w=0, chi=chi), m_max)
        assert rep.entropies.tobytes() == entropy_from_spectrum(rep.spectra).tobytes()


class TestMajorization:
    def test_two_level_orderings(self):
        assert majorization_check([0.7, 0.3], [0.9, 0.1])
        assert not majorization_check([0.9, 0.1], [0.7, 0.3])
        assert majorization_check([0.5, 0.5], [1.0, 0.0])
        assert majorization_check([0.5, 0.5], [0.5, 0.5])

    def test_input_order_does_not_matter(self):
        assert majorization_check([0.3, 0.7], [0.1, 0.9])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorization_check([0.5, 0.5], [1.0, 0.0, 0.0])

    def test_sum_precondition(self):
        with pytest.raises(ValueError):
            majorization_check([0.5, 0.4], [0.9, 0.1])

    def test_single_spectra_give_a_bool(self):
        assert type(majorization_check([0.7, 0.3], [0.9, 0.1])) is bool

    def test_stack_equals_each_pair(self):
        after = np.array([[0.7, 0.3], [0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])
        before = np.array([[0.9, 0.1], [0.7, 0.3], [1.0, 0.0], [0.1, 0.9]])
        stacked = majorization_check(after, before)
        assert stacked.dtype == bool and stacked.shape == (4,)
        assert stacked.tolist() == [
            majorization_check(a, b) for a, b in zip(after, before)
        ]
        # leading axes broadcast: a whole chain against one initial spectrum
        against_first = majorization_check(after, before[0])
        assert against_first.tolist() == [
            majorization_check(a, before[0]) for a in after
        ]

    def test_stack_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorization_check(np.full((3, 2), 0.5), np.full((3, 3), 1 / 3))

    def test_stack_sum_precondition_on_one_row(self):
        after = np.array([[0.7, 0.3], [0.5, 0.4], [0.6, 0.4]])
        with pytest.raises(ValueError):
            majorization_check(after, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            majorization_check(np.array([0.5, 0.5]), after)


class TestTwoEntryMajorization:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        chi=st.floats(0.0, 13.0),
        n=st.integers(2, 2**40),
        m_max=st.integers(1, 300),
    )
    def test_flags_equal_the_general_test(self, chi, n, m_max):
        rep = trajectory_report(SearchInstance(n=n, w=0, chi=chi), m_max)
        assert_flags_match_oracle(rep)

    @pytest.mark.parametrize("n", [2, 4, 16, 300, 2**40])
    @pytest.mark.parametrize("chi", [0.0, chi_star(1)], ids=["chi=0", "chi_1"])
    def test_flat_rows_with_ties(self, chi, n):
        # the Bloch norm stays at 1, so top = (1 + r)/2 steps by 0 or a few
        # ulp; the flags must still break these ties as the general test does
        rep = trajectory_report(SearchInstance(n=n, w=0, chi=chi), 300)
        steps = np.diff(rep.spectra[:, 0])
        assert np.any(steps == 0.0)
        assert np.max(np.abs(steps)) <= 4 * np.spacing(1.0)
        assert_flags_match_oracle(rep)

    def test_failing_flags_on_a_non_contracting_map(self, monkeypatch):
        # bloch_map is cos(2 psi) times a rotation, so the norm never grows
        # and every flag of a real trajectory is True; a non-normal map makes
        # the norm swing up and down, and both chains must fail exactly
        # where the oracle does
        c, s = math.cos(0.7), math.sin(0.7)
        stretch = np.diag([1.0, 4.0])
        swing = 0.97 * stretch @ np.array([[c, s], [-s, c]]) @ np.linalg.inv(stretch)
        monkeypatch.setattr("noisy_grover.analysis.bloch_map", lambda inst: swing)
        rep = trajectory_report(SearchInstance(n=16, w=0, chi=1.0), 30)
        for flags in (rep.majorized_by_prev, rep.majorized_by_init):
            assert 0 < np.count_nonzero(flags) < len(flags)
        assert_flags_match_oracle(rep)


class TestReportBits:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        chi=st.floats(0.0, 1e6),
        n=st.sampled_from([2, 3, 2**20, 2**40, 2**53, 10**300]),
        m_max=st.integers(1, 80),
    )
    @example(chi=chi_star(1), n=2**40, m_max=40)
    @example(chi=chi_star(2), n=3, m_max=40)
    @example(chi=2.7207, n=2**20, m_max=40)
    @example(chi=1.269127, n=2, m_max=40)
    @example(chi=7.716019, n=10**300, m_max=40)
    @example(chi=CHI_MAX, n=2**53, m_max=40)
    def test_every_column_equals_the_oracle_bit_for_bit(self, chi, n, m_max):
        # the report's few array passes and one-loop closed forms must give
        # the bits of each column's own numpy expression
        inst = SearchInstance(n=n, w=0, chi=chi)
        rep = trajectory_report(inst, m_max)
        for name, expected in report_columns_oracle(inst, m_max).items():
            column = getattr(rep, name)
            assert (column.shape, column.dtype) == (expected.shape, expected.dtype), name
            assert column.tobytes() == expected.tobytes(), name


class TestTrajectoryReport:
    def test_noiseless_run_stays_pure(self):
        rep = trajectory_report(SearchInstance(n=4, w=0, chi=0.0), 20)
        assert np.max(np.abs(rep.entropies)) <= 1e-10
        assert np.max(np.abs(rep.bloch_norm - 1.0)) <= 1e-10

    def test_noisy_run_orders_spectra(self):
        rep = trajectory_report(SearchInstance(n=4, w=0, chi=1.0), 40)
        ent = np.array(rep.entropies)
        assert np.all(ent[1:] >= ent[:-1] - 1e-12)
        assert all(rep.majorized_by_prev)
        assert all(rep.majorized_by_init)

    def test_magic_run_keeps_unit_bloch_norm(self):
        rep = trajectory_report(SearchInstance(n=16, w=0, chi=chi_star(1)), 50)
        norms = rep.bloch_norm
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    @pytest.mark.parametrize(
        "n,chi,horizon",
        [(4, 0.0, 30), (16, 0.0, 30), (256, chi_star(1), 64)],
    )
    def test_peak_alignment_on_coherent_runs(self, n, chi, horizon):
        # how close the rotation orbit gets to the target axis within the
        # window depends on n; these cases come within cos(angle) >= 0.999
        inst = SearchInstance(n=n, w=0, chi=chi)
        states = iterate(build_search_channel(inst), uniform_state(inst), horizon)
        probs = [s[0, 0].real for s in states]
        best = int(np.argmax(probs))
        assert angular_fidelity(states[best], inst) >= 1.0 - 1e-3

    def test_sequence_lengths_match(self):
        rep = trajectory_report(SearchInstance(n=4, w=0, chi=0.5), 7)
        assert len(rep.points) == 8
        for column in (rep.p_success, rep.f_paper, rep.bloch_x, rep.bloch_z,
                       rep.bloch_norm, rep.cos_gamma):
            assert column.shape == (8,)
        assert len(rep.entropies) == 8
        assert len(rep.spectra) == 8
        assert len(rep.majorized_by_prev) == 8
        assert len(rep.majorized_by_init) == 8
        assert len(rep.f_closed) == 8
        assert len(rep.cos_gamma_closed) == 8

    def test_points_view_matches_columns(self):
        rep = trajectory_report(SearchInstance(n=16, w=5, chi=3.0), 30)
        for m, point in enumerate(rep.points):
            assert point == FidelityPoint(
                m=m,
                f_paper=rep.f_paper[m],
                p_success=rep.p_success[m],
                cos_gamma=rep.cos_gamma[m],
                bloch_norm=rep.bloch_norm[m],
            )
            assert type(point.p_success) is float

    def test_large_n_noiseless_run_matches_reference(self):
        # the plane path costs the same at any n; the noiseless run must
        # still match the closed-form reference exactly
        for n in (300, 2**40):
            inst = SearchInstance(n=n, w=n - 1, chi=0.0)
            rep = trajectory_report(inst, 10)
            for m, p_success in enumerate(rep.p_success):
                assert p_success == pytest.approx(
                    ideal_grover_probability(inst, m), abs=1e-9
                )
            for spectrum in rep.spectra:
                assert len(spectrum) == 2
                assert spectrum[0] >= spectrum[1]
                assert float(np.sum(spectrum)) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        case=st.integers(2, 2**40).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n - 1))
        ),
        chi=st.floats(0.0, 13.0),
        m_max=st.integers(1, 60),
    )
    def test_stacked_report_equals_per_block_helpers(self, case, chi, m_max):
        # the report iterates the Bloch vector; the 2x2 density iteration,
        # measured block by block with the single-block helpers, must agree
        n, w = case
        inst = SearchInstance(n=n, w=w, chi=chi)
        (a, b), (c, d) = bloch_map(inst)
        assert abs(a - d) <= 1e-15 and abs(b + c) <= 1e-15
        # det, not its square root, which is ill-conditioned as cos(2 psi) -> 0
        contraction = math.cos(2.0 * scalar_profile(chi).psi)
        assert abs(a * d - b * c - contraction**2) <= 2e-15
        rep = trajectory_report(inst, m_max)
        s = uniform_plane_vector(inst)
        blocks = iterate(plane_channel(inst), np.outer(s, s), m_max)
        spectra = [eigvals_hermitian(block) for block in blocks]
        blochs = [_bloch_of_block(block) for block in blocks]
        norms = np.array([b.norm for b in blochs])
        cos_gamma = [
            b.z / b.norm if b.norm > BLOCH_ZERO_ATOL else math.nan for b in blochs
        ]
        expected = {
            "p_success": [float(block[0, 0].real) for block in blocks],
            "f_paper": [0.5 * float(block[0, 0].real) for block in blocks],
            "bloch_x": [b.x for b in blochs],
            "bloch_z": [b.z for b in blochs],
            "bloch_norm": norms,
            "entropies": [entropy_from_spectrum(v) for v in spectra],
            "spectra": spectra,
        }
        for name, values in expected.items():
            column = getattr(rep, name)
            assert column.shape == np.shape(values), name
            assert np.max(np.abs(column - values)) <= 1e-12, name
        # the density route's ~1e-15 absolute error in the Bloch vector
        # becomes an error of that over the norm in its direction
        assert np.isnan(rep.cos_gamma).tolist() == np.isnan(cos_gamma).tolist()
        defined = ~np.isnan(rep.cos_gamma)
        gap = np.abs(rep.cos_gamma - cos_gamma)[defined]
        assert np.all(gap <= 1e-12 / norms[defined])
        assert rep.majorized_by_prev.tolist() == [True] + [
            majorization_check(a, b) for a, b in zip(spectra[1:], spectra)
        ]
        assert rep.majorized_by_init.tolist() == [True] + [
            majorization_check(a, spectra[0]) for a in spectra[1:]
        ]

    @pytest.mark.parametrize("n", [2, 16, 300, 2**40])
    @pytest.mark.parametrize("chi", [0.5, 2.0, chi_star(1), 10.4])
    def test_deep_m_bloch_norm_keeps_relative_accuracy(self, n, chi):
        # the float64 density iteration plateaus near 1e-15; the Bloch
        # iteration must follow the 60-digit reference far below that
        inst = SearchInstance(n=n, w=0, chi=chi)
        reference = high_precision_bloch_norms(inst, 200, dps=60)
        norms = trajectory_report(inst, 200).bloch_norm
        resolved = reference > 1e-40
        assert_allclose(norms[resolved], reference[resolved], rtol=1e-11, atol=0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        case=st.integers(2, 24).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n - 1))
        ),
        chi=st.floats(0.0, 13.0),
        m_max=st.integers(1, 30),
    )
    def test_plane_reduction_matches_full_simulation(self, case, chi, m_max):
        # the dense n x n channel is the oracle; bloch_from_density refuses
        # any dense state with weight off the search plane
        n, w = case
        inst = SearchInstance(n=n, w=w, chi=chi)
        rep = trajectory_report(inst, m_max)
        states = iterate(build_search_channel(inst), uniform_state(inst), m_max)
        for p_success, norm, ent, rho in zip(
            rep.p_success, rep.bloch_norm, rep.entropies, states
        ):
            assert p_success == pytest.approx(rho[w, w].real, abs=1e-11)
            bloch = bloch_from_density(rho, inst)
            assert norm == pytest.approx(bloch.norm, abs=1e-11)
            assert ent == pytest.approx(entropy(rho), abs=1e-11)

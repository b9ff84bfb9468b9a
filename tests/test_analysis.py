import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisy_grover.analysis import (
    FidelityPoint,
    _bloch_of_block,
    angular_fidelity,
    bloch_contraction_factor,
    bloch_from_density,
    closed_form_fidelities,
    entropy,
    entropy_from_spectrum,
    high_precision_bloch_norms,
    majorization_check,
    phase_terms,
    trajectory_report,
)
from noisy_grover.errors import LengthMismatch, OffPlaneSupport, ZeroBlochVector
from noisy_grover.linalg import eigvals_hermitian
from noisy_grover.noise import chi_star, scalar_profile
from noisy_grover.search import (
    SearchInstance,
    bloch_map,
    build_search_channel,
    ideal_grover_probability,
    iterate,
    plane_basis,
    plane_channel,
    target_state,
    uniform_plane_vector,
    uniform_state,
)
from noisy_grover.tolerances import BLOCH_ZERO_ATOL

ENTROPY_09_01 = 0.3250829733914482  # -0.9 ln 0.9 - 0.1 ln 0.1
CONTRACTION_AT_2 = 0.7332746302984231  # |cos(2 psi(2))|
THETA_AT_0_N4 = 4.1887902047863910  # pi + asin(sqrt(3)/2) = 4 pi / 3


def plane_state(inst, block):
    p = plane_basis(inst)
    return p @ block.astype(complex) @ p.conj().T


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
        b = bloch_from_density(uniform_state(4), inst)
        assert b.z == pytest.approx(-0.5, abs=1e-14)
        assert b.x == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-14)
        assert b.norm == pytest.approx(1.0, abs=1e-14)

    def test_off_plane_support_rejected(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        basis_state = target_state(4, 2)  # outside span{|w>, |r>}
        with pytest.raises(OffPlaneSupport):
            bloch_from_density(basis_state, inst)


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
        assert angular_fidelity(uniform_state(4), inst) == pytest.approx(-0.5)

    def test_angular_undefined_at_center(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        with pytest.raises(ZeroBlochVector):
            angular_fidelity(plane_state(inst, np.eye(2) / 2), inst)


class TestClosedForms:
    def test_phase_bookkeeping_at_zero(self):
        ph = phase_terms(0.0, 0, 4)
        assert ph.alpha == pytest.approx(math.pi / 3, abs=1e-14)
        assert ph.theta == pytest.approx(THETA_AT_0_N4, abs=1e-13)
        assert ph.phi_half.tolist() == pytest.approx([ph.alpha], abs=1e-14)

    def test_half_normalization_ceiling(self):
        # the half-normalized radial fidelity cannot exceed 1/2 anywhere
        for chi in (0.0, 1.0, chi_star(1)):
            worst = np.max(closed_form_fidelities(chi, 39, 16)[0])
            assert worst <= 0.5 + 1e-12

    def test_noiseless_closed_form_tracks_simulator(self):
        # with psi = chi = 0 the sign ambiguities vanish and the closed
        # form must reproduce the simulated overlap exactly
        n = 16
        inst = SearchInstance(n=n, w=0, chi=0.0)
        states = iterate(build_search_channel(inst), uniform_state(n), 20)
        f, cg = closed_form_fidelities(0.0, 20, n)
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
            rep = trajectory_report(SearchInstance(n=16, w=0, chi=1.0), m_max)
            assert calls == [1.0]
            f, cos_gamma = closed_form_fidelities(1.0, m_max, 16)
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
        ph = phase_terms(chi, m_max, n)
        f, cos_gamma = closed_form_fidelities(chi, m_max, n)
        alpha = math.acos(1.0 / math.sqrt(n))
        theta = math.pi + chi + math.asin(2.0 * math.sqrt(n - 1.0) / n)
        assert (ph.alpha, ph.theta) == (alpha, theta)
        psi = scalar_profile(chi).psi
        halves = [m * psi - m * theta + alpha for m in range(m_max + 1)]
        for column, values in (
            (ph.phi_half, halves),
            (f, [0.25 * (1.0 + math.cos(2.0 * psi) ** m * math.cos(2.0 * h))
                 for m, h in enumerate(halves)]),
            (cos_gamma, [math.cos(h) ** 2 for h in halves]),
        ):
            assert column.shape == (m_max + 1,)
            assert column.tobytes() == np.array(values).tobytes()

    def test_negative_m_is_rejected(self):
        with pytest.raises(ValueError):
            closed_form_fidelities(1.0, -1, 16)
        with pytest.raises(ValueError):  # a trajectory needs at least one step
            trajectory_report(SearchInstance(n=16, w=0, chi=1.0), 0)


class TestContraction:
    def test_factor_anchors(self):
        assert bloch_contraction_factor(0.0) == pytest.approx(1.0)
        assert bloch_contraction_factor(chi_star(1)) == pytest.approx(1.0, abs=1e-12)
        assert bloch_contraction_factor(2.0) == pytest.approx(
            CONTRACTION_AT_2, abs=1e-14
        )

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
        states = iterate(build_search_channel(inst), uniform_state(n), horizon)
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
            rep = trajectory_report(SearchInstance(n=n, w=n - 1, chi=0.0), 10)
            for m, p_success in enumerate(rep.p_success):
                assert p_success == pytest.approx(
                    ideal_grover_probability(n, m), abs=1e-9
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
        assert abs(a * d - b * c - bloch_contraction_factor(chi) ** 2) <= 2e-15
        rep = trajectory_report(inst, m_max)
        s = uniform_plane_vector(n)
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
        states = iterate(build_search_channel(inst), uniform_state(n), m_max)
        for p_success, norm, ent, rho in zip(
            rep.p_success, rep.bloch_norm, rep.entropies, states
        ):
            assert p_success == pytest.approx(rho[w, w].real, abs=1e-11)
            bloch = bloch_from_density(rho, inst)
            assert norm == pytest.approx(bloch.norm, abs=1e-11)
            assert ent == pytest.approx(entropy(rho), abs=1e-11)

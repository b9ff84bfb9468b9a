import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisy_grover.channels import (
    PAULI_Y,
    PAULI_Z,
    KrausChannel,
    channel_choi_distance,
    closed_form_kraus,
    hamiltonian_kraus,
    matexp_i_hermitian,
    nearest_unitary_oracle,
    nearest_unitary_pair,
)
from noisy_grover.errors import DegeneratePolar
from noisy_grover.noise import (
    CHI_STAR_MAX_INDEX,
    chi_star,
    pair_rotations,
    psi_zero_scan,
    rotation_y,
    scalar_profile,
)
from noisy_grover.tolerances import CHI_MAX

from oracles import choi_rank

# frozen from a 30-digit evaluation of the defining formulas
MU_AT_2 = 1.2715542753135176
DELTA_AT_2 = 0.7514899067581920
PSI_AT_2 = 1.1969609816743351
CHI_STAR_1 = 6.0836680139604178
CHI_STAR_2 = 12.4678093230991225
DELTA_AT_0 = 0.9003163161571061


def psi_denominator(chi):
    """cos^2 mu + (chi delta/2)^2, the sum of the squared atan2 arguments of psi."""
    prof = scalar_profile(chi)
    return math.cos(prof.mu) ** 2 + (chi / 2.0 * prof.delta) ** 2


def aligned_distance(a, b):
    overlap = np.trace(a.conj().T @ b)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return np.linalg.norm(a - phase * b)


class TestScalarProfile:
    def test_noiseless_point(self):
        prof = scalar_profile(0.0)
        assert prof.mu == pytest.approx(math.pi / 4, abs=1e-15)
        assert prof.delta == pytest.approx(DELTA_AT_0, abs=1e-15)
        assert prof.psi == 0.0

    def test_first_magic_point(self):
        prof = scalar_profile(CHI_STAR_1)
        assert prof.mu == pytest.approx(math.pi, abs=1e-12)
        assert abs(prof.delta) <= 1e-15
        assert prof.psi <= 1e-10

    def test_frozen_values_at_two(self):
        prof = scalar_profile(2.0)
        assert prof.mu == pytest.approx(MU_AT_2, abs=1e-14)
        assert prof.delta == pytest.approx(DELTA_AT_2, abs=1e-14)
        assert prof.psi == pytest.approx(PSI_AT_2, abs=1e-14)

    def test_defining_relation_on_grid(self):
        for chi in np.linspace(0.0, 20.0, 211):
            prof = scalar_profile(chi)
            lhs = (
                math.cos(prof.mu) ** 2 + chi**2 / 4 * prof.delta**2
            ) * math.cos(prof.psi) ** 2
            assert lhs == pytest.approx(math.cos(prof.mu) ** 2, abs=1e-13)
            assert 0.0 <= prof.psi <= math.pi / 2
            assert prof.mu >= math.pi / 4 - 1e-15

    def test_mu_minimum_only_at_zero(self):
        assert scalar_profile(0.0).mu == pytest.approx(math.pi / 4, abs=1e-15)
        assert scalar_profile(1e-3).mu > math.pi / 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scalar_profile(-1.0)

    def test_negative_zero_is_zero(self):
        assert math.copysign(1.0, scalar_profile(-0.0).chi) == 1.0

    def test_psi_denominator_stays_above_half_at_extremes(self):
        # = 1 - (pi^2/16)(sin mu/mu)^2 >= 1/2, so the two atan2 arguments of
        # psi never vanish together: check at chi = 0, where the bound is
        # reached, and where either argument vanishes (delta at the magic
        # strengths, cos mu at its zeros)
        cos_zeros = [
            2.0 * math.sqrt((math.pi / 2 + k * math.pi) ** 2 - math.pi**2 / 16)
            for k in range(51)
        ]
        magic = [chi_star(n) for n in range(1, 51)]
        for chi in [0.0, *magic, *cos_zeros]:
            assert psi_denominator(chi) >= 0.5 - 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(chi=st.floats(0.0, CHI_MAX))
    def test_psi_denominator_stays_above_half(self, chi):
        assert psi_denominator(chi) >= 0.5 - 1e-15


class TestClosedFormKraus:
    def test_noiseless_pair_is_scaled_identity(self):
        ch = closed_form_kraus(0.0)
        assert_allclose(ch.operators[0], math.cos(math.pi / 4) * np.eye(2), atol=1e-15)
        assert_allclose(ch.operators[1], math.sin(math.pi / 4) * np.eye(2), atol=1e-15)

    def test_completeness_identity_on_grid(self):
        rng = np.random.default_rng(11)
        chis = np.exp(rng.uniform(np.log(1e-3), np.log(20.0), size=100))
        for chi in chis:
            assert closed_form_kraus(chi).completeness_defect() <= 1e-12

    def test_magic_point_collapses_to_one_operator(self):
        ch = closed_form_kraus(CHI_STAR_1)
        assert np.linalg.norm(ch.operators[1]) <= 1e-14
        assert_allclose(
            ch.operators[0], -rotation_y(-CHI_STAR_1 / 2), atol=1e-12
        )


class TestHamiltonianKraus:
    def test_noiseless_limit_is_pure_rotation(self):
        ch = hamiltonian_kraus(0.0)
        assert_allclose(ch.operators[0], rotation_y(math.pi / 4), atol=1e-14)
        assert np.linalg.norm(ch.operators[1]) <= 1e-14
        gap = channel_choi_distance(ch, KrausChannel((rotation_y(math.pi / 4),)))
        assert gap <= 1e-10

    def test_completeness_on_grid(self):
        rng = np.random.default_rng(12)
        chis = np.exp(rng.uniform(np.log(1e-3), np.log(20.0), size=100))
        for chi in chis:
            assert hamiltonian_kraus(chi).completeness_defect() <= 1e-10

    def test_generic_strength_gives_true_mixture(self):
        ch = hamiltonian_kraus(1.0)
        weights = ch.fractional_weights()
        assert weights.min() > 1e-3
        k0, k1 = ch.operators
        overlap = abs(np.trace(k0.conj().T @ k1))
        norms = np.linalg.norm(k0) * np.linalg.norm(k1)
        assert overlap < 0.99 * norms  # not proportional
        assert choi_rank(ch) == 2

    @pytest.mark.parametrize("chi", [0.0, 0.8, CHI_STAR_1, 7.716])
    def test_environment_is_the_right_kron_factor(self, chi):
        # R_i = (1 (x) <i|) U (1 (x) |0>), with the projectors built by np.kron
        eye = np.eye(2)
        h = math.pi / 4.0 * np.kron(PAULI_Y, eye) + chi / 2.0 * np.kron(
            eye - PAULI_Z, PAULI_Y
        )
        u = matexp_i_hermitian(h)
        ket0 = np.kron(eye, eye[:, [0]])
        for i, op in enumerate(hamiltonian_kraus(chi).operators):
            bra_i = np.kron(eye, eye[[i], :])
            assert_allclose(op, bra_i @ u @ ket0, atol=1e-15)


class TestChoiGap:
    def test_same_channel_distance_zero(self):
        ch = hamiltonian_kraus(0.7)
        assert channel_choi_distance(ch, ch) == 0.0

    def test_constructions_disagree_at_zero(self):
        # closed form gives the identity map, the Hamiltonian the rotation
        gap = channel_choi_distance(closed_form_kraus(0.0), hamiltonian_kraus(0.0))
        assert gap == pytest.approx(2.0, abs=1e-9)

    def test_constructions_disagree_everywhere_sampled(self):
        for chi in (0.5, 1.0, 2.0, 5.0):
            gap = channel_choi_distance(
                closed_form_kraus(chi), hamiltonian_kraus(chi)
            )
            assert gap > 0.1


class TestNearestUnitaryPair:
    def test_noiseless_pair_is_identity_channel(self):
        ch = nearest_unitary_pair(0.0)
        for op in ch.operators:
            assert_allclose(op, np.eye(2), atol=1e-15)

    def test_magic_point_is_one_unitary(self):
        ch = nearest_unitary_pair(CHI_STAR_1)
        assert_allclose(ch.operators[0], ch.operators[1], atol=1e-10)
        assert choi_rank(ch) == 1

    def test_generic_point_has_distinct_rotations(self):
        ch = nearest_unitary_pair(2.0)
        assert_allclose(ch.operators[0], rotation_y(PSI_AT_2 - 1.0), atol=1e-12)
        assert_allclose(ch.operators[1], rotation_y(-1.0), atol=1e-12)
        assert np.linalg.norm(ch.operators[0] - ch.operators[1]) > 0.1

    def test_operators_unitary_and_channel_unital(self):
        half = np.eye(2, dtype=complex) / 2
        for chi in (0.0, 0.5, 2.0, 7.0, CHI_STAR_1):
            ch = nearest_unitary_pair(chi)
            assert np.max(ch.unitarity_defects()) <= 1e-10
            assert np.linalg.norm(ch(half) - half) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(chi=st.one_of(st.floats(0.0, 1e6), st.sampled_from([CHI_STAR_1, CHI_MAX])))
    def test_pair_is_rotation_y_of_both_angles_bit_for_bit(self, chi):
        prof = scalar_profile(chi)
        v = pair_rotations(chi)
        assert v.shape == (2, 2, 2) and v.dtype == complex
        expected = (rotation_y(prof.psi - prof.chi / 2.0), rotation_y(-prof.chi / 2.0))
        channel = nearest_unitary_pair(chi)
        for op, channel_op, rotation in zip(v, channel.operators, expected):
            assert op.tobytes() == channel_op.tobytes() == rotation.tobytes()


class TestNearestUnitaryOracle:
    def test_polar_factors_match_closed_form_pair_at_two(self):
        oracle = nearest_unitary_oracle(2.0)
        closed_pair = nearest_unitary_pair(2.0)
        for a, b in zip(oracle.operators, closed_pair.operators):
            assert aligned_distance(a, b) <= 1e-8

    def test_noiseless_polar_factor_is_identity(self):
        oracle = nearest_unitary_oracle(0.0)
        assert_allclose(oracle.operators[0], np.eye(2), atol=1e-12)

    def test_degenerate_at_magic_point(self):
        with pytest.raises(DegeneratePolar):
            nearest_unitary_oracle(CHI_STAR_1)


class TestChiStar:
    def test_frozen_values(self):
        assert chi_star(1) == pytest.approx(CHI_STAR_1, abs=1e-12)
        assert chi_star(2) == pytest.approx(CHI_STAR_2, abs=1e-12)
        assert chi_star(np.int64(2)) == chi_star(2)

    def test_preconditioning_angle_vanishes(self):
        for n in range(1, 6):
            assert scalar_profile(chi_star(n)).psi <= 1e-10

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            chi_star(0)

    def test_max_index_is_the_last_within_chi_max(self):
        # chi_n rises with n: the formula crosses CHI_MAX between these two
        assert CHI_STAR_MAX_INDEX == 716770142402832
        assert chi_star(CHI_STAR_MAX_INDEX) == 4503599627370493.5 <= CHI_MAX
        past = CHI_STAR_MAX_INDEX + 1
        assert math.pi * math.sqrt(4.0 * past * past - 0.25) == 4503599627370500.0

    @pytest.mark.parametrize(
        "index, shown",
        [
            (CHI_STAR_MAX_INDEX + 1, "716770142402833"),
            (10**154, "an integer of 512 bits"),
            (10**400, "an integer of 1329 bits"),
        ],
        ids=["max+1", "1e154", "1e400"],
    )
    def test_rejects_index_past_chi_max(self, index, shown):
        # the formula overflows to inf by 1e154 and raises OverflowError at
        # 1e400; a value wider than 64 bits is named by its size
        message = rf"^index must be <= 716770142402832, got {shown}$"
        with pytest.raises(ValueError, match=message):
            chi_star(index)

    @pytest.mark.parametrize("index", [2.5, math.nan, True, "3"])
    def test_rejects_non_integer_index(self, index):
        with pytest.raises(ValueError, match="^index must be an integer, got "):
            chi_star(index)

    def test_scan_oracle_confirms_closed_form(self):
        # root scan of psi finds exactly the closed-form zeros
        zeros = psi_zero_scan()
        expected = [0.0, chi_star(1), chi_star(2)]
        assert zeros.size == 3
        for found, true in zip(zeros, expected):
            assert abs(found - true) <= 2e-3

"""Tests of channels: the Kraus channel on its operator stack, Choi
matrices and composition, the noise model's four Kraus constructions, and
the matrix helpers that were once the linalg module."""

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
    choi_matrix,
    choi_of_map,
    closed_form_kraus,
    compose_channels,
    hamiltonian_kraus,
    matexp_i_hermitian,
    nearest_unitary_oracle,
    nearest_unitary_pair,
    polar_unitary_factor,
    unitarity_defect,
)
from noisy_grover.errors import (
    DegeneratePolar,
    DimensionMismatch,
    NotHermitian,
    NotTracePreserving,
)
from noisy_grover.noise import chi_star, pair_rotations, rotation_y, scalar_profile
from noisy_grover.search import SearchInstance
from noisy_grover.tolerances import CHI_MAX, UNITARITY_ATOL
from noisy_grover.verify import build_search_channel

from conftest import (
    CHI_STAR_1,
    PSI_AT_2,
    random_channel,
    random_density,
    random_hermitian,
    random_kraus_blocks,
    random_unitary,
)
from oracles import (
    choi_per_operator,
    choi_rank,
    completeness_per_operator,
    compose_per_pair,
    identity_channel,
    kraus_sum_per_operator,
)

I2 = np.eye(2, dtype=complex)


def expm_i_series(h: np.ndarray) -> np.ndarray:
    """Independent oracle: truncated power series of exp(i h)."""
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, 200):
        term = term @ (1j * h) / k
        acc = acc + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return acc


def aligned_distance(a, b):
    overlap = np.trace(a.conj().T @ b)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return np.linalg.norm(a - phase * b)


def _families(rng, dim: int):
    """(weights, operators) Kraus families on dim, k = 1, 2, 3 operators each:
    isometry blocks at weight 1, and unitaries with random mixing weights."""
    for n_ops in (1, 2, 3):
        yield np.ones(n_ops), random_kraus_blocks(rng, dim, n_ops)
        weights = rng.dirichlet(np.ones(n_ops))
        yield weights, tuple(random_unitary(rng, dim) for _ in range(n_ops))


def _verify_families():
    """The channels verify builds, as pytest params: the three noise pairs at
    chi in {0.5, chi_star(1), 5.0}, and the dense search channel at n = 3 and 8."""
    for chi in (0.5, chi_star(1), 5.0):
        for build in (nearest_unitary_pair, closed_form_kraus, hamiltonian_kraus):
            yield pytest.param(build(chi), id=f"{build.__name__}-{chi:.6g}")
        for n in (3, 8):
            ch = build_search_channel(SearchInstance(n, 0, chi))
            yield pytest.param(ch, id=f"search-n{n}-{chi:.6g}")


class TestKrausChannel:
    def test_rejects_incomplete_family(self):
        with pytest.raises(NotTracePreserving):
            KrausChannel((0.5 * np.eye(2, dtype=complex),))

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))
        with pytest.raises(DimensionMismatch):
            KrausChannel(())
        with pytest.raises(DimensionMismatch):  # a non-square stack
            KrausChannel(np.zeros((2, 2, 3), dtype=complex))
        with pytest.raises(DimensionMismatch):  # one bare matrix, not a stack
            KrausChannel(np.eye(2, dtype=complex))

    def test_holds_one_stack(self):
        ch = KrausChannel([np.eye(2), np.eye(2)], np.array([0.5, 0.5]))
        assert type(ch.operators) is np.ndarray
        assert ch.operators.shape == (2, 2, 2) and ch.operators.dtype == complex

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel((np.eye(2, dtype=complex),), np.array([0.0]))

    @pytest.mark.parametrize(
        "weights", [[np.nan], [np.inf], [0.5, np.nan]], ids=["nan", "inf", "half-nan"]
    )
    def test_rejects_non_finite_weight(self, weights):
        ops = (np.eye(2, dtype=complex),) * len(weights)
        with pytest.raises(DimensionMismatch):
            KrausChannel(ops, np.array(weights))

    def test_nan_completeness_defect_fails_closed(self):
        # finite entries whose products overflow to inf - inf = nan
        big = np.array([[1e200, 1e200], [1e200, -1e200]], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NotTracePreserving):
                KrausChannel((big,))

    def test_weights_scale_operators(self):
        # two identities at weight 1/2 still sum to a complete family
        ch = KrausChannel(
            (np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
            np.array([0.5, 0.5]),
        )
        assert ch.completeness_defect() <= 1e-14
        assert np.max(ch.unitarity_defects()) <= UNITARITY_ATOL
        assert_allclose(ch.fractional_weights(), [0.5, 0.5])

    def test_apply_preserves_trace_and_hermiticity(self, rng):
        ch = random_channel(rng, 4, 3)
        for _ in range(100):
            rho = random_density(rng, 4)
            out = ch(rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_apply_dimension_check(self, rng):
        with pytest.raises(DimensionMismatch):
            random_channel(rng, 3, 2)(np.eye(4) / 4)


class TestChoi:
    def test_identity_channel_is_unnormalized_bell_projector(self):
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 1.0
        assert_allclose(choi_matrix(identity_channel(2)), expected)

    def test_global_phase_invariance(self, rng):
        u = random_unitary(rng, 3)
        a = KrausChannel((u,))
        b = KrausChannel((np.exp(0.37j) * u,))
        assert channel_choi_distance(a, b) <= 1e-12

    def test_trace_equals_dimension(self, rng):
        for dim, n_ops in ((2, 2), (3, 4), (5, 3)):
            ch = random_channel(rng, dim, n_ops)
            assert abs(np.trace(choi_matrix(ch)).real - dim) <= 1e-10

    def test_matches_function_route(self, rng):
        # independent construction: apply the channel to every basis matrix
        for dim, n_ops in ((2, 2), (3, 3)):
            ch = random_channel(rng, dim, n_ops)
            direct = choi_matrix(ch)
            functional = choi_of_map(ch, dim)
            assert np.linalg.norm(direct - functional) <= 1e-10

    def test_distinguishes_distinct_unitaries(self, rng):
        for _ in range(20):
            u = random_unitary(rng, 3)
            v = random_unitary(rng, 3)
            overlap = abs(np.trace(u.conj().T @ v))
            aligned_distance = np.sqrt(max(2 * 3 - 2 * overlap, 0.0))
            if aligned_distance <= 1e-3:
                continue
            gap = channel_choi_distance(KrausChannel((u,)), KrausChannel((v,)))
            assert gap > 1e-4

    def test_choi_rank_counts_kraus_operators(self, rng):
        assert choi_rank(identity_channel(4)) == 1
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        mixed = KrausChannel((u, v), np.array([0.5, 0.5]))
        assert choi_rank(mixed) == 2

    def test_distance_requires_equal_dims(self, rng):
        with pytest.raises(DimensionMismatch):
            channel_choi_distance(identity_channel(2), identity_channel(3))


class TestCompose:
    def test_identity_is_neutral(self, rng):
        ch = random_channel(rng, 3, 2)
        left = compose_channels(identity_channel(3), ch)
        right = compose_channels(ch, identity_channel(3))
        assert channel_choi_distance(left, ch) <= 1e-12
        assert channel_choi_distance(right, ch) <= 1e-12

    def test_operator_count_and_weights(self, rng):
        u = tuple(random_unitary(rng, 2) for _ in range(2))
        a = KrausChannel(u, np.array([0.5, 0.5]))
        squared = compose_channels(a, a)
        assert len(squared.operators) == 4
        assert_allclose(squared.weights, [0.25, 0.25, 0.25, 0.25])
        assert np.max(squared.unitarity_defects()) <= UNITARITY_ATOL

    def test_matches_sequential_application(self, rng):
        a = random_channel(rng, 3, 2)
        b = random_channel(rng, 3, 3)
        composed = choi_matrix(compose_channels(a, b))
        sequential = choi_of_map(lambda r: a(b(r)), 3)
        assert np.linalg.norm(composed - sequential) <= 1e-10

    def test_mixed_unitary_composition_is_unital(self, rng):
        ops_a = tuple(random_unitary(rng, 4) for _ in range(2))
        ops_b = tuple(random_unitary(rng, 4) for _ in range(2))
        a = KrausChannel(ops_a, np.array([0.3, 0.7]))
        b = KrausChannel(ops_b, np.array([0.5, 0.5]))
        mixed = compose_channels(a, b)
        assert np.linalg.norm(mixed(np.eye(4) / 4) - np.eye(4) / 4) <= 1e-12

    def test_dimension_check(self, rng):
        with pytest.raises(DimensionMismatch):
            compose_channels(identity_channel(2), identity_channel(3))


class TestStackBits:
    """The (k, d, d) stack carries the bits of the per-operator arithmetic."""

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_apply_and_completeness(self, rng, dim):
        for weights, ops in _families(rng, dim):
            ch = KrausChannel(ops, weights)
            rho = random_density(rng, dim)
            assert ch(rho).tobytes() == kraus_sum_per_operator(weights, ops, rho).tobytes()
            assert ch.completeness_defect() == completeness_per_operator(weights, ops)

    @pytest.mark.parametrize("ch", _verify_families())
    def test_apply_and_completeness_on_verify_families(self, rng, ch):
        # real operators give terms with -0.0 entries, which the loop's sum
        # onto zeros turns into +0.0; the stacked sum must do the same
        weights, ops, dim = ch.weights, tuple(ch.operators), ch.dim
        for rho in (random_density(rng, dim), np.full((dim, dim), 1.0 / dim, dtype=complex)):
            assert ch(rho).tobytes() == kraus_sum_per_operator(weights, ops, rho).tobytes()
        assert ch.completeness_defect() == completeness_per_operator(weights, ops)
        assert choi_matrix(ch).tobytes() == choi_per_operator(weights, ops).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_choi_matrix(self, rng, dim):
        for weights, ops in _families(rng, dim):
            got = choi_matrix(KrausChannel(ops, weights))
            assert got.tobytes() == choi_per_operator(weights, ops).tobytes()

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_compose(self, rng, dim):
        families = list(_families(rng, dim))
        for wa, a_ops in families:
            for wb, b_ops in families:
                composed = compose_channels(KrausChannel(a_ops, wa), KrausChannel(b_ops, wb))
                weights, ops = compose_per_pair(wa, a_ops, wb, b_ops)
                assert composed.weights.tobytes() == weights.tobytes()
                assert composed.operators.tobytes() == ops.tobytes()


class TestMatexp:
    def test_zero_exponent(self):
        assert_allclose(matexp_i_hermitian(np.zeros((3, 3))), np.eye(3))

    def test_quarter_turn_closed_form(self):
        got = matexp_i_hermitian(np.pi / 4 * PAULI_Y)
        c = np.cos(np.pi / 4)
        assert_allclose(got, np.array([[c, c], [-c, c]]), atol=1e-14)
        assert_allclose(got, expm_i_series(np.pi / 4 * PAULI_Y), atol=1e-14)

    def test_scalar_phase(self):
        assert_allclose(
            matexp_i_hermitian(np.pi * np.eye(2)), -np.eye(2), atol=1e-14
        )

    def test_inverse_property(self, rng):
        for dim in (2, 3, 5, 8):
            h = random_hermitian(rng, dim)
            prod = matexp_i_hermitian(h) @ matexp_i_hermitian(-h)
            assert np.linalg.norm(prod - np.eye(dim)) <= 1e-10

    def test_matches_series_oracle(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            h *= rng.uniform(0.1, 10.0) / max(np.linalg.norm(h), 1e-12)
            assert np.max(
                np.abs(matexp_i_hermitian(h) - expm_i_series(h))
            ) <= 1e-9

    def test_result_is_unitary(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 4, scale=3.0)
            assert unitarity_defect(matexp_i_hermitian(h)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matexp_i_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPolar:
    def test_positive_scalar_multiple(self):
        assert_allclose(polar_unitary_factor(2.0 * I2), I2, atol=1e-14)

    def test_permutation_times_diagonal(self):
        got = polar_unitary_factor(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert_allclose(got, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)

    def test_factor_is_frobenius_nearest_unitary(self, rng):
        # exact characterization (Higham 1986): W is the Frobenius-nearest
        # unitary to m iff W is unitary and m W^dag is Hermitian PSD; the
        # first 20 matrices also face a sampling oracle: no random unitary
        # gets closer than the factor
        for k in range(100):
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 2)
            sv = rng.uniform(0.1, 10.0, size=2)
            m = u @ np.diag(sv).astype(complex) @ v
            w = polar_unitary_factor(m)
            assert unitarity_defect(w) <= 1e-12
            p = m @ w.conj().T
            assert np.max(np.abs(p - p.conj().T)) <= 1e-12 * np.max(sv)
            assert np.min(np.linalg.eigvalsh((p + p.conj().T) / 2)) >= 0.0
            if k < 20:
                base = np.linalg.norm(m - w)
                trials = min(
                    np.linalg.norm(m - random_unitary(rng, 2)) for _ in range(200)
                )
                assert base <= trials + 1e-12

    def test_left_cofactor_hermitian_positive(self, rng):
        for dim in (2, 3, 5):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = z + 3.0 * np.eye(dim)
            w = polar_unitary_factor(m)
            p = m @ w.conj().T
            assert np.max(np.abs(p - p.conj().T)) <= 1e-9
            assert np.min(np.linalg.eigvalsh((p + p.conj().T) / 2)) > 0

    def test_factor_is_unitary(self, rng):
        for dim in (2, 4, 6):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            z += 2.0 * np.eye(dim)
            assert unitarity_defect(polar_unitary_factor(z)) <= 1e-10

    def test_singular_input_rejected(self):
        with pytest.raises(DegeneratePolar):
            polar_unitary_factor(np.zeros((2, 2)))
        with pytest.raises(DegeneratePolar):
            polar_unitary_factor(np.diag([1.0, 0.0, 2.0]))


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

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisy_grover.channels import (
    KrausChannel,
    channel_choi_distance,
    choi_matrix,
    choi_of_map,
    closed_form_kraus,
    compose_channels,
    hamiltonian_kraus,
    nearest_unitary_pair,
)
from noisy_grover.errors import DimensionMismatch, NotTracePreserving
from noisy_grover.noise import chi_star
from noisy_grover.search import SearchInstance
from noisy_grover.tolerances import UNITARITY_ATOL
from noisy_grover.verify import build_search_channel

from conftest import random_channel, random_density, random_kraus_blocks, random_unitary
from oracles import (
    choi_per_operator,
    choi_rank,
    completeness_per_operator,
    compose_per_pair,
    identity_channel,
    kraus_sum_per_operator,
)


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

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisy_grover.analysis import trajectory_report
from noisy_grover.channels import (
    channel_choi_distance,
    choi_matrix,
    choi_of_map,
    choi_rank,
    compose_channels,
    identity_channel,
)
from noisy_grover.errors import (
    DegeneratePlane,
    DimensionMismatch,
    InvalidDensityMatrix,
    NotNormalized,
)
from noisy_grover.noise import chi_star, rotation_y
from noisy_grover.search import (
    SearchInstance,
    build_search_channel,
    check_density_matrix,
    embed_plane_rotation,
    ideal_grover_probability,
    iterate,
    plane_basis,
    plane_channel,
    reflection,
    success_probability,
    target_state,
    uniform_plane_vector,
    uniform_state,
)
from noisy_grover.tolerances import CHI_MAX

from conftest import random_channel, random_density

IDEAL_100_7 = 0.9953444003575990  # sin^2(15 asin(0.1)), 30-digit evaluation


class TestInstance:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchInstance(n=1, w=0, chi=0.0)
        with pytest.raises(ValueError):
            SearchInstance(n=4, w=4, chi=0.0)
        with pytest.raises(ValueError):
            SearchInstance(n=4, w=0, chi=-0.5)
        bad = [
            (4, 0, math.nan),
            (4, 0, math.inf),
            (16.5, 0, 0.0),
            (16.0, 0, 0.0),
            (True, 0, 0.0),
            (4, 1.0, 0.0),
            (4, False, 0.0),
            (10**400, 0, 0.0),  # does not fit a float
        ]
        for n, w, chi in bad:
            with pytest.raises(ValueError):
                SearchInstance(n=n, w=w, chi=chi)

    def test_chi_is_bounded_and_stored_as_float(self):
        assert SearchInstance(n=4, w=0, chi=CHI_MAX).chi == CHI_MAX
        assert type(SearchInstance(n=4, w=0, chi=np.float64(0.5)).chi) is float
        with pytest.raises(ValueError, match="chi must be <= 4503599627370496,"):
            SearchInstance(n=4, w=0, chi=math.nextafter(CHI_MAX, math.inf))

    def test_numpy_integers_are_stored_as_int(self):
        inst = SearchInstance(n=np.int64(8), w=np.int32(3), chi=0.5)
        assert type(inst.n) is int and type(inst.w) is int


class TestStatesAndReflections:
    def test_uniform_state_entries(self):
        assert_allclose(uniform_state(2), np.full((2, 2), 0.5))
        assert_allclose(uniform_state(4), np.full((4, 4), 0.25))
        with pytest.raises(ValueError):
            uniform_state(1)
        with pytest.raises(DegeneratePlane):
            uniform_plane_vector(1)

    def test_uniform_state_is_rank_one(self):
        rho = uniform_state(1024)
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


class TestEmbedding:
    def test_identity_lifts_to_identity(self):
        inst = SearchInstance(n=5, w=2, chi=0.0)
        assert_allclose(embed_plane_rotation(np.eye(2), inst), np.eye(5), atol=1e-14)
        assert_allclose(embed_plane_rotation(rotation_y(0.0), inst), np.eye(5), atol=1e-14)

    def test_lift_preserves_plane_and_complement(self):
        inst = SearchInstance(n=7, w=3, chi=0.0)
        lifted = embed_plane_rotation(rotation_y(0.8), inst)
        p = plane_basis(inst)
        complement = np.eye(7) - p @ p.conj().T
        off_block = complement @ lifted @ p
        assert np.max(np.abs(off_block)) <= 1e-12
        assert np.max(np.abs(complement @ lifted @ complement - complement)) <= 1e-12

    def test_rejects_non_unitary(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        with pytest.raises(DimensionMismatch):
            embed_plane_rotation(np.diag([2.0, 1.0]), inst)
        with pytest.raises(DimensionMismatch):
            embed_plane_rotation(np.eye(3), inst)


class TestBuildChannel:
    def test_noiseless_kraus_is_double_reflection(self):
        inst = SearchInstance(n=4, w=0, chi=0.0)
        t = build_search_channel(inst)
        s = np.full(4, 0.5)
        expected = reflection(s) @ reflection([1.0, 0.0, 0.0, 0.0])
        for op in t.operators:
            assert_allclose(op, expected, atol=1e-12)

    def test_magic_strength_gives_unitary_channel(self):
        for order in (1, 2):
            inst = SearchInstance(n=8, w=0, chi=chi_star(order))
            t = build_search_channel(inst)
            assert_allclose(t.operators[0], t.operators[1], atol=1e-10)
            assert choi_rank(t) == 1

    def test_generic_strength_gives_rank_two(self):
        inst = SearchInstance(n=4, w=0, chi=1.0)
        t = build_search_channel(inst)
        assert choi_rank(t) == 2
        assert t.is_mixed_unitary()
        assert t.completeness_defect() <= 1e-10

    def test_plane_channel_is_dense_channel_on_plane(self):
        for n, w, chi in ((2, 1, 0.4), (5, 3, 1.0), (16, 0, chi_star(1)), (9, 8, 11.0)):
            inst = SearchInstance(n=n, w=w, chi=chi)
            p = plane_basis(inst)
            dense = build_search_channel(inst)
            plane = plane_channel(inst)
            assert plane.dim == 2
            assert plane.is_mixed_unitary()
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
        rho = uniform_state(4)
        traj = iterate(t, rho, 0)
        assert traj.shape == (1, 4, 4)
        assert_allclose(traj[0], rho)
        traj = iterate(t, rho, 2)
        assert_allclose(traj[2], t(t(rho)), atol=1e-13)
        with pytest.raises(ValueError):
            iterate(t, rho, -1)

    def test_iterate_equals_repeated_apply_exactly(self, rng):
        # iterate validates once and runs apply's arithmetic; every step
        # must carry the same bits as one more channel application
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
        for state in iterate(t, uniform_state(8), 25):
            assert np.max(np.abs(complement @ state @ p)) <= 1e-10

    def test_trajectory_states_are_valid(self):
        for n, chi in ((16, 0.0), (16, 2.0), (64, 1.0), (64, chi_star(1))):
            inst = SearchInstance(n=n, w=0, chi=chi)
            t = build_search_channel(inst)
            for state in iterate(t, uniform_state(n), 50):
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
        assert success_probability(uniform_state(4), 3) == pytest.approx(0.25)

    def test_success_probability_index_check(self):
        with pytest.raises(DimensionMismatch):
            success_probability(uniform_state(4), 4)

    def test_ideal_reference_values(self):
        assert ideal_grover_probability(4, 1) == pytest.approx(1.0, abs=1e-12)
        assert ideal_grover_probability(4, 0) == pytest.approx(0.25, abs=1e-14)
        assert ideal_grover_probability(100, 7) == pytest.approx(IDEAL_100_7, abs=1e-14)
        for n, m in ((1, 0), (4, -1)):
            with pytest.raises(ValueError):
                ideal_grover_probability(n, m)

    def test_noiseless_simulator_matches_reference(self):
        # the plane report `search` emits; a4 checks the dense channel
        for n in (4, 16, 64):
            report = trajectory_report(SearchInstance(n=n, w=0, chi=0.0), 30)
            for m in range(31):
                assert report.p_success[m] == pytest.approx(
                    ideal_grover_probability(n, m), abs=1e-9
                )


class TestDensityValidation:
    def test_valid_state_passes(self, rng):
        check_density_matrix(random_density(rng, 5))

    def test_invalid_states_raise(self):
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(np.eye(3, dtype=complex))  # trace 3
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(bad)
        skew = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(skew)

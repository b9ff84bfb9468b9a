import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from noisy_grover.analysis import closed_form_fidelities, plane_report, trajectory_report
from noisy_grover.channels import (
    KrausChannel,
    channel_choi_distance,
    choi_matrix,
    choi_of_map,
    compose_channels,
)
from noisy_grover.errors import DimensionMismatch, NotNormalized, NotReal, NotTracePreserving
from noisy_grover.noise import chi_star, pair_rotations, rotation_y
from noisy_grover.search import (
    SearchInstance,
    bloch_image,
    bloch_map,
    plane_kraus,
    uniform_plane_vector,
)
from noisy_grover.tolerances import CHI_MAX, M_MAX, UNITARITY_ATOL
from noisy_grover.verify import (
    build_search_channel,
    ideal_grover_probability,
    reflection,
    run_verification,
)

from conftest import random_channel, random_density
from oracles import (
    bloch_image_via_channel,
    bloch_map_via_channel,
    check_density_matrix,
    choi_rank,
    identity_channel,
    iterate,
    pair_channel,
    plane_basis,
    plane_channel,
    search_operators_per_operator,
    success_probability,
    target_state,
    uniform_state,
)

# the plane p_success against the dense one, for any rotation pair: the worst
# gap over 400 random pairs (n <= 64, m <= 30) was 8.0e-14
PLANE_DENSE_ATOL = 1e-12
IDEAL_100_7 = 0.9953444003575990  # sin^2(15 asin(0.1)), 30-digit evaluation
# a complete, complex plane operator: [PHASE, PHASE] has a complex mixture,
# [PHASE, PHASE.conj()] complex operators but a real mixture
PHASE = np.diag([np.exp(0.3j), np.exp(-0.3j)])


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
            (math.nan, 0, 0.0),
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


class TestBlochMap:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chi=st.floats(0.0, 1e6), n=st.sampled_from([2, 3, 2**20, 2**40, 2**53, 10**300]))
    @example(chi=chi_star(1), n=2**40)
    @example(chi=chi_star(2), n=3)
    @example(chi=2.7207, n=2**20)
    @example(chi=1.269127, n=2)
    @example(chi=7.716019, n=10**300)
    @example(chi=CHI_MAX, n=2**53)
    def test_bits_equal_the_channel_construction(self, chi, n):
        # every slice of the stacked products is the BLAS product one
        # KrausChannel application multiplies; the bits depend on the CPU's
        # BLAS kernels, so this test carries the claim to each machine
        inst = SearchInstance(n=n, w=0, chi=chi)
        assert bloch_map(inst).tobytes() == bloch_map_via_channel(inst).tobytes()

    @pytest.mark.parametrize(
        "pair",
        [
            pytest.param(lambda v: 1.5 * v, id="non-unitary-pair"),
            pytest.param(lambda v: np.full_like(v, np.nan), id="nan-pair"),
            # 0.5 (V0^dag V0 + V1^dag V1) = 1, but V_i I_s V_i^dag I_w is not
            # complete: only the plane operators' check can fire
            pytest.param(
                lambda v: np.sqrt(2.0) * np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]),
                id="complete-pair-incomplete-operators",
            ),
        ],
    )
    def test_completeness_checks_fire(self, pair):
        s = uniform_plane_vector(SearchInstance(n=16, w=0, chi=1.0))
        with pytest.raises(NotTracePreserving, match="^completeness defect "):
            plane_kraus(pair(pair_rotations(1.0)), s)

    @pytest.mark.parametrize("s", [[0.6, 0.9], [np.nan, 1.0]], ids=["long", "nan"])
    def test_unnormalized_plane_vector_fires(self, s):
        with pytest.raises(NotNormalized):
            plane_kraus(pair_rotations(1.0), np.array(s))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        a=st.floats(-10.0, 10.0),
        b=st.floats(-10.0, 10.0),
        n=st.sampled_from([2, 3, 64, 2**20, 2**40, 10**300]),
    )
    def test_any_rotation_pair_bits_equal_the_channel_construction(self, a, b, n):
        pair = [rotation_y(a), rotation_y(b)]
        s = uniform_plane_vector(SearchInstance(n=n, w=0, chi=0.0))
        got = bloch_image(plane_kraus(pair, s))
        assert got.tobytes() == bloch_image_via_channel(pair, s).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        a=st.floats(-10.0, 10.0),
        b=st.floats(-10.0, 10.0),
        n=st.integers(2, 64),
        w=st.integers(0, 63),
        m=st.integers(1, 30),
    )
    def test_any_rotation_pair_matches_the_dense_iteration(self, a, b, n, w, m):
        # the report of the pair's Bloch matrix, iterated from |s>, against
        # the dense n x n channel of the same pair, lifted onto the plane one
        # operator at a time
        inst = SearchInstance(n=n, w=w % n, chi=0.0)
        pair = [rotation_y(a), rotation_y(b)]
        step = bloch_image(plane_kraus(pair, uniform_plane_vector(inst)))
        plane = plane_report(inst, step, m).p_success
        dense = KrausChannel(search_operators_per_operator(inst, pair), np.array([0.5, 0.5]))
        dense_p = iterate(dense, uniform_state(inst), m)[:, inst.w, inst.w].real
        assert np.max(np.abs(plane - dense_p)) <= PLANE_DENSE_ATOL


    def test_complex_mixture_is_refused(self):
        # it passes plane_kraus's checks; its real part alone would give
        # p_2 = 0.7956 at n = 16, where the density iteration gives 0.8704
        s = uniform_plane_vector(SearchInstance(n=16, w=0, chi=0.0))
        k = plane_kraus([PHASE, PHASE], s)
        with pytest.raises(NotReal, match="^mixture's imaginary part 2.392e-01 exceeds 1.0e-12$"):
            bloch_image(k)

    @pytest.mark.parametrize("n", [2, 16, 64, 2**20])
    def test_complex_operators_with_a_real_mixture_match_the_density_iteration(self, n):
        inst = SearchInstance(n=n, w=0, chi=0.0)
        s = uniform_plane_vector(inst)
        pair = [PHASE, PHASE.conj()]
        step = bloch_image(plane_kraus(pair, s))
        assert step.tobytes() == bloch_image_via_channel(pair, s).tobytes()
        rho = iterate(pair_channel(pair, s), np.outer(s, s).astype(complex), 30)
        plane = plane_report(inst, step, 30).p_success
        assert np.max(np.abs(plane - rho[:, 0, 0].real)) <= PLANE_DENSE_ATOL


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


_COUNT_INST = SearchInstance(n=4, w=0, chi=1.0)
_COUNT_STEP = bloch_map(_COUNT_INST)
BELOW_FLOOR = object()


class TestCountRule:
    # every step count, chi_star's index and verify's seed pass
    # noise._require_count
    @pytest.mark.parametrize(
        "call, name, floor",
        [
            (lambda m: trajectory_report(_COUNT_INST, m), "iteration count m", 1),
            (lambda m: plane_report(_COUNT_INST, _COUNT_STEP, m), "iteration count m", 1),
            (lambda m: closed_form_fidelities(_COUNT_INST, m), "iteration count m", 0),
            (lambda m: ideal_grover_probability(_COUNT_INST, m), "iteration count m", 0),
            (chi_star, "index", 1),
            (run_verification, "seed", 0),
        ],
        ids=["trajectory_report", "plane_report", "closed_form_fidelities",
             "ideal_grover_probability", "chi_star", "run_verification"],
    )
    @pytest.mark.parametrize(
        "value", [2.5, True, math.nan, BELOW_FLOOR],
        ids=["2.5", "True", "nan", "below-floor"],
    )
    def test_bad_count_is_rejected(self, call, name, floor, value):
        if value is BELOW_FLOOR:
            value = floor - 1
        message = rf"^{name} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            call(value)

    @pytest.mark.parametrize(
        "call",
        [
            lambda m: trajectory_report(_COUNT_INST, m),
            lambda m: plane_report(_COUNT_INST, _COUNT_STEP, m),
            lambda m: closed_form_fidelities(_COUNT_INST, m),
            lambda m: ideal_grover_probability(_COUNT_INST, m),
        ],
        ids=["trajectory_report", "plane_report", "closed_form_fidelities",
             "ideal_grover_probability"],
    )
    def test_m_past_the_ceiling_is_rejected(self, call):
        assert M_MAX == 2**53
        message = rf"^iteration count m must be <= {M_MAX}, got {M_MAX + 1}$"
        with pytest.raises(ValueError, match=message):
            call(M_MAX + 1)
        with pytest.raises(ValueError, match="got an integer of 1329 bits$"):
            call(10**400)

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisy_grover.analysis import plane_report
from noisy_grover.channels import KrausChannel
from noisy_grover.errors import DimensionMismatch, NotNormalized, NotReal, NotTracePreserving
from noisy_grover.noise import chi_star, pair_rotations, rotation_y
from noisy_grover.search import (
    SearchInstance,
    bloch_image,
    bloch_map,
    plane_kraus,
    uniform_plane_vector,
)
from noisy_grover.tolerances import CHI_MAX

from oracles import (
    bloch_image_via_channel,
    bloch_map_via_channel,
    complex_pair,
    iterate,
    pair_channel,
    search_operators_per_operator,
    uniform_state,
)

# the plane p_success against the dense one, for any complete pair: the worst
# gap over 400 random pairs (n <= 64, m <= 30) was 8.0e-14 for rotations and
# 6.7e-14 for complex_pair's phases and SU(2) elements
PLANE_DENSE_ATOL = 1e-12
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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chi=st.floats(0.0, 1e6), n=st.sampled_from([2, 3, 2**20, 2**40, 2**53, 10**300]))
    @example(chi=chi_star(1), n=2**40)
    @example(chi=2.7207, n=2**20)
    @example(chi=7.716019, n=10**300)
    @example(chi=CHI_MAX, n=2**53)
    def test_real_pair_leaves_y_alone(self, chi, n):
        # the search's pair is real: the y row is exact zeros off its
        # diagonal, so y stays a zero; the y column is rounding, at most
        # 3.9e-16 over 36,000 random (chi, n), and M[y, y] is 1 within 5.6e-16
        step = bloch_map(SearchInstance(n=n, w=0, chi=chi))
        assert step[1, 0] == 0.0 and step[1, 2] == 0.0
        assert abs(step[0, 1]) <= 1e-15 and abs(step[2, 1]) <= 1e-15
        assert abs(step[1, 1] - 1.0) <= 1e-15

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

    @pytest.mark.parametrize("angles", [(0.1,), (0.1, 0.7, 1.3, 2.9)], ids=["one", "four"])
    def test_stack_of_other_than_two_operators_is_refused(self, angles):
        # four rotations would have their first two mixed, one would fail
        # with an IndexError
        stack = np.array([rotation_y(a) for a in angles], dtype=complex)
        s = uniform_plane_vector(SearchInstance(n=16, w=0, chi=0.0))
        shape = re.escape(f"has shape {stack.shape}, not (2, 2, 2)")
        with pytest.raises(DimensionMismatch, match=f"^rotation pair {shape}$"):
            plane_kraus(stack, s)
        with pytest.raises(DimensionMismatch, match=f"^operator stack {shape}$"):
            bloch_image(stack)

    @pytest.mark.parametrize(
        "s", [[1.0], [0.6, 0.8, 0.0], [[0.6], [0.8]]], ids=["one", "three", "column"]
    )
    def test_plane_vector_of_other_than_two_numbers_is_refused(self, s):
        with pytest.raises(DimensionMismatch, match="^plane vector has shape "):
            plane_kraus(pair_rotations(1.0), s)

    @pytest.mark.parametrize(
        "s", [np.array([0.6 + 0.3j, 0.8]), [0.6 + 0.3j, 0.8 + 0j]], ids=["array", "list"]
    )
    def test_complex_plane_vector_is_refused(self, s):
        # 1 - 2 s s^T reflects about s only for real s; |s| is 1.044, so
        # dropping the imaginary part would also hide a wrong norm
        with pytest.raises(NotReal, match=re.escape("vector [(0.6+0.3j), (0.8+0j)] is not real")):
            plane_kraus(pair_rotations(1.0), s)

    @pytest.mark.parametrize(
        "s", [["a", "b"], [None, 1.0], [0.6, [0.8]]], ids=["strings", "none", "ragged"]
    )
    def test_plane_vector_of_other_than_numbers_is_refused(self, s):
        # a None is not a nan: [nan, 1.0] is two numbers, refused as NotNormalized
        with pytest.raises(DimensionMismatch, match="^plane vector is not one array of numbers$"):
            plane_kraus(pair_rotations(1.0), s)

    @pytest.mark.parametrize(
        "ops",
        [
            pytest.param([rotation_y(0.1), np.eye(3)], id="ragged"),
            pytest.param([[["a", "b"], ["c", "d"]]] * 2, id="strings"),
            pytest.param(np.full((2, 2, 2), None), id="objects"),
        ],
    )
    def test_stack_of_other_than_numbers_is_refused(self, ops):
        s = uniform_plane_vector(SearchInstance(n=16, w=0, chi=0.0))
        with pytest.raises(DimensionMismatch, match="^rotation pair is not one array of numbers$"):
            plane_kraus(ops, s)
        with pytest.raises(DimensionMismatch, match="^operator stack is not one array of numbers$"):
            bloch_image(ops)

    def test_list_of_two_operators_is_a_stack(self):
        s = uniform_plane_vector(SearchInstance(n=16, w=0, chi=1.0))
        k = plane_kraus(pair_rotations(1.0), s)
        assert bloch_image([k[0], k[1]]).tobytes() == bloch_image(k).tobytes()

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


    def test_complex_mixture_matches_the_density_iteration(self):
        # [P, P]: the real part alone would give p_2 = 0.7956 and p_5 = 0.4500
        # at n = 16, where the 2x2 density iteration gives 0.8704 and 0.1653
        inst = SearchInstance(n=16, w=0, chi=0.0)
        s = uniform_plane_vector(inst)
        pair = [PHASE, PHASE]
        step = bloch_image(plane_kraus(pair, s))
        assert step.tobytes() == bloch_image_via_channel(pair, s).tobytes()
        plane = plane_report(inst, step, 30).p_success
        assert abs(plane[2] - 0.8704) <= 1e-4 and abs(plane[5] - 0.1653) <= 1e-4
        rho = iterate(pair_channel(pair, s), np.outer(s, s).astype(complex), 30)
        assert np.max(np.abs(plane - rho[:, 0, 0].real)) <= PLANE_DENSE_ATOL

    @pytest.mark.parametrize("n", [2, 16, 64, 2**20])
    def test_complex_operators_with_a_real_mixture_match_the_density_iteration(self, n):
        # [P, conj(P)] commutes with complex conjugation, so y is never reached
        inst = SearchInstance(n=n, w=0, chi=0.0)
        s = uniform_plane_vector(inst)
        pair = [PHASE, PHASE.conj()]
        step = bloch_image(plane_kraus(pair, s))
        assert step.tobytes() == bloch_image_via_channel(pair, s).tobytes()
        assert step[1, 0] == 0.0 and step[1, 2] == 0.0
        rho = iterate(pair_channel(pair, s), np.outer(s, s).astype(complex), 30)
        plane = plane_report(inst, step, 30).p_success
        assert np.max(np.abs(plane - rho[:, 0, 0].real)) <= PLANE_DENSE_ATOL

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["phases", "su2"]),
        angles=st.tuples(*[st.tuples(*[st.floats(-10.0, 10.0)] * 3)] * 2),
        n=st.sampled_from([2, 3, 64, 2**20, 2**40, 10**300]),
    )
    def test_any_complex_pair_bits_equal_the_channel_construction(self, kind, angles, n):
        pair = complex_pair(kind, angles)
        s = uniform_plane_vector(SearchInstance(n=n, w=0, chi=0.0))
        got = bloch_image(plane_kraus(pair, s))
        assert got.tobytes() == bloch_image_via_channel(pair, s).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["phases", "su2"]),
        angles=st.tuples(*[st.tuples(*[st.floats(-10.0, 10.0)] * 3)] * 2),
        n=st.integers(2, 64),
        w=st.integers(0, 63),
        m=st.integers(1, 30),
    )
    def test_any_complex_pair_matches_the_dense_iteration(self, kind, angles, n, w, m):
        # the 3x3 step of a complete complex pair, iterated from |s>, against
        # the dense n x n channel of the same pair
        inst = SearchInstance(n=n, w=w % n, chi=0.0)
        pair = complex_pair(kind, angles)
        step = bloch_image(plane_kraus(pair, uniform_plane_vector(inst)))
        plane = plane_report(inst, step, m).p_success
        dense = KrausChannel(search_operators_per_operator(inst, pair), np.array([0.5, 0.5]))
        dense_p = iterate(dense, uniform_state(inst), m)[:, inst.w, inst.w].real
        assert np.max(np.abs(plane - dense_p)) <= PLANE_DENSE_ATOL

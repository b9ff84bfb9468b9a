import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisy_grover.analysis import closed_form_fidelities, plane_report, trajectory_report
from noisy_grover.noise import CHI_STAR_MAX_INDEX, chi_star, psi_zero_scan, scalar_profile
from noisy_grover.search import SearchInstance, bloch_map
from noisy_grover.tolerances import CHI_MAX, M_MAX
from noisy_grover.verify import ideal_grover_probability, run_verification

from conftest import CHI_STAR_1, PSI_AT_2

# frozen from a 30-digit evaluation of the defining formulas
MU_AT_2 = 1.2715542753135176
DELTA_AT_2 = 0.7514899067581920
CHI_STAR_2 = 12.4678093230991225
DELTA_AT_0 = 0.9003163161571061


def psi_denominator(chi):
    """cos^2 mu + (chi delta/2)^2, the sum of the squared atan2 arguments of psi."""
    prof = scalar_profile(chi)
    return math.cos(prof.mu) ** 2 + (chi / 2.0 * prof.delta) ** 2


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

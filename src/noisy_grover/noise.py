"""The chi-parametrized noise model.

A pi/4 rotation of the search qubit is corrupted by a two-level
environment coupled with strength chi >= 0 through
H = (pi/4) sigma_y (x) 1 + (chi/2)(1 - sigma_z) (x) sigma_y.
This module provides the scalar functions mu, delta, psi that
parametrize the resulting two-operator Kraus channel, the
nearest-unitary preconditioning rotations, and the magic strengths at
which the preconditioned channel becomes unitary.  The Kraus channels
built from them (both constructions, the preconditioned pair and its
polar oracle) live in channels, which imports this module; the plane
path reads only these scalars and rotations.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tolerances import CHI_MAX

__all__ = [
    "rotation_y",
    "ScalarProfile",
    "scalar_profile",
    "pair_rotations",
    "CHI_STAR_MAX_INDEX",
    "chi_star",
    "psi_zero_scan",
]


def _require_integer(name: str, value) -> int:
    """value as an int, or ValueError naming it unless it is a non-bool Integral."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _describe_integer(value: int) -> str:
    """value in decimal, or its size in bits once it is wider than 64 bits."""
    if value.bit_length() <= 64:
        return str(value)
    sign = "a negative" if value < 0 else "an"
    return f"{sign} integer of {value.bit_length()} bits"


def _require_count(name: str, value, minimum: int, maximum: int | None = None) -> int:
    """value as an int, or ValueError naming it unless it is an integer >= minimum.

    A maximum other than None is a ceiling, checked the same way.  A value
    or bound wider than 64 bits is named by its size, not printed in full.
    """
    value = _require_integer(name, value)
    shown = _describe_integer(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {_describe_integer(minimum)}, got {shown}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {_describe_integer(maximum)}, got {shown}")
    return value


def _require_nonnegative(chi: float) -> float:
    """chi as a float, or ValueError unless it is finite and in [0, CHI_MAX].

    -0.0 comes back as +0.0 (chi + 0.0), so no output prints chi as -0.
    """
    chi = float(chi)
    if chi < 0.0 or not math.isfinite(chi):
        raise ValueError(f"noise strength chi must be finite and >= 0, got {chi}")
    if chi > CHI_MAX:
        raise ValueError(f"noise strength chi must be <= {CHI_MAX:.17g}, got {chi}")
    return chi + 0.0


def rotation_y(angle: float) -> np.ndarray:
    """exp(i * angle * sigma_y) in closed form."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


@dataclass(frozen=True)
class ScalarProfile:
    """The three scalar functions of chi that shape the noise channel.

    mu = sqrt(chi^2/4 + pi^2/16)   (always >= pi/4)
    delta = sin(mu) / mu
    psi in [0, pi/2] solving [cos^2 mu + (chi^2/4) delta^2] cos^2 psi = cos^2 mu
    """

    chi: float
    mu: float
    delta: float
    psi: float


def scalar_profile(chi: float) -> ScalarProfile:
    """Evaluate mu, delta and the preconditioning angle psi at chi.

    psi is taken on the principal non-negative branch [0, pi/2], computed
    as atan2(|chi*delta/2|, |cos mu|) which satisfies the defining
    relation exactly and degrades gracefully near the magic strengths
    where delta crosses zero.  The two atan2 arguments never vanish
    together: (chi/2)^2 = mu^2 - pi^2/16 gives
    cos^2 mu + (chi delta/2)^2 = 1 - (pi^2/16)(sin mu/mu)^2 >= 1/2.
    """
    chi = _require_nonnegative(chi)
    mu = math.hypot(chi / 2.0, math.pi / 4.0)
    delta = math.sin(mu) / mu
    psi = math.atan2(abs(chi / 2.0 * delta), abs(math.cos(mu)))
    return ScalarProfile(chi=chi, mu=mu, delta=delta, psi=psi)


def pair_rotations(chi: float) -> np.ndarray:
    """The two preconditioning rotations as one (2, 2, 2) complex array.

    V0 = exp(i (psi - chi/2) sigma_y) and V1 = exp(-i chi/2 sigma_y), the
    rotation_y of each angle stacked; the one home of both angles.
    """
    prof = scalar_profile(chi)
    return np.array([rotation_y(prof.psi - prof.chi / 2.0), rotation_y(-prof.chi / 2.0)])


# The last index whose chi_star is at most CHI_MAX (4503599627370493.5 there).
CHI_STAR_MAX_INDEX = 716770142402832


def chi_star(n: int) -> float:
    """The n-th magic noise strength pi * sqrt(4 n^2 - 1/4), n >= 1.

    At these values mu = n*pi exactly, delta = 0, and psi = 0, so the
    preconditioned search channel collapses to a single unitary.  An index
    past CHI_STAR_MAX_INDEX, whose strength exceeds CHI_MAX, is refused.
    """
    n = _require_count("index", n, 1, CHI_STAR_MAX_INDEX)
    return math.pi * math.sqrt(4.0 * n * n - 0.25)


def psi_zero_scan() -> np.ndarray:
    """Locate zeros of psi(chi) on a grid, independently of chi_star.

    Returns the points of [0, 13], in steps of 1e-3, where
    scalar_profile(chi).psi is a local minimum below 1e-2: 0, chi_1 and
    chi_2, each to within a step.  The root-finding oracle of chi_star.
    """
    chi_max, step = 13.0, 1e-3
    grid = np.arange(0.0, chi_max + step / 2.0, step)
    psi = np.array([scalar_profile(chi).psi for chi in grid.tolist()])
    padded = np.concatenate(([np.inf], psi, [np.inf]))
    is_min = (padded[1:-1] < padded[:-2]) & (padded[1:-1] <= padded[2:])
    return grid[is_min & (psi < 1e-2)]

"""The chi-parametrized noise model.

A pi/4 rotation of the search qubit is corrupted by a two-level
environment coupled with strength chi >= 0 through
H = (pi/4) sigma_y (x) 1 + (chi/2)(1 - sigma_z) (x) sigma_y.
This module provides two independent constructions of the resulting
two-operator Kraus channel (a closed form, and extraction from the
exponentiated Hamiltonian), the scalar functions mu, delta, psi that
parametrize them, the nearest-unitary preconditioning pair, and the
magic strengths at which the preconditioned channel becomes unitary.

The two constructions disagree as maps for every chi (most visibly at
chi = 0, where the closed form gives the identity channel while the
Hamiltonian gives the pi/4 rotation).  Both are kept exactly as
defined; nothing is silently corrected.  channel_choi_distance quantifies the gap and the
verification layer records it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel, matexp_i_hermitian, polar_unitary_factor
from .tolerances import CHI_MAX

__all__ = [
    "PAULI_Y",
    "PAULI_Z",
    "rotation_y",
    "ScalarProfile",
    "scalar_profile",
    "closed_form_kraus",
    "hamiltonian_kraus",
    "pair_rotations",
    "nearest_unitary_pair",
    "nearest_unitary_oracle",
    "CHI_STAR_MAX_INDEX",
    "chi_star",
    "psi_zero_scan",
]

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


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


def closed_form_kraus(chi: float) -> KrausChannel:
    """The closed-form Kraus pair:

    R0 = (cos(mu) 1 + (i chi/2) delta sigma_y) exp(-i chi/2 sigma_y)
    R1 = (pi/4) delta exp(-i chi/2 sigma_y)

    Completeness follows from cos^2(mu) + mu^2 delta^2 = 1.  Note this
    family reduces to the identity channel at chi = 0, not to the pi/4
    rotation that hamiltonian_kraus produces there.
    """
    prof = scalar_profile(chi)
    half_turn = rotation_y(-prof.chi / 2.0)
    r0 = (math.cos(prof.mu) * _ID2 + 0.5j * prof.chi * prof.delta * PAULI_Y) @ half_turn
    r1 = (math.pi / 4.0) * prof.delta * half_turn
    return KrausChannel((r0, r1))


def hamiltonian_kraus(chi: float) -> KrausChannel:
    """Kraus pair extracted from the coupled-system evolution operator.

    Builds the 4x4 generator on system (x) environment, exponentiates,
    and reads off R_i = <i_env| U |0_env>.  Unitarity of U guarantees
    completeness, so this construction is the ground-truth channel for
    every chi.  The system is the left Kronecker factor and the
    environment the right one, so U[2a + i, 2b + j] = <a i| U |b j> and
    R_i is the slice u[i::2, 0::2].
    """
    chi = _require_nonnegative(chi)
    h = math.pi / 4.0 * np.kron(PAULI_Y, _ID2) + chi / 2.0 * np.kron(
        _ID2 - PAULI_Z, PAULI_Y
    )
    u = matexp_i_hermitian(h)
    return KrausChannel((u[0::2, 0::2], u[1::2, 0::2]))


def pair_rotations(chi: float) -> np.ndarray:
    """The two preconditioning rotations as one (2, 2, 2) complex array.

    V0 = exp(i (psi - chi/2) sigma_y) and V1 = exp(-i chi/2 sigma_y), the
    rotation_y of each angle stacked; the one home of both angles.
    """
    prof = scalar_profile(chi)
    return np.array([rotation_y(prof.psi - prof.chi / 2.0), rotation_y(-prof.chi / 2.0)])


def nearest_unitary_pair(chi: float) -> KrausChannel:
    """The preconditioned channel: pair_rotations(chi), each weighted 1/2.

    At chi = 0 and at the magic strengths psi = 0, the two rotations
    coincide and the channel is unitary.
    """
    return KrausChannel(pair_rotations(chi), np.array([0.5, 0.5]))


def nearest_unitary_oracle(chi: float) -> KrausChannel:
    """Polar factors of the closed-form Kraus pair, equal weights 1/2.

    This is the verdict procedure for the preconditioning step: replacing
    each generator by its Frobenius-nearest unitary.  Raises
    DegeneratePolar when an operator is singular (R1 vanishes at the
    magic strengths), in which case the nearest unitary is undefined.
    Compare against nearest_unitary_pair per operator, optimally over a
    global phase; residual branch disagreements are findings, not bugs.
    """
    factors = [polar_unitary_factor(k) for k in closed_form_kraus(chi).operators]
    return KrausChannel(factors, np.array([0.5, 0.5]))


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

    The grid spans [0, 13] in steps of 1e-3, and psi at each point is
    scalar_profile(chi).psi, the value every output uses.  Returns grid
    points that are local minima of psi with value below 1e-2: 0, chi_1
    and chi_2, each to within a step.  Serves as the root-finding oracle
    that checks scalar_profile against chi_star at the magic strengths.
    """
    chi_max, step = 13.0, 1e-3
    grid = np.arange(0.0, chi_max + step / 2.0, step)
    psi = np.array([scalar_profile(chi).psi for chi in grid.tolist()])
    padded = np.concatenate(([np.inf], psi, [np.inf]))
    is_min = (padded[1:-1] < padded[:-2]) & (padded[1:-1] <= padded[2:])
    return grid[is_min & (psi < 1e-2)]

"""The N-item search: reflections, plane embedding, the mixed channel.

One iteration of the noisy search is the channel
t(rho) = 1/2 sum_i (V~_i I_s V~_i^dag I_w) rho (...)^dag, where I_s and
I_w reflect about the uniform state and the target, and V~_i embeds the
two preconditioning rotations into the plane spanned by the target |w>
and the unit component |r> of |s> orthogonal to it.  The embedding acts
as the 2x2 rotation on the ordered basis {|w>, |r>} and as the identity
on the orthogonal complement; with it, the chi = 0 limit reproduces the
textbook two-reflection iteration exactly.

Starting from |s>, the state never leaves that plane, so plane_channel
builds t as a 2x2 channel on {|w>, |r>}, and bloch_map as the real 2x2
matrix it applies to the Bloch vector (x, z); neither cost depends on n.
build_search_channel assembles the same map densely in n dimensions and
is kept, with iterate, as the independent oracle for tests and verification.

Modelling assumption: embed_plane_rotation acts on span{|w>, |r>}, so it
needs w, and every step carries target information beyond its one I_w
query.  At chi_1 and m = 8, p_success is 0.9982 at n = 2^20 and 0.9994 at
n = 2^40, while no 8-query algorithm exceeds
ideal_grover_probability(2^40, 8) = 2.6e-10 (Bennett, Bernstein, Brassard
& Vazirani 1997; Zalka 1999).  The model is the paper's; it is not an
algorithm in the query model.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .errors import (
    DegeneratePlane,
    DimensionMismatch,
    InvalidDensityMatrix,
    NotNormalized,
)
from .linalg import as_complex_matrix, hermiticity_defect, unitarity_defect
from .noise import _require_nonnegative, nearest_unitary_pair
from .tolerances import (
    HERMITICITY_ATOL,
    POSITIVITY_ATOL,
    TRACE_ATOL,
    UNITARITY_ATOL,
)

__all__ = [
    "SearchInstance",
    "uniform_state",
    "target_state",
    "reflection",
    "plane_basis",
    "embed_plane_rotation",
    "uniform_plane_vector",
    "plane_channel",
    "bloch_map",
    "build_search_channel",
    "iterate",
    "success_probability",
    "ideal_grover_probability",
    "check_density_matrix",
]


@dataclass(frozen=True)
class SearchInstance:
    """Database size, target index, and environment coupling strength.

    n and w must be integers (stored as int, never bool), with 2 <= n,
    n convertible to float, and 0 <= w < n; chi is stored as a float and
    must be finite and in [0, CHI_MAX] (noise._require_nonnegative).
    Anything else raises ValueError.
    """

    n: int
    w: int
    chi: float

    def __post_init__(self):
        for name in ("n", "w"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        try:
            float(self.n)
        except OverflowError:
            raise ValueError(
                f"database size of {self.n.bit_length()} bits does not fit a float"
            ) from None
        if self.n < 2:
            raise ValueError(f"database size must be >= 2, got {self.n}")
        if not 0 <= self.w < self.n:
            raise ValueError(f"target index {self.w} out of range [0, {self.n})")
        object.__setattr__(self, "chi", _require_nonnegative(self.chi))


def uniform_state(n: int) -> np.ndarray:
    """|s><s| for the uniform superposition; every entry is 1/n."""
    if n < 2:
        raise ValueError(f"database size must be >= 2, got {n}")
    return np.full((n, n), 1.0 / n, dtype=complex)


def target_state(n: int, w: int) -> np.ndarray:
    """The projector |w><w|."""
    rho = np.zeros((n, n), dtype=complex)
    rho[w, w] = 1.0
    return rho


def reflection(v) -> np.ndarray:
    """1 - 2|v><v| for a unit vector v: Hermitian, unitary, involutory."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > UNITARITY_ATOL:
        raise NotNormalized(f"vector norm {norm} is not 1 within {UNITARITY_ATOL:.1e}")
    return np.eye(v.size, dtype=complex) - 2.0 * np.outer(v, v.conj())


def plane_basis(inst: SearchInstance) -> np.ndarray:
    """Columns {|w>, |r>}: the target and the normalized rest of |s>.

    Returns an (n, 2) matrix with orthonormal real columns spanning the
    invariant search plane.
    """
    basis = np.zeros((inst.n, 2), dtype=complex)
    basis[inst.w, 0] = 1.0
    rest = np.full(inst.n, 1.0 / np.sqrt(inst.n - 1.0))
    rest[inst.w] = 0.0
    basis[:, 1] = rest
    return basis


def embed_plane_rotation(v2, inst: SearchInstance) -> np.ndarray:
    """Lift a 2x2 unitary to n dimensions on the ordered basis {|w>, |r>}.

    Identity on the orthogonal complement of the search plane.
    """
    v2 = as_complex_matrix(v2)
    if v2.shape != (2, 2):
        raise DimensionMismatch(f"expected a 2x2 matrix, got {v2.shape}")
    if unitarity_defect(v2) > UNITARITY_ATOL:
        raise DimensionMismatch("plane rotation must be unitary")
    p = plane_basis(inst)
    return np.eye(inst.n, dtype=complex) + p @ (v2 - np.eye(2)) @ p.conj().T


def uniform_plane_vector(n: int) -> np.ndarray:
    """|s> on the plane basis {|w>, |r>}: (1/sqrt n, sqrt((n-1)/n))."""
    if n < 2:
        raise DegeneratePlane("search plane needs n >= 2")
    return np.array([1.0 / math.sqrt(n), math.sqrt((n - 1) / n)])


def plane_channel(inst: SearchInstance) -> KrausChannel:
    """t restricted to the search plane: 2x2 operators V_i I_s V_i^dag I_w.

    On the basis {|w>, |r>} the rotations V_i act unembedded, I_s reflects
    about uniform_plane_vector(n) and I_w = diag(-1, 1); weights are 1/2.
    Iterated from |s><s| it gives the plane block of t^m(|s><s|), whose
    entries outside the plane are exact zeros, at any n.
    """
    refl_s = reflection(uniform_plane_vector(inst.n))
    refl_w = np.diag([-1.0, 1.0])
    ops = tuple(
        v @ refl_s @ v.conj().T @ refl_w
        for v in nearest_unitary_pair(inst.chi).operators
    )
    return KrausChannel(ops, np.array([0.5, 0.5]))


def bloch_map(inst: SearchInstance) -> np.ndarray:
    """The real 2x2 matrix of plane_channel(inst) on Bloch vectors (x, z).

    Its columns are the Bloch vectors of t((1 + sigma_x)/2) and
    t((1 + sigma_z)/2), with no offset as t is unital; being a half-half
    mixture of two rotations of the Bloch disc, it is cos(2 psi) R(phi).
    """
    t = plane_channel(inst)
    out = np.array([t(np.full((2, 2), 0.5)), t(np.diag([1.0, 0.0]))]).real
    return np.array([2.0 * out[:, 0, 1], out[:, 0, 0] - out[:, 1, 1]])


def build_search_channel(inst: SearchInstance) -> KrausChannel:
    """Assemble t with Kraus operators V~_i I_s V~_i^dag I_w, weights 1/2.

    Each operator is unitary (a product of unitaries), so t is
    mixed-unitary and hence unital.
    """
    pair = nearest_unitary_pair(inst.chi)
    s = np.full(inst.n, 1.0 / np.sqrt(inst.n))
    refl_s = reflection(s)
    e_w = np.zeros(inst.n)
    e_w[inst.w] = 1.0
    refl_w = reflection(e_w)
    ops = []
    for v in pair.operators:
        lifted = embed_plane_rotation(v, inst)
        ops.append(lifted @ refl_s @ lifted.conj().T @ refl_w)
    return KrausChannel(tuple(ops), np.array([0.5, 0.5]))


def iterate(kraus: KrausChannel, rho: np.ndarray, m: int) -> np.ndarray:
    """Trajectory [rho, t(rho), ..., t^m(rho)] as an (m+1, n, n) array.

    Each step writes kraus(states[k]) into the array, which is allocated
    up front: an m too large for memory raises MemoryError before any step
    runs.
    """
    if m < 0:
        raise ValueError(f"iteration count must be >= 0, got {m}")
    rho = as_complex_matrix(rho)
    if rho.shape[0] != kraus.dim:
        raise DimensionMismatch(f"state dim {rho.shape[0]} != channel dim {kraus.dim}")
    states = np.empty((m + 1, *rho.shape), dtype=complex)
    states[0] = rho
    for step in range(m):
        states[step + 1] = kraus(states[step])
    return states


def success_probability(rho: np.ndarray, w: int) -> float:
    """<w| rho |w>: probability that a measurement yields the target."""
    rho = as_complex_matrix(rho)
    if not 0 <= w < rho.shape[0]:
        raise DimensionMismatch(f"target index {w} out of range for dim {rho.shape[0]}")
    return float(rho[w, w].real)


def ideal_grover_probability(n: int, m: int) -> float:
    """Noiseless reference: sin^2((2m+1) arcsin(1/sqrt(n))).

    Closed-form success probability of m two-reflection iterations from
    the uniform state; the chi = 0 channel must match this.
    """
    if n < 2:
        raise ValueError(f"database size must be >= 2, got {n}")
    if m < 0:
        raise ValueError(f"iteration count must be >= 0, got {m}")
    return float(np.sin((2 * m + 1) * np.arcsin(1.0 / np.sqrt(n))) ** 2)


def check_density_matrix(rho: np.ndarray) -> None:
    """Raise InvalidDensityMatrix unless rho is a valid state.

    Hermitian within HERMITICITY_ATOL, unit trace within TRACE_ATOL,
    eigenvalues >= -POSITIVITY_ATOL.
    """
    rho = as_complex_matrix(rho)
    defect = hermiticity_defect(rho)
    if defect > HERMITICITY_ATOL:
        raise InvalidDensityMatrix(f"state: hermiticity defect {defect:.3e}")
    trace_err = abs(np.trace(rho).real - 1.0)
    if trace_err > TRACE_ATOL:
        raise InvalidDensityMatrix(f"state: trace deviates by {trace_err:.3e}")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -POSITIVITY_ATOL:
        raise InvalidDensityMatrix(f"state: eigenvalue {smallest:.3e} below zero")

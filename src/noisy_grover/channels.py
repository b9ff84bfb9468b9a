"""Dense operators on small square matrices, and the Kraus channels built on them.

The matrix helpers are pure functions: a square finite complex coercion,
the hermiticity and unitarity defects, exp(i*h) for Hermitian h by
eigendecomposition, and the polar (nearest-unitary) factor by SVD.  A
channel is a weighted (k, d, d) operator stack acting as
rho -> sum_i w_i K_i rho K_i^dagger; explicit weights let mixed-unitary
channels hold honest unitaries, so unitarity stays assertable.  Each
channel operation is one stacked expression summed onto 0.0 in operator
order, with a per-operator loop's bits, except unitarity_defects: a
stacked norm would move bits that verify prints.

Channel assembly builds the noise model's channels from noise's scalars
and rotations and the Pauli matrices PAULI_Y and PAULI_Z: two independent
constructions of the two-operator Kraus channel (a closed form, and
extraction from the exponentiated Hamiltonian), the preconditioned pair,
and its polar oracle.  The two
constructions disagree as maps for every chi (most visibly at chi = 0,
where the closed form gives the identity channel while the Hamiltonian
gives the pi/4 rotation).  Both are kept exactly as defined;
channel_choi_distance quantifies the gap and verify records it.  verify
and the kraus command read this module; search and sweep never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegeneratePolar, DimensionMismatch, NotHermitian, NotTracePreserving
from .noise import (_require_array, _require_count, _require_nonnegative, pair_rotations,
                    rotation_y, scalar_profile)
from .tolerances import HERMITICITY_ATOL, TRACE_ATOL

__all__ = [
    "PAULI_Y",
    "PAULI_Z",
    "SINGULARITY_FLOOR",
    "as_complex_matrix",
    "hermiticity_defect",
    "require_hermitian",
    "matexp_i_hermitian",
    "polar_unitary_factor",
    "unitarity_defect",
    "KrausChannel",
    "closed_form_kraus",
    "hamiltonian_kraus",
    "nearest_unitary_pair",
    "nearest_unitary_oracle",
    "compose_channels",
    "choi_matrix",
    "choi_of_map",
    "channel_choi_distance",
]

# Smallest singular value below which a polar factor is considered
# undefined (the nearest unitary is non-unique at singularity).
SINGULARITY_FLOOR = 1e-10
_ID2 = np.eye(2, dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    a = _require_array(m, (None, None), "matrix").astype(complex, copy=False)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix contains non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of |m - m^dagger|."""
    return float(np.max(np.abs(m - m.conj().T)))


def require_hermitian(m: np.ndarray) -> None:
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_ATOL:
        raise NotHermitian(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_ATOL:.1e}"
        )


def matexp_i_hermitian(h) -> np.ndarray:
    """exp(i*h) by eigendecomposition, unitary to the eigensolver's accuracy.

    Raises NotHermitian when h deviates from self-adjointness beyond tolerance.
    """
    h = as_complex_matrix(h)
    require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def polar_unitary_factor(m) -> np.ndarray:
    """Unitary factor W of the polar decomposition m = P W, P >= 0 Hermitian.

    W is the Frobenius-nearest unitary to m.  A numerically singular m,
    whose nearest unitary is not unique, raises DegeneratePolar.
    """
    m = as_complex_matrix(m)
    u, s, vh = np.linalg.svd(m)
    if s[-1] <= SINGULARITY_FLOOR:
        raise DegeneratePolar(
            f"smallest singular value {s[-1]:.3e} at or below {SINGULARITY_FLOOR:.1e}"
        )
    return u @ vh


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of m^dag m - I."""
    d = m.shape[0]
    return float(np.linalg.norm(m.conj().T @ m - np.eye(d)))


def _weighted_sum(weights: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_i w_i stack_i onto 0.0 in order: the bits and signed zeros of a += loop."""
    return np.add.reduce(weights[:, None, None] * stack, axis=0, initial=0.0)


@dataclass(eq=False)
class KrausChannel:
    """Trace-preserving operator-sum map with explicit mixing weights.

    operators is stored as one complex (k, d, d) array and weights as k
    positive floats; anything else (ragged, empty, not square, not
    numbers, complex weights or not finite) raises DimensionMismatch.
    Completeness sum_i w_i K_i^dag K_i = I is enforced at construction
    within TRACE_ATOL (Frobenius norm); a nan defect fails it.
    """

    operators: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        ops = _require_array(self.operators, (None, None, None), "Kraus operator stack")
        ops = ops.astype(complex, copy=False)
        if ops.shape[1] != ops.shape[2] or ops.size == 0:
            raise DimensionMismatch(f"need a (k, d, d) operator stack, got {ops.shape}")
        if not np.all(np.isfinite(ops)):
            raise DimensionMismatch("Kraus operators contain non-finite entries")
        w = np.ones(len(ops)) if self.weights is None else self.weights
        w = _require_array(w, (None,), "Kraus weight vector")
        if w.shape != (len(ops),) or np.iscomplexobj(w) or not np.all(np.isfinite(w) & (w > 0)):
            raise DimensionMismatch("need one finite positive weight per operator")
        self.operators = ops
        self.weights = w.astype(float, copy=False)
        defect = self.completeness_defect()
        if not defect <= TRACE_ATOL:
            raise NotTracePreserving(
                f"completeness defect {defect:.3e} exceeds {TRACE_ATOL:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def completeness_defect(self) -> float:
        ops = self.operators
        acc = _weighted_sum(self.weights, ops.conj().transpose(0, 2, 1) @ ops)
        return float(np.linalg.norm(acc - np.eye(self.dim)))

    def unitarity_defects(self) -> np.ndarray:
        # per operator: a stacked norm moved bits in 69-129 of 300 families, printed by verify
        return np.array([unitarity_defect(k) for k in self.operators])

    def fractional_weights(self) -> np.ndarray:
        """Probability each operator carries: w_i tr(K_i^dag K_i) / dim."""
        return self.weights * (np.abs(self.operators) ** 2).sum(axis=(1, 2)) / self.dim

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel: sum_i w_i K_i rho K_i^dagger."""
        rho = as_complex_matrix(rho)
        if rho.shape[0] != self.dim:
            raise DimensionMismatch(f"state dim {rho.shape[0]} != channel dim {self.dim}")
        ops = self.operators
        return _weighted_sum(self.weights, ops @ rho @ ops.conj().transpose(0, 2, 1))


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


def nearest_unitary_pair(chi: float) -> KrausChannel:
    """The preconditioned channel: pair_rotations(chi), each weighted 1/2.

    At chi = 0 and at the magic strengths psi = 0, the two rotations
    coincide and the channel is unitary.
    """
    return KrausChannel(pair_rotations(chi), np.array([0.5, 0.5]))


def nearest_unitary_oracle(chi: float) -> KrausChannel:
    """Polar factors of the closed-form Kraus pair, equal weights 1/2.

    Each generator is replaced by its Frobenius-nearest unitary; an
    operator that is singular (R1 vanishes at the magic strengths) has no
    such unitary and raises DegeneratePolar.  Where it disagrees with
    nearest_unitary_pair over a global phase, that is a finding, not a bug.
    """
    factors = [polar_unitary_factor(k) for k in closed_form_kraus(chi).operators]
    return KrausChannel(factors, np.array([0.5, 0.5]))


def compose_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Channel applying b first, then a, with Kraus set {A_i B_j}, i-major.

    Weights multiply.  When both factors are mixed-unitary the products
    A_i B_j are unitary again, so the composition stays mixed-unitary.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dims differ: {a.dim} != {b.dim}")
    ops = a.operators[:, None] @ b.operators[None]
    return KrausChannel(
        ops.reshape(-1, a.dim, a.dim), np.outer(a.weights, b.weights).ravel()
    )


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Channel fingerprint sum_ij (channel applied to E_ij) kron E_ij.

    Two channels are equal as maps iff their Choi matrices are equal.  For
    a weighted Kraus family this is sum_i w_i |vec K_i><vec K_i|, row-major vec.
    """
    vecs = channel.operators.reshape(len(channel.operators), -1)
    return _weighted_sum(channel.weights, vecs[:, :, None] * vecs.conj()[:, None, :])


def choi_of_map(f: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Choi matrix of an arbitrary map given only as a function on states.

    Independent of choi_matrix's Kraus shortcut; used to cross-check it.
    A dim that is not an integer >= 1 raises ValueError.
    """
    dim = _require_count("dimension", dim, 1)
    c = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e_ij = np.zeros((dim, dim), dtype=complex)
            e_ij[i, j] = 1.0
            c += np.kron(f(e_ij), e_ij)
    return c


def channel_choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Frobenius distance of Choi matrices; zero iff equal as maps."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dims differ: {a.dim} != {b.dim}")
    return float(np.linalg.norm(choi_matrix(a) - choi_matrix(b)))

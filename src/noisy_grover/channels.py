"""Dense operators on small square matrices, and the Kraus channels built on them.

The matrix helpers are pure functions: a square finite complex coercion,
the hermiticity and unitarity defects, exp(i*h) for Hermitian h by
eigendecomposition, and the polar (nearest-unitary) factor by SVD.  A
channel is a weighted (k, d, d) operator stack acting as
rho -> sum_i w_i K_i rho K_i^dagger; explicit weights let mixed-unitary
channels hold honest unitaries, so unitarity stays assertable.  noise
reads the exponential, the polar factor and KrausChannel; search, verify
and cli read the channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegeneratePolar, DimensionMismatch, NotHermitian, NotTracePreserving
from .tolerances import HERMITICITY_ATOL, TRACE_ATOL

__all__ = [
    "SINGULARITY_FLOOR",
    "as_complex_matrix",
    "hermiticity_defect",
    "require_hermitian",
    "matexp_i_hermitian",
    "polar_unitary_factor",
    "unitarity_defect",
    "KrausChannel",
    "compose_channels",
    "choi_matrix",
    "choi_of_map",
    "channel_choi_distance",
]

# Smallest singular value below which a polar factor is considered
# undefined (the nearest unitary is non-unique at singularity).
SINGULARITY_FLOOR = 1e-10


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
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
    """exp(i*h) for Hermitian h, computed by eigendecomposition.

    The result is unitary to the accuracy of the eigensolver.  Raises
    NotHermitian when h deviates from self-adjointness beyond tolerance.
    """
    h = as_complex_matrix(h)
    require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def polar_unitary_factor(m) -> np.ndarray:
    """Unitary factor W of the polar decomposition m = P W, P >= 0 Hermitian.

    W is the Frobenius-nearest unitary to m.  A numerically singular input
    raises DegeneratePolar rather than silently completing, because the
    nearest unitary is then not unique.
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


@dataclass(eq=False)
class KrausChannel:
    """Trace-preserving operator-sum map with explicit mixing weights.

    operators is stored as one complex (k, d, d) array, and anything else
    (ragged, empty, not square or not finite) raises DimensionMismatch.
    Weights must be finite and positive.  Completeness
    sum_i w_i K_i^dag K_i = I is enforced at construction within
    TRACE_ATOL (Frobenius norm); a nan defect fails it.
    """

    operators: np.ndarray
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        try:
            ops = np.asarray(self.operators, dtype=complex)
        except ValueError:  # ragged: the operators differ in shape
            raise DimensionMismatch("Kraus operators must share one shape") from None
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.size == 0:
            raise DimensionMismatch(f"need a (k, d, d) operator stack, got {ops.shape}")
        if not np.all(np.isfinite(ops)):
            raise DimensionMismatch("Kraus operators contain non-finite entries")
        if self.weights is None:
            w = np.ones(len(ops))
        else:
            w = np.asarray(self.weights, dtype=float)
        if w.shape != (len(ops),) or not np.all(np.isfinite(w) & (w > 0)):
            raise DimensionMismatch("need one finite positive weight per operator")
        self.operators = ops
        self.weights = w
        defect = self.completeness_defect()
        if not defect <= TRACE_ATOL:
            raise NotTracePreserving(
                f"completeness defect {defect:.3e} exceeds {TRACE_ATOL:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def completeness_defect(self) -> float:
        acc = sum(w * (k.conj().T @ k) for w, k in zip(self.weights, self.operators))
        return float(np.linalg.norm(acc - np.eye(self.dim)))

    def unitarity_defects(self) -> np.ndarray:
        return np.array([unitarity_defect(k) for k in self.operators])

    def fractional_weights(self) -> np.ndarray:
        """Probability each operator carries: w_i tr(K_i^dag K_i) / dim."""
        norms = np.array(
            [np.sum(np.abs(k) ** 2).real for k in self.operators]
        )
        return self.weights * norms / self.dim

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel: sum_i w_i K_i rho K_i^dagger."""
        rho = as_complex_matrix(rho)
        if rho.shape[0] != self.dim:
            raise DimensionMismatch(f"state dim {rho.shape[0]} != channel dim {self.dim}")
        out = np.zeros_like(rho)
        for w, k in zip(self.weights, self.operators):
            out += w * (k @ rho @ k.conj().T)
        return out


def compose_channels(a: KrausChannel, b: KrausChannel) -> KrausChannel:
    """Channel applying b first, then a, with Kraus set {A_i B_j}, i-major.

    Weights multiply.  When both factors are mixed-unitary the products
    A_i B_j are unitary again, so the composition stays mixed-unitary;
    self-composition is the a = b case.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dims differ: {a.dim} != {b.dim}")
    ops = a.operators[:, None] @ b.operators[None]
    return KrausChannel(
        ops.reshape(-1, a.dim, a.dim), np.outer(a.weights, b.weights).ravel()
    )


def choi_matrix(channel: KrausChannel) -> np.ndarray:
    """Channel fingerprint sum_ij (channel applied to E_ij) kron E_ij.

    Two channels are equal as maps iff their Choi matrices are equal,
    which quotients out the non-uniqueness of Kraus representations.
    For a weighted Kraus family this reduces to
    sum_i w_i |vec K_i><vec K_i| with row-major vec.
    """
    d = channel.dim
    c = np.zeros((d * d, d * d), dtype=complex)
    for w, k in zip(channel.weights, channel.operators):
        v = k.reshape(d * d)
        c += w * np.outer(v, v.conj())
    return c


def choi_of_map(f: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Choi matrix of an arbitrary map given only as a function on states.

    Independent of choi_matrix's Kraus shortcut; used to cross-check it.
    """
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

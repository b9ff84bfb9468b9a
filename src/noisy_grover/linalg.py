"""Dense complex linear algebra on small square matrices.

Everything here is a pure function of ndarray inputs.  Matrix exponentials
go through Hermitian eigendecomposition (exact at these dimensions, no
scaling-and-squaring), polar factors through SVD at every size.
"""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePolar, DimensionMismatch, NotHermitian
from .tolerances import HERMITICITY_ATOL

__all__ = [
    "as_complex_matrix",
    "hermiticity_defect",
    "require_hermitian",
    "matexp_i_hermitian",
    "polar_unitary_factor",
    "unitarity_defect",
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

"""Kraus channels: the operator-sum carrier used by every other module.

A channel is a weighted family {(w_i, K_i)} acting as
rho -> sum_i w_i K_i rho K_i^dagger.  Weights are kept explicit so that
mixed-unitary channels can store honest unitaries with probabilities
instead of pre-scaled operators, which keeps unitarity assertable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, NotTracePreserving
from .linalg import as_complex_matrix, unitarity_defect
from .tolerances import TRACE_ATOL

__all__ = [
    "KrausChannel",
    "compose_channels",
    "choi_matrix",
    "choi_of_map",
    "channel_choi_distance",
]


@dataclass(eq=False)
class KrausChannel:
    """Trace-preserving operator-sum map with explicit mixing weights.

    Weights must be finite and positive.  Completeness
    sum_i w_i K_i^dag K_i = I is enforced at construction within
    TRACE_ATOL (Frobenius norm); a nan defect fails it.
    """

    operators: tuple
    weights: np.ndarray = field(default=None)

    def __post_init__(self):
        ops = tuple(as_complex_matrix(k) for k in self.operators)
        if not ops:
            raise DimensionMismatch("a channel needs at least one Kraus operator")
        dim = ops[0].shape[0]
        if any(k.shape[0] != dim for k in ops):
            raise DimensionMismatch("Kraus operators must share one dimension")
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
        return self.operators[0].shape[0]

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
    """Channel applying b first, then a, with Kraus set {A_i B_j}.

    Weights multiply.  When both factors are mixed-unitary the products
    A_i B_j are unitary again, so the composition stays mixed-unitary;
    self-composition is the a = b case.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dims differ: {a.dim} != {b.dim}")
    ops = []
    weights = []
    for wa, ka in zip(a.weights, a.operators):
        for wb, kb in zip(b.weights, b.operators):
            ops.append(ka @ kb)
            weights.append(wa * wb)
    return KrausChannel(tuple(ops), np.array(weights))


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
    basis_elem = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            basis_elem[:] = 0.0
            basis_elem[i, j] = 1.0
            out = f(basis_elem)
            e_ij = np.zeros((dim, dim), dtype=complex)
            e_ij[i, j] = 1.0
            c += np.kron(out, e_ij)
    return c


def channel_choi_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Frobenius distance of Choi matrices; zero iff equal as maps."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"channel dims differ: {a.dim} != {b.dim}")
    return float(np.linalg.norm(choi_matrix(a) - choi_matrix(b)))

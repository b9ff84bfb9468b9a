"""The N-item search: reflections, the plane channel, the dense oracle.

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
is kept as the independent oracle for tests and verification.

Modelling assumption: the rotations act on span{|w>, |r>}, so
build_search_channel's lift and plane_channel both need w, and every step
carries target information beyond its one I_w query.  At chi_1 and m = 8,
p_success is 0.9982 at n = 2^20 and 0.9994 at n = 2^40, where
ideal_grover_probability, the best any 8-query algorithm reaches, is
2.6e-10 (Bennett, Bernstein, Brassard & Vazirani 1997; Zalka 1999).  The
model is the paper's; it is not an algorithm in the query model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .errors import NotNormalized
from .noise import _require_count, _require_integer, _require_nonnegative
from .noise import nearest_unitary_pair
from .tolerances import UNITARITY_ATOL

__all__ = [
    "SearchInstance",
    "reflection",
    "uniform_plane_vector",
    "plane_channel",
    "bloch_map",
    "build_search_channel",
    "ideal_grover_probability",
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
            object.__setattr__(self, name, _require_integer(name, getattr(self, name)))
        try:
            float(self.n)
        except OverflowError:
            raise ValueError(
                f"database size n of {self.n.bit_length()} bits does not fit a float"
            ) from None
        if self.n < 2:
            raise ValueError(f"database size n must be >= 2, got {self.n}")
        if not 0 <= self.w < self.n:
            raise ValueError(
                f"target index w must be in [0, n) = [0, {self.n}), got {self.w}"
            )
        object.__setattr__(self, "chi", _require_nonnegative(self.chi))


def reflection(v) -> np.ndarray:
    """1 - 2|v><v| for a unit vector v: Hermitian, unitary, involutory.

    A vector with a nan entry has a nan norm, which fails the check.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= UNITARITY_ATOL:
        raise NotNormalized(f"vector norm {norm} is not 1 within {UNITARITY_ATOL:.1e}")
    return np.eye(v.size, dtype=complex) - 2.0 * np.outer(v, v.conj())


def uniform_plane_vector(inst: SearchInstance) -> np.ndarray:
    """|s> on the plane basis {|w>, |r>}: (1/sqrt n, sqrt((n-1)/n))."""
    return np.array([1.0 / math.sqrt(inst.n), math.sqrt((inst.n - 1) / inst.n)])


def plane_channel(inst: SearchInstance) -> KrausChannel:
    """t restricted to the search plane: 2x2 operators V_i I_s V_i^dag I_w.

    On the basis {|w>, |r>} the rotations V_i act unembedded, I_s reflects
    about uniform_plane_vector(inst) and I_w = diag(-1, 1); the weights are
    nearest_unitary_pair's 1/2.  Iterated from |s><s| it gives the plane
    block of t^m(|s><s|), whose entries outside the plane are exact zeros,
    at any n.
    """
    pair = nearest_unitary_pair(inst.chi)
    refl_s = reflection(uniform_plane_vector(inst))
    refl_w = np.diag([-1.0, 1.0])
    ops = tuple(v @ refl_s @ v.conj().T @ refl_w for v in pair.operators)
    return KrausChannel(ops, pair.weights)


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
    """Assemble t with Kraus operators V~_i I_s V~_i^dag I_w, the pair's weights.

    V~_i = 1 + P (V_i - 1) P^dag lifts each rotation of the pair, where
    P is the (n, 2) matrix of orthonormal columns {|w>, |r>}, the target
    and the normalized rest of |s>: V_i on the plane, the identity on its
    complement.  Each operator is unitary (a product of unitaries), so t
    is mixed-unitary and hence unital.
    """
    pair = nearest_unitary_pair(inst.chi)
    p = np.zeros((inst.n, 2), dtype=complex)
    p[inst.w, 0] = 1.0
    p[:, 1] = 1.0 / np.sqrt(inst.n - 1.0)
    p[inst.w, 1] = 0.0
    s = np.full(inst.n, 1.0 / np.sqrt(inst.n))
    refl_s = reflection(s)
    e_w = np.zeros(inst.n)
    e_w[inst.w] = 1.0
    refl_w = reflection(e_w)
    ops = []
    for v in pair.operators:
        lifted = np.eye(inst.n, dtype=complex) + p @ (v - np.eye(2)) @ p.conj().T
        ops.append(lifted @ refl_s @ lifted.conj().T @ refl_w)
    return KrausChannel(tuple(ops), pair.weights)


def ideal_grover_probability(inst: SearchInstance, m: int) -> float:
    """Noiseless reference: sin^2((2m+1) arcsin(1/sqrt(n))).

    Closed-form success probability of m two-reflection iterations from
    the uniform state; the chi = 0 channel must match this.
    """
    m = _require_count("iteration count m", m, 0)
    return float(np.sin((2 * m + 1) * np.arcsin(1.0 / np.sqrt(inst.n))) ** 2)

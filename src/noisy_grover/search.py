"""The N-item search: reflections, the plane channel, the dense oracle.

One iteration of the noisy search is the channel
t(rho) = 1/2 sum_i (V~_i I_s V~_i^dag I_w) rho (...)^dag, where I_s and
I_w reflect about the uniform state and the target, and V~_i embeds the
two preconditioning rotations into the plane spanned by the target |w>
and the unit component |r> of |s> orthogonal to it.  The embedding acts
as the 2x2 rotation on the ordered basis {|w>, |r>} and as the identity
on the orthogonal complement; with it, the chi = 0 limit reproduces the
textbook two-reflection iteration exactly.

Starting from |s>, the state never leaves that plane, so bloch_map
builds t's two 2x2 operators on {|w>, |r>} and returns the real 2x2
matrix t applies to the Bloch vector (x, z), in a few stacked numpy
products whose cost does not depend on n.  build_search_channel
assembles the same map densely in n dimensions and is kept as the
independent oracle for tests and verification.

Modelling assumption: the rotations act on span{|w>, |r>}, so
build_search_channel's lift and bloch_map both need w, and every step
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
from .errors import NotNormalized, NotTracePreserving
from .noise import _require_count, _require_nonnegative
from .noise import nearest_unitary_pair, pair_rotations
from .tolerances import M_MAX, TRACE_ATOL, UNITARITY_ATOL

__all__ = [
    "SearchInstance",
    "reflection",
    "uniform_plane_vector",
    "bloch_map",
    "build_search_channel",
    "ideal_grover_probability",
]


@dataclass(frozen=True)
class SearchInstance:
    """Database size, target index, and environment coupling strength.

    n and w pass noise._require_count (integers, stored as int, never
    bool), with 2 <= n, n convertible to float, and 0 <= w <= n - 1; chi
    is stored as a float and must be finite and in [0, CHI_MAX]
    (noise._require_nonnegative).  Anything else raises ValueError.
    """

    n: int
    w: int
    chi: float

    def __post_init__(self):
        n = _require_count("database size n", self.n, 2)
        try:
            float(n)
        except OverflowError:
            raise ValueError(
                f"database size n of {n.bit_length()} bits does not fit a float"
            ) from None
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "w", _require_count("target index w", self.w, 0, n - 1))
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


# I_w on {|w>, |r>}, and the probe states (1 + sigma_x)/2 and (1 + sigma_z)/2
_REFL_W = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_PROBES = np.array([[[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.0, 0.0]]], dtype=complex)


def bloch_map(inst: SearchInstance) -> np.ndarray:
    """The real 2x2 matrix t applies to plane Bloch vectors (x, z).

    On {|w>, |r>}, t(rho) = 1/2 sum_i K_i rho K_i^dag with
    K_i = V_i I_s V_i^dag I_w: the pair_rotations V_i act unembedded, I_s
    reflects about uniform_plane_vector(inst) and I_w = diag(-1, 1).  The
    columns are the Bloch vectors of t((1 + sigma_x)/2) and
    t((1 + sigma_z)/2), with no offset as t is unital; being a half-half
    mixture of two rotations of the Bloch disc, the matrix is
    cos(2 psi) R(phi).

    Both K_i, and t of both probes, come from stacked matmuls: each slice
    is the BLAS product of the same 2x2 operands that one operator at a
    time would multiply, so it carries the same bits, and the weighted
    images are summed onto zeros as KrausChannel does, which keeps signed
    zeros.  |s| must be 1 within UNITARITY_ATOL (NotNormalized), and the
    pair and the K_i must each be complete within TRACE_ATOL
    (NotTracePreserving); a nan fails every check.
    """
    v = pair_rotations(inst.chi)
    s0, s1 = uniform_plane_vector(inst).tolist()
    norm = math.hypot(s0, s1)
    if not abs(norm - 1.0) <= UNITARITY_ATOL:
        raise NotNormalized(f"vector norm {norm} is not 1 within {UNITARITY_ATOL:.1e}")
    # 1 - 2|s><s|, entry for entry reflection(s)
    refl_s = np.array(
        [
            [1.0 - 2.0 * (s0 * s0), -2.0 * (s0 * s1)],
            [-2.0 * (s1 * s0), 1.0 - 2.0 * (s1 * s1)],
        ],
        dtype=complex,
    )
    k = v @ refl_s @ v.conj().transpose(0, 2, 1) @ _REFL_W
    ops = np.concatenate((v, k))
    ops_dag = ops.conj().transpose(0, 2, 1)
    gram = ops_dag @ ops
    # sum_i 1/2 X_i^dag X_i - 1 for the pair X = V and for X = K
    defects = np.linalg.norm(0.5 * (gram[0::2] + gram[1::2]) - np.eye(2), axis=(1, 2))
    for defect in defects.tolist():
        if not defect <= TRACE_ATOL:
            raise NotTracePreserving(
                f"completeness defect {defect:.3e} exceeds {TRACE_ATOL:.1e}"
            )
    images = np.zeros((2, 2, 2), dtype=complex)
    for term in 0.5 * (k[:, None] @ _PROBES @ ops_dag[2:, None]):
        images += term
    out = images.real
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
    lifted = np.eye(inst.n, dtype=complex) + p @ (pair.operators - np.eye(2)) @ p.conj().T
    ops = lifted @ refl_s @ lifted.conj().transpose(0, 2, 1) @ refl_w
    return KrausChannel(ops, pair.weights)


def ideal_grover_probability(inst: SearchInstance, m: int) -> float:
    """Noiseless reference: sin^2((2m+1) arcsin(1/sqrt(n))).

    Closed-form success probability of m two-reflection iterations from
    the uniform state; the chi = 0 channel must match this.
    """
    m = _require_count("iteration count m", m, 0, M_MAX)
    return float(np.sin((2 * m + 1) * np.arcsin(1.0 / np.sqrt(float(inst.n)))) ** 2)

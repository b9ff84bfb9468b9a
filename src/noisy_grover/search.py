"""The N-item search on its plane: the instance and its 3x3 Bloch map.

One iteration of the noisy search is the channel
t(rho) = 1/2 sum_i K_i rho K_i^dag, K_i = V_i I_s V_i^dag I_w, where I_s
and I_w reflect about the uniform state |s> and the target |w>, and V_i
is the i-th preconditioning rotation on the plane of |w> and the unit
component |r> of |s> orthogonal to it.  From |s> the state never leaves
that plane.  plane_kraus builds the 2x2 K_i from its two arguments, the
pair V_i and the plane vector s, with I_w = diag(-1, 1) and the weights
1/2 fixed; bloch_image gives the half-half mixture of such a stack as the
real 3x3 matrix on the plane's Bloch vectors (x, y, z); bloch_map composes
them for an instance's pair and uniform vector, at a cost independent of n.
verify.build_search_channel assembles t densely in n dimensions, as the
independent oracle.

Modelling assumption: the rotations act on span{|w>, |r>}, so bloch_map
needs w, and every step carries target information beyond its one I_w
query.  At chi_1 and m = 8, p_success is 0.9982 at n = 2^20 and 0.9994
at n = 2^40, where verify.ideal_grover_probability, the best any 8-query
algorithm reaches, is 2.8e-4 and 2.6e-10 (Bennett, Bernstein, Brassard &
Vazirani 1997; Zalka 1999).  The model is the paper's, not an algorithm
in the query model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized, NotReal, NotTracePreserving
from .noise import _require_count, _require_nonnegative, pair_rotations
from .tolerances import TRACE_ATOL, UNITARITY_ATOL

__all__ = [
    "SearchInstance",
    "uniform_plane_vector",
    "plane_kraus",
    "bloch_image",
    "bloch_map",
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


def uniform_plane_vector(inst: SearchInstance) -> np.ndarray:
    """|s> on the plane basis {|w>, |r>}: (1/sqrt n, sqrt((n-1)/n))."""
    return np.array([1.0 / math.sqrt(inst.n), math.sqrt((inst.n - 1) / inst.n)])


# I_w on {|w>, |r>}, and the probe states (1 + sigma_j)/2 for j = x, y, z
_REFL_W = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
_PROBES = np.array(
    [[[0.5, 0.5], [0.5, 0.5]], [[0.5, -0.5j], [0.5j, 0.5]], [[1.0, 0.0], [0.0, 0.0]]]
)


def _require_array(x, shape: tuple, what: str) -> np.ndarray:
    """x as one numeric array of the given shape, with no cast.

    A ragged x, or one numpy holds as other than numbers (None, strings,
    objects), raises DimensionMismatch, and so does any other shape.
    """
    try:
        a = np.asarray(x)
    except ValueError:  # ragged: the entries differ in shape
        a = None
    if a is None or a.dtype.kind not in "biufc":
        raise DimensionMismatch(f"{what} is not one array of numbers")
    if a.shape != shape:
        raise DimensionMismatch(f"{what} has shape {a.shape}, not {shape}")
    return a


def _require_stack(ops, what: str) -> np.ndarray:
    """ops as one complex (2, 2, 2) stack, two 2x2 operators, or _require_array's error."""
    return _require_array(ops, (2, 2, 2), what).astype(complex, copy=False)


def plane_kraus(pair, s) -> np.ndarray:
    """The (2, 2, 2) stack K_i = V_i I_s V_i^dag I_w on {|w>, |r>}.

    pair is the two rotations V_i as one (2, 2, 2) stack (or a list of two
    2x2 matrices), and s the real plane vector I_s reflects about;
    I_w = diag(-1, 1) and the weights 1/2 are fixed.  Both K_i come from
    stacked matmuls: each slice is the BLAS product of the same 2x2
    operands that one operator at a time would multiply, so it carries the
    same bits.  A pair that is not one (2, 2, 2) stack of numbers, or an s
    that is not two numbers (ragged, None or strings included), raises
    DimensionMismatch; an s with a nonzero imaginary part raises NotReal,
    as 1 - 2 s s^T reflects about s only for real s.  |s| must be 1 within
    UNITARITY_ATOL (NotNormalized), and the pair and the K_i must each be
    complete within TRACE_ATOL (NotTracePreserving); a nan fails every
    check.
    """
    v = _require_stack(pair, "rotation pair")
    s = _require_array(s, (2,), "plane vector").astype(complex)
    if s.imag.any():
        raise NotReal(f"plane vector {s.tolist()} is not real")
    s0, s1 = s.real.tolist()
    norm = math.hypot(s0, s1)
    if not abs(norm - 1.0) <= UNITARITY_ATOL:
        raise NotNormalized(f"vector norm {norm} is not 1 within {UNITARITY_ATOL:.1e}")
    # 1 - 2|s><s|, entry for entry verify.reflection(s)
    refl_s = np.array(
        [
            [1.0 - 2.0 * (s0 * s0), -2.0 * (s0 * s1)],
            [-2.0 * (s1 * s0), 1.0 - 2.0 * (s1 * s1)],
        ],
        dtype=complex,
    )
    k = v @ refl_s @ v.conj().transpose(0, 2, 1) @ _REFL_W
    ops = np.concatenate((v, k))
    gram = ops.conj().transpose(0, 2, 1) @ ops
    # sum_i 1/2 X_i^dag X_i - 1 for the pair X = V and for X = K
    defects = np.linalg.norm(0.5 * (gram[0::2] + gram[1::2]) - np.eye(2), axis=(1, 2))
    for defect in defects.tolist():
        if not defect <= TRACE_ATOL:
            raise NotTracePreserving(
                f"completeness defect {defect:.3e} exceeds {TRACE_ATOL:.1e}"
            )
    return k


def bloch_image(k: np.ndarray) -> np.ndarray:
    """The real 3x3 matrix the half-half mixture of the stack k applies to (x, y, z).

    Its columns are the Bloch vectors (2 Re rho_01, -2 Im rho_01,
    Re(rho_00 - rho_11)) of t((1 + sigma_j)/2), j = x, y, z, for
    t(rho) = 1/2 sum_i K_i rho K_i^dag, with no offset, which holds when t
    is unital.  The operators, and so the mixture, may be complex.  k is
    taken as one complex (2, 2, 2) stack, a list of two 2x2 operators
    included; anything else (another shape, a ragged list, entries that
    are not numbers) raises DimensionMismatch.  The three probes pass
    through K P K^dag in one stacked product, and the two weighted images
    are summed onto 0.0 in operator order, as a Kraus channel sums its
    terms, which keeps signed zeros; real and imaginary parts add apart,
    so each part of the sum is the sum of the parts.
    """
    k = _require_stack(k, "operator stack")
    t = 0.5 * (k[:, None] @ _PROBES @ k.conj().transpose(0, 2, 1)[:, None])
    mixture = (0.0 + t[0]) + t[1]
    rho_01 = mixture[:, 0, 1]
    return np.array(
        [2.0 * rho_01.real, -2.0 * rho_01.imag, mixture[:, 0, 0].real - mixture[:, 1, 1].real]
    )


def bloch_map(inst: SearchInstance) -> np.ndarray:
    """The real 3x3 matrix t applies to plane Bloch vectors (x, y, z).

    The Bloch image of plane_kraus for the pair_rotations of inst.chi and
    I_s about uniform_plane_vector(inst).  The pair is real, so the y row
    is exact zeros off its diagonal and the y column within rounding; the
    (x, z) block, a half-half mixture of two rotations of the Bloch disc,
    is cos(2 psi) R(phi) in exact arithmetic; see ROADMAP item 13.
    """
    return bloch_image(plane_kraus(pair_rotations(inst.chi), uniform_plane_vector(inst)))

"""Measurable quantities along a search trajectory.

Plane-restricted Bloch vectors, the angular fidelity, the closed-form
fidelity hypotheses, von Neumann entropy, majorization flags, the
columnar trajectory report, whose columns carry the success probability
and its half-normalized overlap f_paper, and the gate on such a report
that search, sweep and verify share (trajectory_violations).
Closed-form values are carried side by side with simulated ones for
comparison and are never used as the reference: the simulator is the
oracle, the formulas are hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    DimensionMismatch,
    OffPlaneSupport,
    ZeroBlochVector,
)
from .linalg import as_complex_matrix, eigvals_hermitian
from .noise import scalar_profile
from .search import SearchInstance, bloch_map, plane_basis, uniform_plane_vector
from .tolerances import (
    BLOCH_ZERO_ATOL,
    EIGENVALUE_FLOOR,
    ENTROPY_DROP_ATOL,
    MAJORIZATION_ATOL,
    PLANE_RESIDUAL_ATOL,
    PLANE_TRACE_ATOL,
    POSITIVITY_ATOL,
    TRACE_ATOL,
)

__all__ = [
    "BlochVector",
    "FidelityPoint",
    "TrajectoryReport",
    "bloch_from_density",
    "angular_fidelity",
    "closed_form_fidelities",
    "bloch_contraction_factor",
    "entropy",
    "entropy_from_spectrum",
    "trajectory_report",
    "trajectory_violations",
    "high_precision_bloch_norms",
]

@dataclass(frozen=True)
class BlochVector:
    """Plane coordinates (x, z) of a state; the target sits at (0, 1).

    The dynamics is real, so the y component is identically zero and
    omitted.
    """

    x: float
    z: float

    @property
    def norm(self) -> float:
        return math.hypot(self.x, self.z)


@dataclass(frozen=True)
class FidelityPoint:
    """Per-iteration merit figures read off the simulated state."""

    m: int
    f_paper: float
    p_success: float
    cos_gamma: float
    bloch_norm: float


@dataclass(eq=False)
class TrajectoryReport:
    """Everything measured along one trajectory, one column per quantity.

    Row m of every array is iteration m, m = 0..m_max.  bloch_x, bloch_z
    and bloch_norm are the plane Bloch vector (BlochVector); p_success is
    tr(rho |w><w|) = (1 + bloch_z)/2 and f_paper half of it; cos_gamma is
    bloch_z / bloch_norm, nan where the norm is at most BLOCH_ZERO_ATOL.
    f_closed and cos_gamma_closed are the closed-form hypotheses.  Row m of
    spectra holds the two eigenvalues of the state's plane block,
    (1 + bloch_norm)/2 and (1 - bloch_norm)/2; the other n - 2 eigenvalues
    are exact zeros and are not stored, as they change neither entropy nor
    majorization.  The majorization flags are True at m = 0.
    """

    instance: SearchInstance
    p_success: np.ndarray
    f_paper: np.ndarray
    bloch_x: np.ndarray
    bloch_z: np.ndarray
    bloch_norm: np.ndarray
    cos_gamma: np.ndarray
    f_closed: np.ndarray
    cos_gamma_closed: np.ndarray
    entropies: np.ndarray
    spectra: np.ndarray
    majorized_by_prev: np.ndarray
    majorized_by_init: np.ndarray

    @property
    def points(self) -> list:
        """The readout columns as one FidelityPoint per iteration.

        Built from the columns on every access; index the columns directly
        in loops.
        """
        return [
            FidelityPoint(*values)
            for values in zip(
                range(len(self.p_success)),
                self.f_paper.tolist(),
                self.p_success.tolist(),
                self.cos_gamma.tolist(),
                self.bloch_norm.tolist(),
            )
        ]


def _plane_block(rho: np.ndarray, inst: SearchInstance) -> np.ndarray:
    """2x2 restriction of rho to the search plane, with support checks."""
    rho = as_complex_matrix(rho)
    if rho.shape[0] != inst.n:
        raise DimensionMismatch(f"state dim {rho.shape[0]} != instance n {inst.n}")
    p = plane_basis(inst)
    block = p.conj().T @ rho @ p
    plane_trace = float(np.trace(block).real)
    residual = float(np.linalg.norm(rho - p @ block @ p.conj().T))
    if plane_trace < 1.0 - PLANE_TRACE_ATOL or residual > PLANE_RESIDUAL_ATOL:
        raise OffPlaneSupport(
            f"plane trace {plane_trace:.9f}, off-plane residual {residual:.3e}"
        )
    return block


def _bloch_of_block(block: np.ndarray) -> BlochVector:
    """Bloch vector of a 2x2 plane block, renormalized to unit trace."""
    b = block / (block[0, 0].real + block[1, 1].real)
    return BlochVector(x=float(2.0 * b[0, 1].real), z=float((b[0, 0] - b[1, 1]).real))


def bloch_from_density(rho: np.ndarray, inst: SearchInstance) -> BlochVector:
    """Bloch vector of the trace-renormalized plane block of rho.

    Raises OffPlaneSupport when the state is not (numerically) confined
    to the search plane.
    """
    return _bloch_of_block(_plane_block(rho, inst))


def angular_fidelity(rho: np.ndarray, inst: SearchInstance) -> float:
    """Cosine of the plane angle between rho and the target at (0, 1).

    Equals z/||(x, z)||.  Undefined at the Bloch center, where
    ZeroBlochVector is raised.
    """
    bloch = bloch_from_density(rho, inst)
    if bloch.norm <= BLOCH_ZERO_ATOL:
        raise ZeroBlochVector(f"Bloch norm {bloch.norm:.3e} has no direction")
    return bloch.z / bloch.norm


def _libm(fn, *args) -> np.ndarray:
    """fn mapped over Python floats, as a float array.

    np.power, an array's ** 2 and np.hypot can differ from libm's pow and
    hypot in the last bit; the columns must carry the scalar formulas' bits.
    """
    return np.fromiter(map(fn, *args), float)


def closed_form_fidelities(chi: float, m_max: int, n: int) -> tuple:
    """The closed-form (f, cos_gamma) hypothesis for m = 0..m_max:

    f = (1/4)[1 + cos^m(2 psi) cos(phi)], cos_gamma = cos^2(phi/2), with
    phi/2 = m psi - m theta + alpha, alpha = arccos(1/sqrt(n)) and
    theta = pi + chi + arcsin(2 sqrt(n-1)/n) on the principal arcsin
    branch.  The paper fixes psi only through cos^2(psi); psi is
    scalar_profile's principal branch [0, pi/2], the one every output uses.

    Returned for side-by-side comparison with simulated values, never
    asserted against them; note f is bounded by 1/2 under this
    normalization.  Two arrays of m_max + 1 entries, each entry carrying
    the bits of the formulas evaluated in Python floats.
    """
    if m_max < 0:
        raise ValueError(f"iteration count must be >= 0, got {m_max}")
    psi = scalar_profile(chi).psi
    alpha = math.acos(1.0 / math.sqrt(n))
    theta = math.pi + chi + math.asin(2.0 * math.sqrt(n - 1.0) / n)
    m = np.arange(m_max + 1)
    phi_half = m * psi - m * theta + alpha
    damping = _libm(pow, repeat(math.cos(2.0 * psi)), range(m_max + 1))
    f = 0.25 * (1.0 + damping * _libm(math.cos, (2.0 * phi_half).tolist()))
    cos_gamma = _libm(pow, map(math.cos, phi_half.tolist()), repeat(2))
    return f, cos_gamma


def bloch_contraction_factor(chi: float) -> float:
    """|cos(2 psi)|: predicted per-iteration shrink of the Bloch norm.

    A half-half mixture of two plane rotations whose Bloch angles differ
    by 4 psi contracts every Bloch vector by cos(2 psi) per step.  The
    trajectory ratio test is the authoritative check of this value.
    """
    return abs(math.cos(2.0 * scalar_profile(chi).psi))


def entropy_from_spectrum(values: np.ndarray):
    """-sum l ln(l) in nats, treating values below the floor as zero.

    A (..., k) array of spectra gives a (...) array of entropies; a single
    spectrum gives a float.
    """
    vals = np.asarray(values, dtype=float)
    kept = vals > EIGENVALUE_FLOOR
    terms = np.where(kept, vals * np.log(np.where(kept, vals, 1.0)), 0.0)
    # 0.0 - x, not -x: a pure state's entropy is +0.0, not -0.0
    result = 0.0 - np.sum(terms, axis=-1)
    return float(result) if result.ndim == 0 else result


def entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -tr(rho ln rho) in nats of a Hermitian matrix."""
    return entropy_from_spectrum(eigvals_hermitian(rho))


def trajectory_report(inst: SearchInstance, m_max: int) -> TrajectoryReport:
    """Run m_max iterations from the uniform state and measure every step.

    The state is its Bloch vector (x, z), two Python floats, and a step is
    the 2x2 matrix bloch_map(inst), at a cost independent of n.  The
    (m_max+1, 2) array is allocated first, so an m_max too large for memory
    raises MemoryError at once.  Every column is read off x and z, with the
    spectrum ((1 + r)/2, (1 - r)/2) for the Bloch norm r; the closed forms
    come from one closed_form_fidelities(inst.chi, m_max, inst.n) call over
    all m.  m_max < 1 raises ValueError.

    Each spectrum has two entries, so majorization is one comparison of
    the larger eigenvalues top = (1 + r)/2: step m is majorized by an
    earlier step iff top rises by at most MAJORIZATION_ATOL.  This is the
    general partial-sum test, bit for bit: r >= 0, so each row is already
    sorted descending, and the first partial-sum gap is the same
    subtraction; (1 + r)/2 + (1 - r)/2 is 1 within 2 ulp, so the second
    gap, and the sum-to-1 precondition, always pass.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    (a, b), (c, d) = bloch_map(inst).tolist()
    s0, s1 = uniform_plane_vector(inst.n).tolist()
    x, z = 2.0 * s0 * s1, s0 * s0 - s1 * s1
    bloch = np.empty((m_max + 1, 2))
    cells = memoryview(bloch)
    for m in range(m_max + 1):
        cells[m, 0], cells[m, 1] = x, z
        x, z = a * x + b * z, c * x + d * z

    bloch_x, bloch_z = bloch[:, 0].copy(), bloch[:, 1].copy()
    p_success = 0.5 * (1.0 + bloch_z)
    bloch_norm = _libm(math.hypot, bloch_x.tolist(), bloch_z.tolist())
    cos_gamma = np.full(m_max + 1, math.nan)
    np.divide(bloch_z, bloch_norm, out=cos_gamma, where=bloch_norm > BLOCH_ZERO_ATOL)
    f_closed, cos_gamma_closed = closed_form_fidelities(inst.chi, m_max, inst.n)
    spectra = np.stack([0.5 * (1.0 + bloch_norm), 0.5 * (1.0 - bloch_norm)], axis=-1)

    top = spectra[:, 0]  # both flags are True at m = 0, which has no earlier step
    majorized_by_prev = np.concatenate([[True], top[1:] - top[:-1] <= MAJORIZATION_ATOL])
    majorized_by_init = np.concatenate([[True], top[1:] - top[0] <= MAJORIZATION_ATOL])
    return TrajectoryReport(
        instance=inst,
        p_success=p_success,
        f_paper=0.5 * p_success,
        bloch_x=bloch_x,
        bloch_z=bloch_z,
        bloch_norm=bloch_norm,
        cos_gamma=cos_gamma,
        f_closed=f_closed,
        cos_gamma_closed=cos_gamma_closed,
        entropies=entropy_from_spectrum(spectra),
        spectra=spectra,
        majorized_by_prev=majorized_by_prev,
        majorized_by_init=majorized_by_init,
    )


def trajectory_violations(report: TrajectoryReport) -> list:
    """The gate on a report: one message per failed check, in step order.

    Each step's spectrum must sum to 1 within TRACE_ATOL and stay above
    -POSITIVITY_ATOL; its entropy may not drop by more than
    ENTROPY_DROP_ATOL; and it must be majorized by the previous and the
    initial spectrum.  An empty list means the trajectory passes.
    """
    traces = report.spectra.sum(axis=-1)
    smallest = report.spectra[:, -1]
    ent = report.entropies
    bad_trace = np.abs(traces - 1.0) > TRACE_ATOL
    negative = smallest < -POSITIVITY_ATOL
    drops = np.zeros(len(ent), dtype=bool)
    drops[1:] = ent[1:] < ent[:-1] - ENTROPY_DROP_ATOL
    not_prev, not_init = ~report.majorized_by_prev, ~report.majorized_by_init
    failed = np.flatnonzero(bad_trace | negative | drops | not_prev | not_init)
    checks = (  # (failed at step k, message at step k), in message order
        (bad_trace, lambda k: f"trace {traces[k]:.12f}"),
        (negative, lambda k: f"eigenvalue {smallest[k]:.3e}"),
        (drops, lambda k: f"entropy drops by {ent[k - 1] - ent[k]:.3e}"),
        (not_prev, lambda k: "not majorized by previous step"),
        (not_init, lambda k: "not majorized by initial state"),
    )
    return [
        f"m={k}: {say(k)}" for k in failed.tolist() for flags, say in checks if flags[k]
    ]


def high_precision_bloch_norms(
    inst: SearchInstance, m_max: int, dps: int = 40
) -> np.ndarray:
    """Bloch norms along the trajectory, built and run in mpmath.

    The float64 density iteration (iterate on plane_channel) leaves ~1e-16
    defects that pin the Bloch norm to a plateau near 1e-15; the report's
    Bloch iteration does not.  Iterating the mpmath 2x2 block at dps digits
    resolves the decay to any depth, at a cost independent of n.  Returns
    float64 norms (their relative accuracy survives the conversion).
    """
    import mpmath as mp

    with mp.workdps(dps):
        chi = mp.mpf(repr(float(inst.chi)))
        n = inst.n
        mu = mp.sqrt(chi**2 / 4 + mp.pi**2 / 16)
        delta = mp.sin(mu) / mu
        psi = mp.atan2(abs(chi / 2 * delta), abs(mp.cos(mu)))

        def rot(a):
            return mp.matrix([[mp.cos(a), mp.sin(a)], [-mp.sin(a), mp.cos(a)]])

        s = mp.matrix([[1 / mp.sqrt(n)], [mp.sqrt(mp.mpf(n - 1) / n)]])
        refl_s = mp.eye(2) - 2 * (s * s.T)
        refl_w = mp.diag([-1, 1])
        ops = [v * refl_s * v.T * refl_w for v in (rot(psi - chi / 2), rot(-chi / 2))]
        ops_t = [k.T for k in ops]
        rho = s * s.T
        half = mp.mpf(1) / 2
        norms = []
        for step in range(m_max + 1):
            x = 2 * rho[0, 1]
            z = rho[0, 0] - rho[1, 1]
            norms.append(float(mp.sqrt(x * x + z * z)))
            if step < m_max:
                rho = half * (ops[0] * rho * ops_t[0]) + half * (ops[1] * rho * ops_t[1])
    return np.array(norms)

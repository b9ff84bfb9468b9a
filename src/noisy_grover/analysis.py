"""Measurable quantities along a search trajectory.

The columnar trajectory report, iterated on the plane Bloch vector
(x, y, z) by any real 3x3 step (plane_report) or by the instance's own
bloch_map (trajectory_report): the success probability and its
half-normalized overlap f_paper, the Bloch norm and angle, the entropy
of each step's two-entry spectrum, majorization flags, and the
closed-form fidelity hypotheses beside them; and the gate on such a
report that search, sweep and verify share (trajectory_violations).
Closed-form values are carried side by side with simulated ones for
comparison and are never used as the reference: the simulator is the
oracle, the formulas are hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotReal
from .noise import _require_count, scalar_profile
from .search import SearchInstance, _require_array, bloch_map, uniform_plane_vector
from .tolerances import (
    BLOCH_ZERO_ATOL,
    EIGENVALUE_FLOOR,
    MAJORIZATION_ATOL,
    M_MAX,
    POSITIVITY_ATOL,
    TRACE_ATOL,
)

__all__ = [
    "TrajectoryReport",
    "closed_form_fidelities",
    "plane_report",
    "trajectory_report",
    "trajectory_violations",
]

# Largest entropy drop between consecutive steps a trajectory may show.
ENTROPY_DROP_ATOL = 1e-12


@dataclass(eq=False)
class TrajectoryReport:
    """Everything measured along one trajectory, one column per quantity.

    Row m of every array is iteration m, m = 0..m_max.  bloch_x and bloch_z
    are two components of the plane Bloch vector (x, y, z), with the target
    at z = 1; y is not stored, and stays +0.0 for a real pair such as the
    search's own.  bloch_norm is the norm of all three; p_success is
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
    def points(self) -> range:
        """range(m_max + 1): the step count perfbench/tracing.py reads for analysis.steps."""
        return range(len(self.p_success))


def closed_form_fidelities(inst: SearchInstance, m_max: int) -> tuple:
    """The closed-form (f, cos_gamma) hypothesis for m = 0..m_max:

    f = (1/4)[1 + cos^m(2 psi) cos(phi)], cos_gamma = cos^2(phi/2), with
    phi/2 = m psi - m theta + alpha, alpha = arccos(1/sqrt(n)) and
    theta = pi + chi + arcsin(2 sqrt(n-1)/n) on the principal arcsin
    branch.  The paper fixes psi only through cos^2(psi); psi is
    scalar_profile's principal branch [0, pi/2], the one every output uses.
    Note f is bounded by 1/2 under this normalization.

    Two arrays of m_max + 1 entries, allocated first, each entry evaluated
    in Python floats with libm's cos and pow: np.cos, np.power and an
    array's ** 2 can differ from them in the last bit.
    """
    m_max = _require_count("iteration count m", m_max, 0, M_MAX)
    n, chi = inst.n, inst.chi
    psi = scalar_profile(chi).psi
    alpha = math.acos(1.0 / math.sqrt(n))
    theta = math.pi + chi + math.asin(2.0 * math.sqrt(n - 1.0) / n)
    damping = math.cos(2.0 * psi)
    out = np.empty((2, m_max + 1))
    f, cos_gamma = map(memoryview, out)
    cos = math.cos
    for m in range(m_max + 1):
        phi_half = m * psi - m * theta + alpha
        f[m] = 0.25 * (1.0 + damping**m * cos(2.0 * phi_half))
        cos_gamma[m] = cos(phi_half) ** 2
    return out[0], out[1]


def _xlogx(values: np.ndarray) -> np.ndarray:
    """l ln(l) for each eigenvalue l, +0.0 where l <= EIGENVALUE_FLOOR, in one array."""
    kept = values > EIGENVALUE_FLOOR
    terms = np.zeros_like(values)
    np.log(values, out=terms, where=kept)
    np.multiply(terms, values, out=terms, where=kept)
    return terms


def plane_report(inst: SearchInstance, step: np.ndarray, m_max: int) -> TrajectoryReport:
    """Run m_max iterations of the plane step from inst's uniform state.

    step is any real 3x3 Bloch matrix acting on the column (x, y, z): any
    other shape, a ragged step or entries that are not numbers raise
    DimensionMismatch, and a step of complex dtype raises NotReal.  inst
    gives the start vector (2 s0 s1, 0.0, s0^2 - s1^2) of (s0, s1) =
    uniform_plane_vector(inst), and the closed forms.  The state is its
    Bloch vector, three Python floats, at a cost per step independent of
    n; y is iterated but not stored.  Each new component is
    (M_ix x + M_iz z) + M_iy y, and each step takes the Bloch norm
    r = math.hypot(x, y, z), whose bits np.hypot need not match.  One
    (6, m_max+1) array holds x, z, r, p_success, top and bottom; it is
    allocated first, so an m_max too large for memory raises MemoryError
    at once.  p_success, and the spectrum (top, bottom)
    = ((1 + r)/2, (1 - r)/2), are 0.5 (1 + (z, r, -r)) in one pass (1 - r
    and 1 + (-r) are the same IEEE sum); the entropy is -(top ln top +
    bottom ln bottom); the closed forms are one closed_form_fidelities
    call.  An m_max that is not an integer in [1, M_MAX] raises ValueError
    naming m.

    Each spectrum has two entries, so majorization is one comparison of
    the larger eigenvalues top = (1 + r)/2: step m is majorized by an
    earlier step iff top rises by at most MAJORIZATION_ATOL.  This is the
    general partial-sum test, bit for bit: r >= 0, so each row is already
    sorted descending, and the first partial-sum gap is the same
    subtraction; (1 + r)/2 + (1 - r)/2 is 1 within 2 ulp, so the second
    gap, and the sum-to-1 precondition, always pass.
    """
    m_max = _require_count("iteration count m", m_max, 1, M_MAX)
    step = _require_array(step, (3, 3), "plane step")
    if np.iscomplexobj(step):
        raise NotReal(f"plane step of dtype {step.dtype} is not real")
    count = m_max + 1
    # rows x, z, r, then p_success, top, bottom = 0.5 (1 + (z, r, -r))
    rows = np.empty((6, count))
    (xx, xy, xz), (yx, yy, yz), (zx, zy, zz) = step.tolist()
    s0, s1 = uniform_plane_vector(inst).tolist()
    x, y, z = 2.0 * s0 * s1, 0.0, s0 * s0 - s1 * s1
    xs, zs, rs = map(memoryview, rows[:3])
    hypot = math.hypot
    for m in range(count):
        xs[m], zs[m], rs[m] = x, z, hypot(x, y, z)
        x, y, z = (
            (xx * x + xz * z) + xy * y,
            (yx * x + yz * z) + yy * y,
            (zx * x + zz * z) + zy * y,
        )
    bloch_x, bloch_z, bloch_norm = rows[:3]
    rows[3:5] = rows[1:3]
    np.negative(bloch_norm, out=rows[5])
    halves = rows[3:]
    halves += 1.0
    halves *= 0.5
    p_success, top, _ = halves
    cos_gamma = np.full(count, math.nan)
    np.divide(bloch_z, bloch_norm, out=cos_gamma, where=bloch_norm > BLOCH_ZERO_ATOL)
    f_closed, cos_gamma_closed = closed_form_fidelities(inst, m_max)
    terms = _xlogx(halves[1:])
    entropies = 0.0 - (terms[0] + terms[1])  # +0.0, not -0.0, when pure
    # both flags are True at m = 0, which has no earlier step
    flags = np.empty((2, count), dtype=bool)
    flags[:, 0] = True
    np.less_equal(top[1:] - top[:-1], MAJORIZATION_ATOL, out=flags[0, 1:])
    np.less_equal(top[1:] - top[0], MAJORIZATION_ATOL, out=flags[1, 1:])
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
        entropies=entropies,
        spectra=halves[1:].T,
        majorized_by_prev=flags[0],
        majorized_by_init=flags[1],
    )


def trajectory_report(inst: SearchInstance, m_max: int) -> TrajectoryReport:
    """plane_report applied to bloch_map(inst): inst's own search, measured at every step.

    An m_max that is not an integer in [1, M_MAX] raises plane_report's
    ValueError naming m; search and sweep check --m here and nowhere else.
    """
    return plane_report(inst, bloch_map(inst), m_max)


def trajectory_violations(report: TrajectoryReport) -> list:
    """The gate on a report: one message per failed check, in step order.

    Each step's spectrum must sum to 1 within TRACE_ATOL and stay above
    -POSITIVITY_ATOL; its entropy may not drop by more than
    ENTROPY_DROP_ATOL; and it must be majorized by the previous and the
    initial spectrum.  An empty list means the trajectory passes.
    """
    spectra, ent = report.spectra, report.entropies
    traces, smallest = spectra[:, 0] + spectra[:, 1], spectra[:, -1]
    failed = np.empty((5, len(ent)), dtype=bool)  # one row per check, in message order
    np.greater(np.abs(traces - 1.0), TRACE_ATOL, out=failed[0])
    np.less(smallest, -POSITIVITY_ATOL, out=failed[1])
    failed[2, 0] = False
    np.less(ent[1:], ent[:-1] - ENTROPY_DROP_ATOL, out=failed[2, 1:])
    np.logical_not(report.majorized_by_prev, out=failed[3])
    np.logical_not(report.majorized_by_init, out=failed[4])
    if not failed.any():
        return []
    messages = (
        lambda k: f"trace {traces[k]:.12f}",
        lambda k: f"eigenvalue {smallest[k]:.3e}",
        lambda k: f"entropy drops by {ent[k - 1] - ent[k]:.3e}",
        lambda k: "not majorized by previous step",
        lambda k: "not majorized by initial state",
    )
    return [
        f"m={k}: {say(k)}"
        for k in np.flatnonzero(failed.any(axis=0)).tolist()
        for flags, say in zip(failed, messages)
        if flags[k]
    ]

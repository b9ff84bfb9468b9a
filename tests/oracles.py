"""Dense and high-precision oracles that only the tests use.

None of the CLI's commands reaches these; they check the package from
outside it.  They run a dense channel, such as
verify.build_search_channel, from the uniform state and read its success
probability, build the search plane's basis, extract the Bloch vector,
angular fidelity and von Neumann entropy from dense n x n states, take
the entropy of any stack of spectra, validate density matrices,
count Choi ranks, give the Bloch trajectory in closed form, and rerun the
plane channel in mpmath (a test dependency, not a runtime one).  The
plane channel as a KrausChannel, bloch_map built from it one operator at
a time, and the report's columns derived one array operation at a time
are the bit-level oracles of the stacked bloch_map and the report; the
Kraus sum, completeness defect, composition and dense lift taken one 2-D
operator (or pair) at a time are those of KrausChannel's (k, d, d) stack
and of verify.build_search_channel.  Tests import them as
`from oracles import ...`, the way they import `from conftest import ...`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from noisy_grover.channels import (
    KrausChannel,
    as_complex_matrix,
    choi_matrix,
    hermiticity_defect,
    require_hermitian,
)
from noisy_grover.errors import DimensionMismatch, NoisyGroverError
from noisy_grover.noise import pair_rotations, rotation_y, scalar_profile
from noisy_grover.search import SearchInstance, uniform_plane_vector
from noisy_grover.verify import reflection
from noisy_grover.tolerances import (
    BLOCH_ZERO_ATOL,
    EIGENVALUE_FLOOR,
    HERMITICITY_ATOL,
    MAJORIZATION_ATOL,
    POSITIVITY_ATOL,
    TRACE_ATOL,
)

# Choi eigenvalues at or below this do not count towards a channel's rank.
CHOI_RANK_ATOL = 1e-8

# Search-plane support: residual outside the plane, and minimum plane
# trace, before Bloch extraction refuses the state.
PLANE_RESIDUAL_ATOL = 1e-8
PLANE_TRACE_ATOL = 1e-6


class OffPlaneSupport(NoisyGroverError):
    """State has weight outside the search plane."""


class ZeroBlochVector(NoisyGroverError):
    """Bloch vector too short to define an angle."""


class LengthMismatch(NoisyGroverError):
    """Spectra have different lengths."""


class InvalidDensityMatrix(NoisyGroverError):
    """Matrix violates hermiticity, unit trace, or positivity."""


def eigvals_hermitian(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, sorted descending.

    NotHermitian is raised when m fails the hermiticity check.
    """
    m = as_complex_matrix(m)
    require_hermitian(m)
    return np.linalg.eigvalsh(m)[::-1].copy()


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel((np.eye(dim, dtype=complex),))


def choi_rank(channel: KrausChannel) -> int:
    """Number of Choi eigenvalues above CHOI_RANK_ATOL (minimal Kraus count)."""
    vals = np.linalg.eigvalsh(choi_matrix(channel))
    return int(np.sum(vals > CHOI_RANK_ATOL))


def uniform_state(inst: SearchInstance) -> np.ndarray:
    """|s><s| for the uniform superposition; every entry is 1/n."""
    return np.full((inst.n, inst.n), 1.0 / inst.n, dtype=complex)


def iterate(kraus: KrausChannel, rho: np.ndarray, m: int) -> np.ndarray:
    """Trajectory [rho, t(rho), ..., t^m(rho)] as an (m+1, n, n) array."""
    states = np.empty((m + 1, *np.shape(rho)), dtype=complex)
    states[0] = rho
    for step in range(m):
        states[step + 1] = kraus(states[step])
    return states


def success_probability(rho: np.ndarray, w: int) -> float:
    """<w| rho |w>: probability that a measurement yields the target."""
    return float(rho[w, w].real)


def plane_channel(inst: SearchInstance) -> KrausChannel:
    """t restricted to the search plane: 2x2 operators V_i I_s V_i^dag I_w.

    On the basis {|w>, |r>} the rotations V_i = rotation_y(psi - chi/2)
    and rotation_y(-chi/2) act unembedded, I_s = reflection(|s>) and
    I_w = diag(-1, 1); the weights are 1/2.  Iterated from |s><s| it gives
    the plane block of t^m(|s><s|), whose entries outside the plane are
    exact zeros, at any n.
    """
    prof = scalar_profile(inst.chi)
    pair = (rotation_y(prof.psi - prof.chi / 2.0), rotation_y(-prof.chi / 2.0))
    refl_s = reflection(uniform_plane_vector(inst))
    refl_w = np.diag([-1.0, 1.0])
    ops = tuple(v @ refl_s @ v.conj().T @ refl_w for v in pair)
    return KrausChannel(ops, np.array([0.5, 0.5]))


def bloch_map_via_channel(inst: SearchInstance) -> np.ndarray:
    """bloch_map's matrix from plane_channel, one operator and one probe at a time.

    Its columns are the Bloch vectors of t((1 + sigma_x)/2) and
    t((1 + sigma_z)/2), each a KrausChannel application.
    """
    t = plane_channel(inst)
    out = np.array([t(np.full((2, 2), 0.5)), t(np.diag([1.0, 0.0]))]).real
    return np.array([2.0 * out[:, 0, 1], out[:, 0, 0] - out[:, 1, 1]])


def kraus_sum_per_operator(weights, ops, rho) -> np.ndarray:
    """sum_i w_i K_i rho K_i^dag over 2-D operators, summed onto zeros one at a time."""
    out = np.zeros_like(rho)
    for w, k in zip(weights, ops):
        out += w * (k @ rho @ k.conj().T)
    return out


def completeness_per_operator(weights, ops) -> float:
    """Frobenius norm of sum_i w_i K_i^dag K_i - 1, one 2-D operator at a time."""
    acc = sum(w * (k.conj().T @ k) for w, k in zip(weights, ops))
    return float(np.linalg.norm(acc - np.eye(ops[0].shape[0])))


def compose_per_pair(a_weights, a_ops, b_weights, b_ops) -> tuple:
    """(weights, operators) of a after b: A_i B_j and w_i w_j one pair at a time, i-major."""
    weights, ops = [], []
    for wa, ka in zip(a_weights, a_ops):
        for wb, kb in zip(b_weights, b_ops):
            weights.append(wa * wb)
            ops.append(ka @ kb)
    return np.array(weights), np.array(ops)


def search_operators_per_operator(inst: SearchInstance) -> np.ndarray:
    """verify.build_search_channel's operators, each rotation lifted on its own.

    The same (n, 2) basis, reflections and lift 1 + P (V_i - 1) P^dag, as
    2-D products over the pair_rotations one V_i at a time, stacked last.
    """
    p = np.zeros((inst.n, 2), dtype=complex)
    p[inst.w, 0] = 1.0
    p[:, 1] = 1.0 / np.sqrt(inst.n - 1.0)
    p[inst.w, 1] = 0.0
    refl_s = reflection(np.full(inst.n, 1.0 / np.sqrt(inst.n)))
    e_w = np.zeros(inst.n)
    e_w[inst.w] = 1.0
    refl_w = reflection(e_w)
    ops = []
    for v in pair_rotations(inst.chi):
        lifted = np.eye(inst.n, dtype=complex) + p @ (v - np.eye(2)) @ p.conj().T
        ops.append(lifted @ refl_s @ lifted.conj().T @ refl_w)
    return np.array(ops)


def _libm(fn, *args) -> np.ndarray:
    """fn mapped over Python floats, as a float array."""
    return np.fromiter(map(fn, *args), float)


def _xlogx(values: np.ndarray) -> np.ndarray:
    """l ln(l) for each value l, and 0 where l is at most EIGENVALUE_FLOOR."""
    kept = values > EIGENVALUE_FLOOR
    return np.where(kept, values * np.log(np.where(kept, values, 1.0)), 0.0)


def report_columns_oracle(inst: SearchInstance, m_max: int) -> dict:
    """Every column of trajectory_report(inst, m_max), one array operation at a time.

    The Bloch vector is iterated with bloch_map_via_channel's matrix, and
    each column is its own numpy expression on whole columns: hypot and
    the closed forms' cos and pow mapped over Python floats, the spectrum
    stacked from (1 + r)/2 and (1 - r)/2, and each majorization flag
    chain concatenated after a leading True.  Keys are the report's
    attribute names.
    """
    (a, b), (c, d) = bloch_map_via_channel(inst).tolist()
    s0, s1 = uniform_plane_vector(inst).tolist()
    x, z = 2.0 * s0 * s1, s0 * s0 - s1 * s1
    bloch = np.empty((m_max + 1, 2))
    for m in range(m_max + 1):
        bloch[m] = x, z
        x, z = a * x + b * z, c * x + d * z
    bloch_x, bloch_z = bloch[:, 0].copy(), bloch[:, 1].copy()
    p_success = 0.5 * (1.0 + bloch_z)
    bloch_norm = _libm(math.hypot, bloch_x.tolist(), bloch_z.tolist())
    cos_gamma = np.full(m_max + 1, math.nan)
    np.divide(bloch_z, bloch_norm, out=cos_gamma, where=bloch_norm > BLOCH_ZERO_ATOL)

    psi = scalar_profile(inst.chi).psi
    alpha = math.acos(1.0 / math.sqrt(inst.n))
    theta = math.pi + inst.chi + math.asin(2.0 * math.sqrt(inst.n - 1.0) / inst.n)
    steps = np.arange(m_max + 1)
    phi_half = steps * psi - steps * theta + alpha
    damping = _libm(pow, [math.cos(2.0 * psi)] * (m_max + 1), range(m_max + 1))
    f_closed = 0.25 * (1.0 + damping * _libm(math.cos, (2.0 * phi_half).tolist()))
    cos_gamma_closed = _libm(pow, map(math.cos, phi_half.tolist()), [2] * (m_max + 1))

    spectra = np.stack([0.5 * (1.0 + bloch_norm), 0.5 * (1.0 - bloch_norm)], axis=-1)
    top, bottom = spectra[:, 0], spectra[:, 1]
    entropies = 0.0 - (_xlogx(top) + _xlogx(bottom))
    return {
        "p_success": p_success,
        "f_paper": 0.5 * p_success,
        "bloch_x": bloch_x,
        "bloch_z": bloch_z,
        "bloch_norm": bloch_norm,
        "cos_gamma": cos_gamma,
        "f_closed": f_closed,
        "cos_gamma_closed": cos_gamma_closed,
        "entropies": entropies,
        "spectra": spectra,
        "majorized_by_prev": np.concatenate(
            [[True], top[1:] - top[:-1] <= MAJORIZATION_ATOL]
        ),
        "majorized_by_init": np.concatenate(
            [[True], top[1:] - top[0] <= MAJORIZATION_ATOL]
        ),
    }


def target_state(n: int, w: int) -> np.ndarray:
    """The projector |w><w|."""
    rho = np.zeros((n, n), dtype=complex)
    rho[w, w] = 1.0
    return rho


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


def plane_basis(inst: SearchInstance) -> np.ndarray:
    """Columns {|w>, |r>}: the target and the normalized rest of |s>.

    An (n, 2) real matrix with orthonormal columns spanning the invariant
    search plane.
    """
    basis = np.zeros((inst.n, 2))
    basis[inst.w, 0] = 1.0
    basis[:, 1] = math.sqrt(1.0 / (inst.n - 1))
    basis[inst.w, 1] = 0.0
    return basis


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


def entropy_from_spectrum(values: np.ndarray):
    """-sum l ln(l) in nats, treating values below the floor as zero.

    A (..., k) array of spectra gives a (...) array of entropies; a single
    spectrum gives a float.
    """
    terms = _xlogx(np.asarray(values, dtype=float))
    # 0.0 - x, not -x: a pure state's entropy is +0.0, not -0.0
    result = 0.0 - np.sum(terms, axis=-1)
    return float(result) if result.ndim == 0 else result


def entropy(rho: np.ndarray) -> float:
    """von Neumann entropy -tr(rho ln rho) in nats of a Hermitian matrix."""
    return entropy_from_spectrum(eigvals_hermitian(rho))


def closed_form_bloch(inst: SearchInstance, m_max: int) -> tuple:
    """Bloch trajectory (x_m, z_m) = c^m R(m phi) (x_0, z_0), m = 0..m_max.

    Each plane step is a half-half mixture of two rotations of the Bloch
    disc, so it is c R(phi) with c = cos 2 psi, phi = 4 theta + 2 psi - 2 chi,
    theta = asin(1/sqrt n) and R(phi) = [[cos, -sin], [sin, cos]]; |s>
    starts at (x_0, z_0) = (sin 2 theta, -cos 2 theta).  Built from
    scalar_profile and math only.  Returns the lists (x_m) and (z_m).
    """
    prof = scalar_profile(inst.chi)
    theta = math.asin(1.0 / math.sqrt(inst.n))
    c = math.cos(2.0 * prof.psi)
    phi = 4.0 * theta + 2.0 * prof.psi - 2.0 * prof.chi
    x0, z0 = math.sin(2.0 * theta), -math.cos(2.0 * theta)
    xs, zs = [], []
    for m in range(m_max + 1):
        scale, cos_a, sin_a = c**m, math.cos(m * phi), math.sin(m * phi)
        xs.append(scale * (cos_a * x0 - sin_a * z0))
        zs.append(scale * (sin_a * x0 + cos_a * z0))
    return xs, zs


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

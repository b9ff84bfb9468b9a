"""Invariant gate, discrepancy ledger, and the dense search oracle they read.

Each hard invariant (completeness, magic-angle zeros, the noiseless limit,
composition, unitality, entropy and majorization chains, contraction
constancy) is one function that returns its CheckResult, and each ledger
entry is one function that returns its DiscrepancyRecord: the places where
the closed-form expressions and the simulated ground truth are known to
part ways.  run_verification builds the report from two literal lists, one
of checks and one of records, and their order is the output order.  Hard
failures gate the exit code; discrepancies are reported, not failed,
unless strict mode is requested.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import trajectory_report, trajectory_violations
from .channels import (
    KrausChannel,
    channel_choi_distance,
    choi_matrix,
    choi_of_map,
    closed_form_kraus,
    compose_channels,
    hamiltonian_kraus,
    nearest_unitary_oracle,
    nearest_unitary_pair,
)
from .errors import NotNormalized
from .noise import _require_count, chi_star, psi_zero_scan, rotation_y, scalar_profile
from .search import SearchInstance
from .tolerances import M_MAX, TRACE_ATOL, UNITARITY_ATOL

__all__ = ["DiscrepancyRecord", "CheckResult", "VerificationReport", "run_verification",
           "reflection", "build_search_channel", "ideal_grover_probability"]

# Agreement between a computation and its independent oracle.
ORACLE_ATOL = 1e-9


@dataclass(frozen=True)
class DiscrepancyRecord:
    """One finding where a closed-form expression departs from the ground truth."""

    kind: str
    chi: float
    magnitude: float
    detail: str


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one hard invariant check."""

    name: str
    passed: bool
    worst: float
    detail: str


@dataclass
class VerificationReport:
    checks: list
    discrepancies: list

    @property
    def all_hard_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def max_discrepancy(self) -> float:
        return max((d.magnitude for d in self.discrepancies), default=0.0)

    def to_dict(self) -> dict:
        """The report as JSON data; a non-finite worst, chi or magnitude is None,
        so the file holds null, as the trajectory JSON does, never NaN or Infinity."""
        return {
            "checks": [{**asdict(c), "worst": _finite(c.worst)} for c in self.checks],
            "discrepancies": [
                {**asdict(d), "chi": _finite(d.chi), "magnitude": _finite(d.magnitude)}
                for d in self.discrepancies
            ],
            "all_hard_passed": self.all_hard_passed,
        }


def _finite(value: float):
    return value if math.isfinite(value) else None


def _aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over a global phase of ||a - e^{i phi} b||_F."""
    overlap = np.trace(a.conj().T @ b)
    if abs(overlap) < 1e-300:
        return float(np.linalg.norm(a - b))
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(a - phase * b))


def reflection(v) -> np.ndarray:
    """1 - 2|v><v| for a unit vector v: Hermitian, unitary, involutory.

    A vector with a nan entry has a nan norm, which fails the check.
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= UNITARITY_ATOL:
        raise NotNormalized(f"vector norm {norm} is not 1 within {UNITARITY_ATOL:.1e}")
    return np.eye(v.size, dtype=complex) - 2.0 * np.outer(v, v.conj())


def build_search_channel(inst: SearchInstance) -> KrausChannel:
    """Assemble t with Kraus operators V~_i I_s V~_i^dag I_w, the pair's weights.

    The dense n x n oracle of search.bloch_map.  V~_i = 1 + P (V_i - 1) P^dag
    lifts each rotation of the pair, where P is the (n, 2) matrix of
    orthonormal columns {|w>, |r>}, the target and the normalized rest of
    |s>: V_i on the plane, the identity on its complement, so the chi = 0
    limit is the textbook two-reflection iteration exactly.  Each operator
    is unitary (a product of unitaries), so t is mixed-unitary and hence unital.
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


def _completeness_grid(seed: int) -> CheckResult:
    """The worst completeness defect of both Kraus constructions; passed
    cannot be False, as KrausChannel raises NotTracePreserving (exit 2) at
    construction, but the worst defect is reported."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for chi in rng.uniform(0.0, 20.0, size=100):
        worst = max(worst, closed_form_kraus(chi).completeness_defect())
        worst = max(worst, hamiltonian_kraus(chi).completeness_defect())
    return CheckResult(
        "completeness_grid", worst <= TRACE_ATOL, worst,
        "100 random chi in [0, 20], both constructions",
    )


def _magic_psi_zero() -> CheckResult:
    worst = max(scalar_profile(chi_star(n)).psi for n in range(1, 6))
    return CheckResult(
        "magic_psi_zero", worst <= UNITARITY_ATOL, worst, "psi(chi_n) for n = 1..5"
    )


def _psi_zero_scan() -> CheckResult:
    """The scan's zeros against 0, chi_1 and chi_2; worst is inf when the
    scan finds a different number of zeros."""
    zeros = psi_zero_scan()
    expected = np.array([0.0, chi_star(1), chi_star(2)])
    worst = (
        float(np.max(np.abs(zeros - expected))) if zeros.size == expected.size else math.inf
    )
    return CheckResult(
        "psi_zero_scan", worst <= 2e-3, worst,
        f"scan [0, 13] step 1e-3 found {zeros.size} zeros",
    )


def _noiseless_reference() -> CheckResult:
    worst = 0.0
    for n in (4, 16, 64):
        inst = SearchInstance(n=n, w=0, chi=0.0)
        channel = build_search_channel(inst)
        rho = np.full((n, n), 1.0 / n, dtype=complex)
        plane = trajectory_report(inst, 30).p_success.tolist()
        for m in range(31):
            ideal = ideal_grover_probability(inst, m)
            dense = float(rho[0, 0].real)
            worst = max(worst, abs(dense - ideal), abs(plane[m] - ideal))
            rho = channel(rho)
    return CheckResult(
        "noiseless_reference", worst <= ORACLE_ATOL, worst,
        "chi=0 dense channel and plane report vs closed-form reference, "
        "n in {4,16,64}, m <= 30",
    )


def _noiseless_channel_is_rotation() -> CheckResult:
    gap = channel_choi_distance(
        hamiltonian_kraus(0.0), KrausChannel((rotation_y(math.pi / 4.0),))
    )
    return CheckResult(
        "noiseless_channel_is_rotation", gap <= TRACE_ATOL, gap,
        "Hamiltonian channel at chi=0 vs the pi/4 rotation map",
    )


def _composition_stays_mixed_unitary(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    worst_unitarity = 0.0
    worst_choi = 0.0
    for _ in range(10):
        chi = float(rng.uniform(0.0, 13.0))
        n = int(rng.choice([2, 3, 4, 6, 8, 12]))
        channel = build_search_channel(SearchInstance(n=n, w=0, chi=chi))
        squared = compose_channels(channel, channel)
        worst_unitarity = max(worst_unitarity, float(np.max(squared.unitarity_defects())))
        sequential = choi_of_map(lambda r: channel(channel(r)), n)
        choi_gap = float(np.linalg.norm(choi_matrix(squared) - sequential))
        worst_choi = max(worst_choi, choi_gap)
    passed = worst_unitarity <= UNITARITY_ATOL and worst_choi <= TRACE_ATOL
    return CheckResult(
        "composition_stays_mixed_unitary", passed, max(worst_unitarity, worst_choi),
        "t o t generators unitary; Choi equals sequential application",
    )


def _unitality() -> CheckResult:
    worst = 0.0
    for n, chi in ((4, 0.7), (16, 1.0), (16, chi_star(1)), (8, 5.0)):
        channel = build_search_channel(SearchInstance(n=n, w=0, chi=chi))
        mixed = np.eye(n, dtype=complex) / n
        worst = max(worst, float(np.linalg.norm(channel(mixed) - mixed)))
    for chi in (0.0, 0.5, 2.0, 7.0):
        pair = nearest_unitary_pair(chi)
        worst_pair = float(np.max(pair.unitarity_defects()))
        half = np.eye(2, dtype=complex) / 2
        worst = max(worst, worst_pair, float(np.linalg.norm(pair(half) - half)))
    return CheckResult(
        "unitality", worst <= 1e-12, worst,
        "identity/n is fixed; preconditioned generators unitary",
    )


def _entropy_majorization_chain() -> CheckResult:
    """analysis.trajectory_violations on eight trajectories, plus a strict
    entropy rise at every step from a Bloch norm above 1e-3."""
    violations = 0
    worst_drop = 0.0
    for chi in (0.5, 1.0, 2.0, 5.0):
        for n in (4, 16):
            rep = trajectory_report(SearchInstance(n=n, w=0, chi=chi), 40)
            ent = rep.entropies
            worst_drop = max(worst_drop, float(np.max(ent[:-1] - ent[1:], initial=0.0)))
            violations += len(trajectory_violations(rep))
            stalls = (rep.bloch_norm[:-1] > 1e-3) & (np.diff(ent) <= 1e-8)
            violations += int(np.count_nonzero(stalls))
    return CheckResult(
        "entropy_majorization_chain", violations == 0, worst_drop,
        "chi in {0.5,1,2,5} x n in {4,16}, m <= 40",
    )


def _contraction_ratios() -> list:
    """(chi, per-step Bloch norm ratios, |cos(2 psi)|) for chi in {0.5, 1, 2}
    at n = 16, m <= 30, over the steps whose norm stays above 1e-5, where
    float64 still resolves the ratio.  |cos(2 psi)| is the predicted ratio,
    as bloch_map's (x, z) block is cos(2 psi) times a rotation and y stays
    zero."""
    data = []
    for chi in (0.5, 1.0, 2.0):
        norms = trajectory_report(SearchInstance(n=16, w=0, chi=chi), 30).bloch_norm
        usable = norms[1:] > 1e-5
        ratios = norms[1:][usable] / norms[:-1][usable]
        data.append((chi, ratios, abs(math.cos(2.0 * scalar_profile(chi).psi))))
    return data


def _bloch_contraction_constant(ratios: list) -> CheckResult:
    worst = max(float(np.max(np.abs(r - factor))) for _, r, factor in ratios)
    return CheckResult(
        "bloch_contraction_constant", worst <= 1e-8, worst,
        "ratio vs |cos(2 psi)| while norms stay above 1e-5, n=16",
    )


def _prop1_choi_gap(chi: float) -> DiscrepancyRecord:
    gap = channel_choi_distance(closed_form_kraus(chi), hamiltonian_kraus(chi))
    return DiscrepancyRecord(
        "prop1_choi_gap", float(chi), gap,
        "Choi distance between the closed-form Kraus pair and "
        "the Hamiltonian-extracted pair (the ground truth)",
    )


def _prop2_phase_gap(chi: float) -> DiscrepancyRecord:
    oracle, pair = nearest_unitary_oracle(chi), nearest_unitary_pair(chi)
    pairs = list(zip(oracle.operators, pair.operators))
    raw = max(float(np.linalg.norm(a - b)) for a, b in pairs)
    aligned = max(_aligned_distance(a, b) for a, b in pairs)
    return DiscrepancyRecord(
        "prop2_phase_gap", float(chi), aligned,
        f"per-operator gap between polar factors and the closed-form "
        f"rotation pair: raw {raw:.3e}, phase-aligned {aligned:.3e}",
    )


def _prop3_normalization() -> DiscrepancyRecord:
    chi = chi_star(1)
    n = 64
    horizon = int(math.ceil(4 * math.sqrt(n)))
    rep = trajectory_report(SearchInstance(n=n, w=0, chi=chi), horizon)
    best_p = float(np.max(rep.p_success))
    best_f_closed = float(np.max(rep.f_closed))
    return DiscrepancyRecord(
        "prop3_normalization", float(chi), float(1.0 - best_f_closed),
        f"closed-form radial fidelity peaks at {best_f_closed:.6f} "
        f"(ceiling 1/2), inconsistent with a unit peak; operational "
        f"success probability reaches {best_p:.6f} at n={n}",
    )


def _prop3_exponent(ratios: list) -> DiscrepancyRecord:
    res_m = max(abs(float(np.mean(r)) - c) for _, r, c in ratios)
    res_2m = max(abs(float(np.mean(r)) - c * c) for _, r, c in ratios)
    winner = "m" if res_m <= res_2m else "2m"
    return DiscrepancyRecord(
        "prop3_exponent", float(ratios[-1][0]), float(min(res_m, res_2m)),
        f"per-step Bloch decay matches |cos(2 psi)|^k with k per "
        f"iteration (exponent {winner}); residual {res_m:.3e} vs "
        f"{res_2m:.3e} for the squared alternative",
    )


def run_verification(seed: int = 0) -> VerificationReport:
    """Run every hard invariant and collect the ledger, in the lists' order.

    seed, an integer >= 0, draws the 100 completeness strengths and the
    ten composition channels; every other check runs on fixed inputs.
    """
    seed = _require_count("seed", seed, 0)
    ratios = _contraction_ratios()
    return VerificationReport(
        checks=[
            _completeness_grid(seed),
            _magic_psi_zero(),
            _psi_zero_scan(),
            _noiseless_reference(),
            _noiseless_channel_is_rotation(),
            _composition_stays_mixed_unitary(seed),
            _unitality(),
            _entropy_majorization_chain(),
            _bloch_contraction_constant(ratios),
        ],
        discrepancies=[
            *(_prop1_choi_gap(chi) for chi in (0.0, 0.5, 1.0, 2.0, 5.0, chi_star(1))),
            # each chi is at least 1.08 from a magic strength, where R1 is
            # singular, so every polar factor exists (smallest singular
            # value 0.094)
            *(_prop2_phase_gap(chi) for chi in (0.5, 2.0, 5.0, 8.0, 11.0)),
            _prop3_normalization(),
            _prop3_exponent(ratios),
        ],
    )

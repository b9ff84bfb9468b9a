"""Invariant gate and discrepancy ledger.

run_verification executes the hard invariants (completeness, magic-angle
zeros, the noiseless limit, composition, entropy and majorization chains,
contraction constancy, unitality) and collects DiscrepancyRecords for the
places where the closed-form expressions and the simulated ground truth are
known to part ways.  Hard failures gate the exit code; discrepancies are
reported, not failed, unless strict mode is requested.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import (
    bloch_contraction_factor,
    trajectory_report,
    trajectory_violations,
)
from .channels import (
    channel_choi_distance,
    choi_matrix,
    choi_of_map,
    compose_channels,
    unitary_channel,
)
from .noise import (
    chi_star,
    closed_form_kraus,
    hamiltonian_kraus,
    nearest_unitary_oracle,
    nearest_unitary_pair,
    psi_zero_scan,
    rotation_y,
    scalar_profile,
)
from .search import (
    SearchInstance,
    build_search_channel,
    ideal_grover_probability,
    iterate,
    success_probability,
    uniform_state,
)
from .tolerances import ORACLE_ATOL, TRACE_ATOL, UNITARITY_ATOL

__all__ = ["DiscrepancyRecord", "CheckResult", "VerificationReport", "run_verification"]

@dataclass(frozen=True)
class DiscrepancyRecord:
    """One machine-readable finding where a closed-form expression departs from
    the simulated ground truth."""

    kind: str
    chi: float
    magnitude: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one hard invariant check."""

    name: str
    passed: bool
    worst: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)

    @property
    def all_hard_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def max_discrepancy(self) -> float:
        return max((d.magnitude for d in self.discrepancies), default=0.0)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "discrepancies": [d.to_dict() for d in self.discrepancies],
            "all_hard_passed": self.all_hard_passed,
        }


def _aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over a global phase of ||a - e^{i phi} b||_F."""
    overlap = np.trace(a.conj().T @ b)
    if abs(overlap) < 1e-300:
        return float(np.linalg.norm(a - b))
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(a - phase * b))


def _check_completeness(report, seed: int) -> None:
    rng = np.random.default_rng(seed)
    chis = rng.uniform(0.0, 20.0, size=100)
    worst = 0.0
    for chi in chis:
        worst = max(worst, closed_form_kraus(chi).completeness_defect())
        worst = max(worst, hamiltonian_kraus(chi).completeness_defect())
    report.checks.append(
        CheckResult(
            name="completeness_grid",
            passed=worst <= TRACE_ATOL,
            worst=worst,
            detail="100 random chi in [0, 20], both constructions",
        )
    )


def _check_magic_angles(report) -> None:
    worst = max(scalar_profile(chi_star(n)).psi for n in range(1, 6))
    report.checks.append(
        CheckResult(
            name="magic_psi_zero",
            passed=worst <= UNITARITY_ATOL,
            worst=worst,
            detail="psi(chi_n) for n = 1..5",
        )
    )
    zeros = psi_zero_scan()
    expected = np.array([0.0, chi_star(1), chi_star(2)])
    ok = zeros.size == expected.size and np.all(
        np.abs(zeros - expected) <= 2e-3
    )
    worst_gap = (
        float(np.max(np.abs(zeros - expected))) if zeros.size == expected.size else math.inf
    )
    report.checks.append(
        CheckResult(
            name="psi_zero_scan",
            passed=bool(ok),
            worst=worst_gap,
            detail=f"scan [0, 13] step 1e-3 found {zeros.size} zeros",
        )
    )


def _check_ideal_limit(report) -> None:
    worst = 0.0
    for n in (4, 16, 64):
        inst = SearchInstance(n=n, w=0, chi=0.0)
        states = iterate(build_search_channel(inst), uniform_state(inst), 30)
        plane = trajectory_report(inst, 30).p_success.tolist()
        for m in range(31):
            ideal = ideal_grover_probability(n, m)
            dense = success_probability(states[m], 0)
            worst = max(worst, abs(dense - ideal), abs(plane[m] - ideal))
    report.checks.append(
        CheckResult(
            name="noiseless_reference",
            passed=worst <= ORACLE_ATOL,
            worst=worst,
            detail=(
                "chi=0 dense channel and plane report vs closed-form reference, "
                "n in {4,16,64}, m <= 30"
            ),
        )
    )


def _check_noiseless_rotation(report) -> None:
    gap = channel_choi_distance(
        hamiltonian_kraus(0.0), unitary_channel(rotation_y(math.pi / 4.0))
    )
    report.checks.append(
        CheckResult(
            name="noiseless_channel_is_rotation",
            passed=gap <= TRACE_ATOL,
            worst=gap,
            detail="Hamiltonian channel at chi=0 vs the pi/4 rotation map",
        )
    )


def _check_composition(report, seed: int) -> None:
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
        worst_choi = max(
            worst_choi, float(np.linalg.norm(choi_matrix(squared) - sequential))
        )
    passed = worst_unitarity <= UNITARITY_ATOL and worst_choi <= TRACE_ATOL
    report.checks.append(
        CheckResult(
            name="composition_stays_mixed_unitary",
            passed=passed,
            worst=max(worst_unitarity, worst_choi),
            detail="t o t generators unitary; Choi equals sequential application",
        )
    )


def _check_unitality(report) -> None:
    worst = 0.0
    for n, chi in ((4, 0.7), (16, 1.0), (16, chi_star(1)), (8, 5.0)):
        channel = build_search_channel(SearchInstance(n=n, w=0, chi=chi))
        maximally_mixed = np.eye(n, dtype=complex) / n
        worst = max(
            worst,
            float(np.linalg.norm(channel(maximally_mixed) - maximally_mixed)),
        )
    for chi in (0.0, 0.5, 2.0, 7.0):
        pair = nearest_unitary_pair(chi)
        worst_pair = float(np.max(pair.unitarity_defects()))
        half = np.eye(2, dtype=complex) / 2
        worst = max(worst, worst_pair, float(np.linalg.norm(pair(half) - half)))
    report.checks.append(
        CheckResult(
            name="unitality",
            passed=worst <= 1e-12,
            worst=worst,
            detail="identity/n is fixed; preconditioned generators unitary",
        )
    )


def _check_entropy_majorization(report) -> None:
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
    report.checks.append(
        CheckResult(
            name="entropy_majorization_chain",
            passed=violations == 0,
            worst=worst_drop,
            detail="chi in {0.5,1,2,5} x n in {4,16}, m <= 40",
        )
    )


def _check_contraction(report) -> list:
    """Hard constancy check in float64 at safe depth; returns ratio data."""
    worst = 0.0
    ratio_data = []
    for chi in (0.5, 1.0, 2.0):
        rep = trajectory_report(SearchInstance(n=16, w=0, chi=chi), 30)
        norms = rep.bloch_norm
        usable = norms[1:] > 1e-5
        ratios = norms[1:][usable] / norms[:-1][usable]
        factor = bloch_contraction_factor(chi)
        worst = max(worst, float(np.max(np.abs(ratios - factor))))
        ratio_data.append((chi, float(np.mean(ratios)), factor))
    report.checks.append(
        CheckResult(
            name="bloch_contraction_constant",
            passed=worst <= 1e-8,
            worst=worst,
            detail="ratio vs |cos(2 psi)| while norms stay above 1e-5, n=16",
        )
    )
    return ratio_data


def _record_choi_gaps(report) -> None:
    for chi in (0.0, 0.5, 1.0, 2.0, 5.0, chi_star(1)):
        gap = channel_choi_distance(closed_form_kraus(chi), hamiltonian_kraus(chi))
        report.discrepancies.append(
            DiscrepancyRecord(
                kind="prop1_choi_gap",
                chi=float(chi),
                magnitude=gap,
                detail=(
                    "Choi distance between the closed-form Kraus pair and "
                    "the Hamiltonian-extracted pair (the ground truth)"
                ),
            )
        )


def _record_phase_gaps(report) -> None:
    # each chi is at least 1.08 from a magic strength, where R1 is singular,
    # so every polar factor exists (smallest singular value 0.094)
    for chi in (0.5, 2.0, 5.0, 8.0, 11.0):
        pair = nearest_unitary_pair(chi)
        oracle = nearest_unitary_oracle(chi)
        raw = max(
            float(np.linalg.norm(a - b))
            for a, b in zip(oracle.operators, pair.operators)
        )
        aligned = max(
            _aligned_distance(a, b)
            for a, b in zip(oracle.operators, pair.operators)
        )
        report.discrepancies.append(
            DiscrepancyRecord(
                kind="prop2_phase_gap",
                chi=float(chi),
                magnitude=aligned,
                detail=(
                    f"per-operator gap between polar factors and the closed-form "
                    f"rotation pair: raw {raw:.3e}, phase-aligned {aligned:.3e}"
                ),
            )
        )


def _record_normalization(report) -> None:
    chi = chi_star(1)
    n = 64
    horizon = int(math.ceil(4 * math.sqrt(n)))
    rep = trajectory_report(SearchInstance(n=n, w=0, chi=chi), horizon)
    best_p = float(np.max(rep.p_success))
    best_f_closed = float(np.max(rep.f_closed))
    report.discrepancies.append(
        DiscrepancyRecord(
            kind="prop3_normalization",
            chi=float(chi),
            magnitude=float(1.0 - best_f_closed),
            detail=(
                f"closed-form radial fidelity peaks at {best_f_closed:.6f} "
                f"(ceiling 1/2), inconsistent with a unit peak; operational "
                f"success probability reaches {best_p:.6f} at n={n}"
            ),
        )
    )


def _record_exponent(report, ratio_data) -> None:
    res_m = max(abs(mean - c) for _, mean, c in ratio_data)
    res_2m = max(abs(mean - c * c) for _, mean, c in ratio_data)
    winner = "m" if res_m <= res_2m else "2m"
    report.discrepancies.append(
        DiscrepancyRecord(
            kind="prop3_exponent",
            chi=float(ratio_data[-1][0]),
            magnitude=float(min(res_m, res_2m)),
            detail=(
                f"per-step Bloch decay matches |cos(2 psi)|^k with k per "
                f"iteration (exponent {winner}); residual {res_m:.3e} vs "
                f"{res_2m:.3e} for the squared alternative"
            ),
        )
    )


def run_verification(seed: int = 0) -> VerificationReport:
    """Run every hard invariant and collect the discrepancy ledger.

    seed draws the 100 completeness strengths and the ten composition
    channels; every other check runs on fixed inputs.
    """
    report = VerificationReport()
    _check_completeness(report, seed)
    _check_magic_angles(report)
    _check_ideal_limit(report)
    _check_noiseless_rotation(report)
    _check_composition(report, seed)
    _check_unitality(report)
    _check_entropy_majorization(report)
    ratio_data = _check_contraction(report)
    _record_choi_gaps(report)
    _record_phase_gaps(report)
    _record_normalization(report)
    _record_exponent(report, ratio_data)
    return report

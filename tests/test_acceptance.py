"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
A3 at N=16 is a known, documented failure (strict xfail): at the first
magic strength the trajectory is a rigid Bloch rotation, so the angular
cosine equals 2*p_success - 1; within the allowed m <= 16 window the
orbit approaches the target axis no closer than 0.183 rad, giving
cos(gamma) = 0.983 < 0.99 while p_success = 0.9916 >= 0.95 passes.  The
two thresholds cannot hold simultaneously there.
"""

import math
import time

import numpy as np
import pytest

from noisy_grover.analysis import trajectory_report
from noisy_grover.channels import (
    choi_matrix,
    choi_of_map,
    closed_form_kraus,
    compose_channels,
    hamiltonian_kraus,
)
from noisy_grover.cli import main
from noisy_grover.noise import chi_star, psi_zero_scan, scalar_profile
from noisy_grover.search import SearchInstance
from noisy_grover.verify import build_search_channel, ideal_grover_probability

from oracles import (
    angular_fidelity,
    high_precision_bloch_norms,
    iterate,
    success_probability,
    uniform_state,
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_a1_completeness_of_both_constructions():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for chi in rng.uniform(0.0, 20.0, size=100):
        worst = max(worst, closed_form_kraus(chi).completeness_defect())
        worst = max(worst, hamiltonian_kraus(chi).completeness_defect())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    verdict("A1 completeness", ok, f"worst defect {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_a2_magic_strengths():
    start = time.perf_counter()
    worst_psi = max(scalar_profile(chi_star(n)).psi for n in range(1, 6))
    zeros = psi_zero_scan()
    expected = np.array([0.0, chi_star(1), chi_star(2)])
    scan_ok = zeros.size == 3 and bool(np.all(np.abs(zeros - expected) <= 2e-3))
    elapsed = time.perf_counter() - start
    ok = worst_psi <= 1e-10 and scan_ok and elapsed < 5.0
    verdict(
        "A2 magic strengths",
        ok,
        f"max psi(chi_n) {worst_psi:.2e}, scan zeros {np.round(zeros, 4)}, "
        f"{elapsed:.2f}s",
    )
    assert worst_psi <= 1e-10
    assert scan_ok
    assert elapsed < 5.0


@pytest.mark.parametrize(
    "n",
    [
        pytest.param(
            16,
            marks=pytest.mark.xfail(
                strict=True,
                reason=(
                    "unattainable: at chi_1 the state stays pure, so "
                    "cos(gamma) = 2 p_success - 1; the best approach within "
                    "m <= 16 is 0.1832 rad for either rotation orientation, "
                    "giving cos(gamma) = 0.9833 < 0.99 even though p_success "
                    "= 0.9916 >= 0.95"
                ),
            ),
        ),
        64,
        256,
    ],
)
def test_a3_robust_search_at_first_magic_strength(n):
    start = time.perf_counter()
    horizon = math.ceil(4 * math.sqrt(n))
    inst = SearchInstance(n=n, w=0, chi=chi_star(1))
    states = iterate(build_search_channel(inst), uniform_state(inst), horizon)
    probs = np.array([success_probability(s, 0) for s in states])
    best = int(np.argmax(probs))
    cos_gamma = angular_fidelity(states[best], inst)
    overlap_cos = 2.0 * probs[best] - 1.0  # equals cos_gamma on pure states
    elapsed = time.perf_counter() - start
    ok = probs[best] >= 0.95 and cos_gamma >= 0.99 and elapsed < 30.0
    verdict(
        f"A3 robust search N={n}",
        ok,
        f"max p {probs[best]:.6f} at m={best}/{horizon}, cos_gamma "
        f"{cos_gamma:.6f} (pure-state identity 2p-1 = {overlap_cos:.6f}), "
        f"{elapsed:.1f}s",
    )
    assert probs[best] >= 0.95
    assert cos_gamma >= 0.99
    assert elapsed < 30.0


def test_a4_noiseless_limit_matches_reference():
    worst = 0.0
    for n in (4, 16, 64):
        inst = SearchInstance(n=n, w=0, chi=0.0)
        states = iterate(build_search_channel(inst), uniform_state(inst), 30)
        for m in range(31):
            sim = success_probability(states[m], 0)
            worst = max(worst, abs(sim - ideal_grover_probability(inst, m)))
    inst4 = SearchInstance(n=4, w=0, chi=0.0)
    single = success_probability(
        iterate(build_search_channel(inst4), uniform_state(inst4), 1)[1], 0
    )
    ok = worst <= 1e-9 and abs(single - 1.0) <= 1e-10
    verdict(
        "A4 noiseless limit", ok, f"worst gap {worst:.2e}, p(N=4, m=1) = {single}"
    )
    assert worst <= 1e-9
    assert abs(single - 1.0) <= 1e-10


def test_a5_exponential_bloch_damping():
    lines = []
    ok_all = True
    for chi in (0.5, 1.0, 2.0):
        inst = SearchInstance(n=16, w=0, chi=chi)
        norms = high_precision_bloch_norms(inst, 30, dps=40)
        ratios = norms[1:] / norms[:-1]
        spread = float(ratios.max() - ratios.min())
        constant = float(ratios.mean())
        factor = abs(math.cos(2.0 * scalar_profile(chi).psi))
        residual_single = abs(constant - factor)
        residual_squared = abs(constant - factor**2)
        winner = "m" if residual_single <= residual_squared else "2m"
        ok = spread <= 1e-8 and winner == "m" and residual_single < 1e-6
        ok_all = ok_all and ok
        lines.append(
            f"chi={chi}: spread {spread:.2e}, const {constant:.10f} vs "
            f"|cos 2psi| {factor:.10f} (residual {residual_single:.2e}), "
            f"vs squared (residual {residual_squared:.2e}) -> exponent {winner}"
        )
        assert spread <= 1e-8
        assert residual_single < 1e-6
        assert residual_single <= residual_squared
    verdict("A5 Bloch damping", ok_all, "; ".join(lines))


def test_a6_entropy_and_majorization():
    start = time.perf_counter()
    worst_drop = 0.0
    weakest_gain = math.inf
    all_majorized = True
    for chi in (0.5, 1.0, 2.0, 5.0):
        for n in (4, 16):
            rep = trajectory_report(SearchInstance(n=n, w=0, chi=chi), 40)
            ent = np.array(rep.entropies)
            worst_drop = max(worst_drop, float(np.max(ent[:-1] - ent[1:], initial=0.0)))
            for k in range(1, 41):
                if rep.bloch_norm[k - 1] > 1e-3:
                    weakest_gain = min(weakest_gain, ent[k] - ent[k - 1])
            all_majorized = all_majorized and all(rep.majorized_by_prev)
            all_majorized = all_majorized and all(rep.majorized_by_init)
    elapsed = time.perf_counter() - start
    ok = (
        worst_drop <= 1e-12
        and weakest_gain > 1e-8
        and all_majorized
        and elapsed < 10.0
    )
    verdict(
        "A6 entropy and majorization",
        ok,
        f"worst entropy drop {worst_drop:.2e}, weakest strict gain "
        f"{weakest_gain:.2e}, majorization {all_majorized}, {elapsed:.1f}s",
    )
    assert worst_drop <= 1e-12
    assert weakest_gain > 1e-8
    assert all_majorized
    assert elapsed < 10.0


def test_a7_composition_stays_mixed_unitary():
    rng = np.random.default_rng(7)
    worst_unitarity = 0.0
    worst_choi = 0.0
    for _ in range(10):
        chi = float(rng.uniform(0.0, 13.0))
        n = int(rng.choice([2, 3, 4, 6, 8, 12]))
        t = build_search_channel(SearchInstance(n=n, w=0, chi=chi))
        squared = compose_channels(t, t)
        worst_unitarity = max(
            worst_unitarity, float(np.max(squared.unitarity_defects()))
        )
        sequential = choi_of_map(lambda r: t(t(r)), n)
        worst_choi = max(
            worst_choi, float(np.linalg.norm(choi_matrix(squared) - sequential))
        )
    ok = worst_unitarity <= 1e-10 and worst_choi <= 1e-10
    verdict(
        "A7 composition",
        ok,
        f"worst generator unitarity {worst_unitarity:.2e}, worst Choi gap "
        f"{worst_choi:.2e} over 10 seeded pairs",
    )
    assert worst_unitarity <= 1e-10
    assert worst_choi <= 1e-10


def test_a8_discrepancies_surface_not_hidden(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--out", str(out)])
    strict_code = main(["verify", "--strict-paper"])
    capsys.readouterr()
    import json

    payload = json.loads(out.read_text())
    gap_zero = [
        d for d in payload["discrepancies"]
        if d["kind"] == "prop1_choi_gap" and d["chi"] == 0.0
    ]
    norm_found = any(
        d["kind"] == "prop3_normalization" for d in payload["discrepancies"]
    )
    ok = (
        code == 0
        and strict_code == 2
        and bool(gap_zero)
        and gap_zero[0]["magnitude"] > 0.1
        and norm_found
    )
    verdict(
        "A8 discrepancy ledger",
        ok,
        f"verify exit {code}, strict exit {strict_code}, chi=0 gap "
        f"{gap_zero[0]['magnitude'] if gap_zero else 'missing'}",
    )
    assert code == 0
    assert strict_code == 2
    assert gap_zero and gap_zero[0]["magnitude"] > 0.1
    assert norm_found

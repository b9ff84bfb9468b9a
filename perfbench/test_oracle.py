"""Tests of the plane oracle alone; they make no use of noisy_grover.

Run with: python3 -m pytest perfbench/test_oracle.py
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracle import magic_chi, plane_trajectory, psi_of  # noqa: E402


@pytest.mark.parametrize("n", [2, 4, 16, 64, 1000, 2**20])
def test_noiseless_limit_is_textbook_grover(n):
    got = plane_trajectory(n, 0.0, 60)["p_success"]
    theta = math.asin(1.0 / math.sqrt(n))
    for m, p in enumerate(got):
        assert p == pytest.approx(math.sin((2 * m + 1) * theta) ** 2, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [4, 64, 4096])
def test_magic_strengths_keep_the_state_pure(k, n):
    traj = plane_trajectory(n, magic_chi(k), 500)
    assert max(abs(b - 1.0) for b in traj["bloch_norm"]) < 1e-12
    assert max(traj["entropy_nats"]) < 1e-10


@pytest.mark.parametrize("chi", [0.0, 0.3, 2.0, magic_chi(1), 7.5, 11.0])
def test_psi_solves_its_defining_relation(chi):
    mu = math.sqrt(chi**2 / 4 + math.pi**2 / 16)
    delta = math.sin(mu) / mu
    psi = psi_of(chi)
    assert 0.0 <= psi <= math.pi / 2
    lhs = (math.cos(mu) ** 2 + chi**2 / 4 * delta**2) * math.cos(psi) ** 2
    assert lhs == pytest.approx(math.cos(mu) ** 2, abs=1e-15)


def test_noise_contracts_the_bloch_vector_by_cos_2psi():
    chi = 2.0
    norms = plane_trajectory(16, chi, 30)["bloch_norm"]
    factor = abs(math.cos(2.0 * psi_of(chi)))
    for before, after in zip(norms, norms[1:]):
        assert after == pytest.approx(before * factor, rel=1e-9)

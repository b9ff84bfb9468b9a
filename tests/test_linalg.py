"""Tests of channels' matrix helpers, once the linalg module, and of the
eigvals_hermitian oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisy_grover.channels import (
    PAULI_Y,
    matexp_i_hermitian,
    polar_unitary_factor,
    unitarity_defect,
)
from noisy_grover.errors import DegeneratePolar, DimensionMismatch, NotHermitian

from conftest import random_hermitian, random_unitary
from oracles import eigvals_hermitian

I2 = np.eye(2, dtype=complex)


def expm_i_series(h: np.ndarray) -> np.ndarray:
    """Independent oracle: truncated power series of exp(i h)."""
    acc = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, 200):
        term = term @ (1j * h) / k
        acc = acc + term
        if np.max(np.abs(term)) < 1e-20:
            break
    return acc


class TestMatexp:
    def test_zero_exponent(self):
        assert_allclose(matexp_i_hermitian(np.zeros((3, 3))), np.eye(3))

    def test_quarter_turn_closed_form(self):
        got = matexp_i_hermitian(np.pi / 4 * PAULI_Y)
        c = np.cos(np.pi / 4)
        assert_allclose(got, np.array([[c, c], [-c, c]]), atol=1e-14)
        assert_allclose(got, expm_i_series(np.pi / 4 * PAULI_Y), atol=1e-14)

    def test_scalar_phase(self):
        assert_allclose(
            matexp_i_hermitian(np.pi * np.eye(2)), -np.eye(2), atol=1e-14
        )

    def test_inverse_property(self, rng):
        for dim in (2, 3, 5, 8):
            h = random_hermitian(rng, dim)
            prod = matexp_i_hermitian(h) @ matexp_i_hermitian(-h)
            assert np.linalg.norm(prod - np.eye(dim)) <= 1e-10

    def test_matches_series_oracle(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            h = random_hermitian(rng, dim)
            h *= rng.uniform(0.1, 10.0) / max(np.linalg.norm(h), 1e-12)
            assert np.max(
                np.abs(matexp_i_hermitian(h) - expm_i_series(h))
            ) <= 1e-9

    def test_result_is_unitary(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 4, scale=3.0)
            assert unitarity_defect(matexp_i_hermitian(h)) <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matexp_i_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPolar:
    def test_positive_scalar_multiple(self):
        assert_allclose(polar_unitary_factor(2.0 * I2), I2, atol=1e-14)

    def test_permutation_times_diagonal(self):
        got = polar_unitary_factor(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert_allclose(got, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)

    def test_factor_is_frobenius_nearest_unitary(self, rng):
        # exact characterization (Higham 1986): W is the Frobenius-nearest
        # unitary to m iff W is unitary and m W^dag is Hermitian PSD; the
        # first 20 matrices also face a sampling oracle: no random unitary
        # gets closer than the factor
        for k in range(100):
            u = random_unitary(rng, 2)
            v = random_unitary(rng, 2)
            sv = rng.uniform(0.1, 10.0, size=2)
            m = u @ np.diag(sv).astype(complex) @ v
            w = polar_unitary_factor(m)
            assert unitarity_defect(w) <= 1e-12
            p = m @ w.conj().T
            assert np.max(np.abs(p - p.conj().T)) <= 1e-12 * np.max(sv)
            assert np.min(np.linalg.eigvalsh((p + p.conj().T) / 2)) >= 0.0
            if k < 20:
                base = np.linalg.norm(m - w)
                trials = min(
                    np.linalg.norm(m - random_unitary(rng, 2)) for _ in range(200)
                )
                assert base <= trials + 1e-12

    def test_left_cofactor_hermitian_positive(self, rng):
        for dim in (2, 3, 5):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = z + 3.0 * np.eye(dim)
            w = polar_unitary_factor(m)
            p = m @ w.conj().T
            assert np.max(np.abs(p - p.conj().T)) <= 1e-9
            assert np.min(np.linalg.eigvalsh((p + p.conj().T) / 2)) > 0

    def test_factor_is_unitary(self, rng):
        for dim in (2, 4, 6):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            z += 2.0 * np.eye(dim)
            assert unitarity_defect(polar_unitary_factor(z)) <= 1e-10

    def test_singular_input_rejected(self):
        with pytest.raises(DegeneratePolar):
            polar_unitary_factor(np.zeros((2, 2)))
        with pytest.raises(DegeneratePolar):
            polar_unitary_factor(np.diag([1.0, 0.0, 2.0]))


class TestEigvalsHermitian:
    def test_diagonal(self):
        assert_allclose(eigvals_hermitian(np.diag([0.3, 0.7])), [0.7, 0.3])

    def test_maximally_mixed(self):
        assert_allclose(eigvals_hermitian(np.eye(2) / 2), [0.5, 0.5])

    def test_bloch_closed_form(self):
        rho = 0.5 * (np.eye(2) + 0.6 * np.diag([1.0, -1.0]))
        assert_allclose(eigvals_hermitian(rho), [0.8, 0.2], atol=1e-14)

    def test_descending_order(self, rng):
        vals = eigvals_hermitian(random_hermitian(rng, 6))
        assert np.all(np.diff(vals) <= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigvals_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_non_square_non_finite_and_stacked_input(self):
        bad = np.eye(2)
        bad[1, 0] = np.nan
        for matrix in (np.zeros((2, 3)), np.zeros(3), bad, np.zeros((4, 2, 2))):
            with pytest.raises(DimensionMismatch):
                eigvals_hermitian(matrix)

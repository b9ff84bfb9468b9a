"""Self-tests of the test oracles in tests/oracles.py: the Hermitian
spectrum and the density-matrix validation the other test modules rely on."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from noisy_grover.errors import DimensionMismatch, NotHermitian

from conftest import random_density, random_hermitian
from oracles import InvalidDensityMatrix, check_density_matrix, eigvals_hermitian


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


class TestDensityValidation:
    def test_valid_state_passes(self, rng):
        check_density_matrix(random_density(rng, 5))

    def test_invalid_states_raise(self):
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(np.eye(3, dtype=complex))  # trace 3
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(bad)
        skew = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(InvalidDensityMatrix):
            check_density_matrix(skew)

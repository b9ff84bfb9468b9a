import numpy as np
import pytest

from noisy_grover.channels import KrausChannel

# frozen from a 30-digit evaluation of the defining formulas; test_noise and
# test_channels both read them
PSI_AT_2 = 1.1969609816743351
CHI_STAR_1 = 6.0836680139604178


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (z + z.conj().T) / 2.0


def random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_kraus_blocks(rng, dim: int, n_ops: int) -> tuple:
    """n_ops dim x dim blocks of a Haar-ish isometry: a complete Kraus family."""
    z = rng.normal(size=(n_ops * dim, dim)) + 1j * rng.normal(size=(n_ops * dim, dim))
    isometry, _ = np.linalg.qr(z)
    return tuple(isometry[i * dim : (i + 1) * dim] for i in range(n_ops))


def random_channel(rng, dim: int, n_ops: int) -> KrausChannel:
    """Random trace-preserving channel from a Haar-ish isometry."""
    return KrausChannel(random_kraus_blocks(rng, dim, n_ops))

"""Shared fixtures: default configs and reproducible random states."""

import numpy as np
import pytest

from spinsync import DriveConfig, SpinSystemConfig

SEED = 20260819


# session scope is safe: both config types are immutable named tuples
@pytest.fixture(scope="session")
def config() -> SpinSystemConfig:
    return SpinSystemConfig()


@pytest.fixture(scope="session")
def drive() -> DriveConfig:
    return DriveConfig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)


def random_density(rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Wishart construction)."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / rho.trace()


def doublet_coherent_density(
    populations, coherence: complex
) -> np.ndarray:
    """Diagonal state plus a single coherence on the driven pair.

    ``coherence`` sits at rho42, matrix entry (0, 2); its magnitude must
    keep the state positive (|c|^2 <= p4 * p2).
    """
    rho = np.diag(np.asarray(populations, dtype=complex))
    rho[0, 2] = coherence
    rho[2, 0] = np.conj(coherence)
    return rho

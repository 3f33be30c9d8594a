"""Two-spin system definition: configuration, operators, thermal state.

The model is a heteronuclear spin-1/2 pair (labelled P and F) in a strong
static field, described in the product basis ordered by decreasing energy
of the lab-frame Hamiltonian.  All frequencies in configuration objects are
plain Hz; operator-valued functions return matrices in rad/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# SI values; tests cross-check against scipy.constants.
HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

# Gyromagnetic ratios as configuration constants (Hz per tesla, gamma/2pi).
# Physics code reads these through the config so no nuclide is hard-coded.
GAMMA_P_HZ_PER_TESLA = 17.235e6
GAMMA_F_HZ_PER_TESLA = 40.078e6

DEFAULT_FIELD_TESLA = 11.4
DEFAULT_TEMPERATURE_K = 298.0

# Energy-ordered level labels.  Index 0 of every matrix is the highest
# level |4>, index 3 the lowest |1>.
LEVEL_LABELS = (4, 3, 2, 1)

_SINGLE_SPIN = {
    # Single-spin operators in the (m=-1/2, m=+1/2) basis ordering used
    # throughout; [Ix, Iy] = i Iz holds in this ordering.
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


@dataclass(frozen=True)
class BasisOrdering:
    """Mapping between energy-ordered level labels and product states.

    ``levels[k]`` gives the (m_P, m_F) quantum numbers of the level in
    matrix row/column k.  The default ordering puts the highest-energy
    level first and fixes the two middle levels so that {|4>, |2>} and
    {|3>, |1>} are the P-spin-flip pairs (each pair shares its F
    orientation); |4> and |1> are always the energy extremes.
    """

    levels: tuple[tuple[float, float], ...] = (
        (-0.5, -0.5),  # |4>  highest energy
        (-0.5, +0.5),  # |3>
        (+0.5, -0.5),  # |2>  P-flip partner of |4>
        (+0.5, +0.5),  # |1>  lowest energy
    )

    def index_of_level(self, label: int) -> int:
        """Matrix index of the level with the given label (4, 3, 2 or 1)."""
        return LEVEL_LABELS.index(label)

    def quantum_numbers(self, label: int) -> tuple[float, float]:
        """(m_P, m_F) of a labelled level."""
        return self.levels[self.index_of_level(label)]


DEFAULT_BASIS = BasisOrdering()


def spin_operator(species: str, axis: str) -> np.ndarray:
    """Angular momentum component of one spin, embedded in the pair space.

    Parameters
    ----------
    species : {"P", "F"}
        Which spin the operator acts on.
    axis : {"x", "y", "z"}
        Cartesian component.

    Returns
    -------
    numpy.ndarray
        4x4 complex matrix in the energy-ordered basis.  Eigenvalues of
        any component are +/- 1/2.
    """
    if species not in ("P", "F"):
        raise ValueError(f"unknown species {species!r}, expected 'P' or 'F'")
    if axis not in _SINGLE_SPIN:
        raise ValueError(f"unknown axis {axis!r}, expected 'x', 'y' or 'z'")
    single = _SINGLE_SPIN[axis]
    eye = np.eye(2, dtype=complex)
    if species == "P":
        return np.kron(single, eye)
    return np.kron(eye, single)


def default_purity_factors(
    field_tesla: float = DEFAULT_FIELD_TESLA,
    temperature_k: float = DEFAULT_TEMPERATURE_K,
    gamma_p_hz_per_tesla: float = GAMMA_P_HZ_PER_TESLA,
    gamma_f_hz_per_tesla: float = GAMMA_F_HZ_PER_TESLA,
) -> tuple[float, float]:
    """High-temperature purity factors (epsilon_P, epsilon_F).

    epsilon = hbar * gamma * B0 / (4 kB T) for a two-spin system; of order
    1e-5 at common fields and room temperature.  Their ratio equals the
    ratio of gyromagnetic ratios exactly.
    """
    if field_tesla <= 0.0:
        raise ValueError("field must be positive")
    if temperature_k <= 0.0:
        raise ValueError("temperature must be positive")
    scale = HBAR * 2.0 * math.pi * field_tesla / (4.0 * KB * temperature_k)
    return scale * gamma_p_hz_per_tesla, scale * gamma_f_hz_per_tesla


@dataclass(frozen=True)
class SpinSystemConfig:
    """Static parameters of the spin pair.

    Frequencies are in Hz.  ``offset_p_hz`` defaults to -J/2, which makes
    one P transition resonant in the doubly rotating frame; purity factors
    default to the values for ``field_tesla`` and ``temperature_k``.
    """

    j_coupling_hz: float = 868.0
    offset_p_hz: float | None = None
    offset_f_hz: float = 0.0
    t1_p_s: float = 10.0
    t1_f_s: float = 10.0
    epsilon_p: float | None = None
    epsilon_f: float | None = None
    field_tesla: float = DEFAULT_FIELD_TESLA
    temperature_k: float = DEFAULT_TEMPERATURE_K
    gamma_p_hz_per_tesla: float = GAMMA_P_HZ_PER_TESLA
    gamma_f_hz_per_tesla: float = GAMMA_F_HZ_PER_TESLA
    basis: BasisOrdering = field(default=DEFAULT_BASIS)

    def __post_init__(self) -> None:
        if not self.j_coupling_hz > 0.0:
            raise ValueError("j_coupling_hz must be positive")
        if self.t1_p_s <= 0.0 or self.t1_f_s <= 0.0:
            raise ValueError("relaxation times must be positive")
        if self.gamma_p_hz_per_tesla <= 0.0 or self.gamma_f_hz_per_tesla <= 0.0:
            raise ValueError("gyromagnetic ratios must be positive")
        if self.offset_p_hz is None:
            object.__setattr__(self, "offset_p_hz", -0.5 * self.j_coupling_hz)
        if self.epsilon_p is None or self.epsilon_f is None:
            eps_p, eps_f = default_purity_factors(
                self.field_tesla,
                self.temperature_k,
                self.gamma_p_hz_per_tesla,
                self.gamma_f_hz_per_tesla,
            )
            if self.epsilon_p is None:
                object.__setattr__(self, "epsilon_p", eps_p)
            if self.epsilon_f is None:
                object.__setattr__(self, "epsilon_f", eps_f)
        for eps in (self.epsilon_p, self.epsilon_f):
            # The high-temperature treatment breaks down well before 0.1.
            if not 0.0 <= eps < 0.1:
                raise ValueError("purity factors must lie in [0, 0.1)")
        if not (
            math.isfinite(self.offset_p_hz) and math.isfinite(self.offset_f_hz)
        ):
            raise ValueError("offsets must be finite")


@dataclass(frozen=True)
class DriveConfig:
    """Drive parameters: amplitude and detuning in Hz, duration in s."""

    amplitude_hz: float = 0.1
    detuning_hz: float = 0.0
    duration_s: float = 100.0

    def __post_init__(self) -> None:
        if self.amplitude_hz < 0.0:
            raise ValueError("drive amplitude must be non-negative")
        if self.duration_s < 0.0:
            raise ValueError("drive duration must be non-negative")
        for value, what in (
            (self.amplitude_hz, "drive amplitude"),
            (self.duration_s, "drive duration"),
            (self.detuning_hz, "detuning"),
        ):
            if not math.isfinite(value):
                raise ValueError(f"{what} must be finite")


def larmor_frequencies(config: SpinSystemConfig) -> tuple[float, float]:
    """Lab-frame Larmor frequencies (omega_P, omega_F) in rad/s.

    omega = -gamma * B0; negative for the positive gyromagnetic ratios
    used here, so m = +1/2 states sit lowest.
    """
    b0 = config.field_tesla
    return (
        -2.0 * math.pi * config.gamma_p_hz_per_tesla * b0,
        -2.0 * math.pi * config.gamma_f_hz_per_tesla * b0,
    )


def _spin_weights(epsilon: float) -> tuple[float, float]:
    # Boltzmann weights (w_minus, w_plus) of the m = -1/2 / +1/2 states of
    # one spin; w_minus / w_plus = exp(-4 epsilon) exactly.
    w_minus = 1.0 / (1.0 + math.exp(4.0 * epsilon))
    return w_minus, 1.0 - w_minus


def thermal_state(config: SpinSystemConfig) -> np.ndarray:
    """Equilibrium density matrix of the undriven pair.

    Populations are products of per-spin Boltzmann weights whose ratio
    across any single-spin flip is exp(-4 epsilon); this is the exact
    fixed point of the relaxation model and agrees with the linearized
    form 1/4 + epsilon_P I_z^P + epsilon_F I_z^F to O(epsilon^2).
    Lower-energy states are more populated.
    """
    wp = _spin_weights(config.epsilon_p)
    wf = _spin_weights(config.epsilon_f)
    pops = [
        wp[0 if mp < 0 else 1] * wf[0 if mf < 0 else 1]
        for mp, mf in config.basis.levels
    ]
    return np.diag(np.asarray(pops, dtype=complex))


def check_density_matrix(
    rho: np.ndarray,
    *,
    herm_tol: float = 1e-12,
    trace_tol: float = 1e-10,
    psd_tol: float = 1e-9,
) -> np.ndarray:
    """Validate a 4x4 density matrix; returns it unchanged or raises."""
    rho = np.asarray(rho)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("density matrix has non-finite entries")
    herm_err = np.max(np.abs(rho - rho.conj().T))
    if herm_err > herm_tol:
        raise ValueError(f"density matrix not Hermitian: deviation {herm_err:.3e}")
    trace_err = abs(rho.trace() - 1.0)
    if trace_err > trace_tol:
        raise ValueError(f"density matrix trace off by {trace_err:.3e}")
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < -psd_tol:
        raise ValueError(f"density matrix has eigenvalue {min_eig:.3e}")
    return rho

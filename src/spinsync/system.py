"""The two-spin model: configuration, operators, Hamiltonian terms,
relaxation and the thermal state it restores.

The model is a heteronuclear spin-1/2 pair (labelled P and F) in a strong
static field, described in the product basis ordered by decreasing energy
of the lab-frame Hamiltonian.  All frequencies in configuration objects are
plain Hz; operator-valued functions return matrices in rad/s.

In the frame rotating with both transmitter carriers only the offsets, the
scalar coupling, the detuning and the drive survive; the generator is built
from three terms: the drift at zero detuning, the detuning term and the
static drive term.  Each spin exchanges quanta with its own bath; the
partner spin is a spectator, so every allowed transition flips exactly one
spin while the other keeps its orientation.  One rule,
``_orientation_weight``, weights a spin's orientation in the thermal
populations and in the rates of the jumps into it, so the jumps balance the
thermal state in detail.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations

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
# Default drive duration in s: DriveConfig's and the propagated tongue's.
DRIVE_DURATION_S = 100.0

# Energy-ordered level labels.  Index 0 of every matrix is the highest
# level |4>, index 3 the lowest |1>.
LEVEL_LABELS = (4, 3, 2, 1)
# (m_P, m_F) of the level at each matrix index.  {|4>, |2>} and
# {|3>, |1>} are the P-spin-flip pairs (each pair shares its F
# orientation); spin_operator's Kronecker order yields this ordering.
LEVELS = (
    (-0.5, -0.5),  # |4>  highest energy
    (-0.5, +0.5),  # |3>
    (+0.5, -0.5),  # |2>  P-flip partner of |4>
    (+0.5, +0.5),  # |1>  lowest energy
)
# LEVEL_LABELS and LEVELS in index order, as output metadata states the basis.
BASIS_DESCRIPTION = (
    "|4>=(mP=-1/2,mF=-1/2) |3>=(-1/2,+1/2) |2>=(+1/2,-1/2) |1>=(+1/2,+1/2)"
)

_SINGLE_SPIN = {
    # Single-spin operators in the (m=-1/2, m=+1/2) basis ordering used
    # throughout; [Ix, Iy] = i Iz holds in this ordering.
    "x": np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex),
    "y": np.array([[0.0, 0.5j], [-0.5j, 0.0]], dtype=complex),
    "z": np.array([[-0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


class ConfigError(ValueError):
    """A value the caller chose breaks a rule of the library: a config field,
    a sweep axis, a duration or a sample set.  The CLI exits 2 on it, and 1
    on any other ValueError, an engine failure."""


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
        raise ConfigError("field must be positive")
    if temperature_k <= 0.0:
        raise ConfigError("temperature must be positive")
    scale = HBAR * 2.0 * math.pi * field_tesla / (4.0 * KB * temperature_k)
    return scale * gamma_p_hz_per_tesla, scale * gamma_f_hz_per_tesla


@classmethod
def _checked_make(cls, fields):
    """``_make`` of a checked named tuple: the named tuple's own length
    check (TypeError), then the constructor's checks, which ``_replace``
    thereby runs too."""
    fields = tuple(fields)
    if len(fields) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(fields)}")
    return cls(*fields)


class SpinSystemConfig(namedtuple("SpinSystemConfig", (
    "j_coupling_hz", "offset_p_hz", "offset_f_hz", "t1_p_s", "t1_f_s",
    "epsilon_p", "epsilon_f", "field_tesla", "temperature_k",
    "gamma_p_hz_per_tesla", "gamma_f_hz_per_tesla",
))):
    """Static parameters of the spin pair.

    Frequencies are in Hz.  ``offset_p_hz`` defaults to -J/2, which makes
    one P transition resonant in the doubly rotating frame; purity factors
    default to the values for ``field_tesla`` and ``temperature_k``.  An
    immutable named tuple, equal and hashed by value; ``_replace`` checks
    like the constructor but keeps the resolved offset and purity factors.
    """

    __slots__ = ()
    _make = _checked_make

    def __new__(
        cls,
        j_coupling_hz: float = 868.0,
        offset_p_hz: float | None = None,
        offset_f_hz: float = 0.0,
        t1_p_s: float = 10.0,
        t1_f_s: float = 10.0,
        epsilon_p: float | None = None,
        epsilon_f: float | None = None,
        field_tesla: float = DEFAULT_FIELD_TESLA,
        temperature_k: float = DEFAULT_TEMPERATURE_K,
        gamma_p_hz_per_tesla: float = GAMMA_P_HZ_PER_TESLA,
        gamma_f_hz_per_tesla: float = GAMMA_F_HZ_PER_TESLA,
    ):
        if not j_coupling_hz > 0.0:
            raise ConfigError("j_coupling_hz must be positive")
        if t1_p_s <= 0.0 or t1_f_s <= 0.0:
            raise ConfigError("relaxation times must be positive")
        if gamma_p_hz_per_tesla <= 0.0 or gamma_f_hz_per_tesla <= 0.0:
            raise ConfigError("gyromagnetic ratios must be positive")
        given = super().__new__(
            cls, j_coupling_hz, offset_p_hz, offset_f_hz, t1_p_s, t1_f_s,
            epsilon_p, epsilon_f, field_tesla, temperature_k,
            gamma_p_hz_per_tesla, gamma_f_hz_per_tesla,
        )
        for name, value in zip(cls._fields, given):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        if offset_p_hz is None:
            offset_p_hz = -0.5 * j_coupling_hz
        # derived even where both are given, so its field and temperature
        # rules hold for every config
        eps_p, eps_f = default_purity_factors(
            field_tesla, temperature_k, gamma_p_hz_per_tesla, gamma_f_hz_per_tesla
        )
        if epsilon_p is None:
            epsilon_p = eps_p
        if epsilon_f is None:
            epsilon_f = eps_f
        for eps in (epsilon_p, epsilon_f):
            # The high-temperature treatment breaks down well before 0.1.
            if not 0.0 <= eps < 0.1:
                raise ConfigError("purity factors must lie in [0, 0.1)")
        resolved = {**given._asdict(), "offset_p_hz": offset_p_hz}
        resolved.update(epsilon_p=epsilon_p, epsilon_f=epsilon_f)
        return super().__new__(cls, **resolved)


class DriveConfig(namedtuple("DriveConfig", "amplitude_hz detuning_hz duration_s")):
    """Drive parameters: amplitude and detuning in Hz, duration in s.  An
    immutable named tuple, equal and hashed by value."""

    __slots__ = ()
    _make = _checked_make

    def __new__(
        cls,
        amplitude_hz: float = 0.1,
        detuning_hz: float = 0.0,
        duration_s: float = DRIVE_DURATION_S,
    ):
        if amplitude_hz < 0.0:
            raise ConfigError("drive amplitude must be non-negative")
        if duration_s < 0.0:
            raise ConfigError("drive duration must be non-negative")
        for value, what in (
            (amplitude_hz, "drive amplitude"),
            (duration_s, "drive duration"),
            (detuning_hz, "detuning"),
        ):
            if not math.isfinite(value):
                raise ConfigError(f"{what} must be finite")
        return super().__new__(cls, amplitude_hz, detuning_hz, duration_s)


def detuning_term(detuning_hz: float) -> np.ndarray:
    """Drive detuning as a P offset shift, -2pi delta Iz^P (rad/s).

    The detuning shifts the P carrier, so it adds to offset_p.
    """
    return -math.tau * detuning_hz * spin_operator("P", "z")


def rotating_drift(config: SpinSystemConfig, drive: DriveConfig) -> np.ndarray:
    """Drift part of the doubly-rotating-frame Hamiltonian (rad/s).

    At offset_p = -J/2 and zero detuning the |2><->|4> transition has
    zero frequency in this frame.
    """
    return (
        -math.tau * config.offset_p_hz * spin_operator("P", "z")
        - math.tau * config.offset_f_hz * spin_operator("F", "z")
        + math.tau * config.j_coupling_hz
        * spin_operator("P", "z") @ spin_operator("F", "z")
        + detuning_term(drive.detuning_hz)
    )


def drive_term(drive: DriveConfig) -> np.ndarray:
    """Static drive Hamiltonian 2pi Omega Iy^P in the rotating frame."""
    return math.tau * drive.amplitude_hz * spin_operator("P", "y")


def fermionic_probabilities(epsilon: float) -> tuple[float, float]:
    """Boltzmann weights (p_plus, p_minus) of one spin's m = -1/2 and
    m = +1/2 states, which are also its bath occupations.

    p_plus = 1 / (exp(4 epsilon) + 1) weights upward (energy-gaining)
    jumps, p_minus = 1 - p_plus downward ones; their ratio exp(-4 epsilon)
    sets the detailed-balance population ratio across the transition.
    """
    if epsilon < 0.0:
        raise ValueError("purity factor must be non-negative")
    p_plus = 1.0 / (math.exp(4.0 * epsilon) + 1.0)
    return p_plus, 1.0 - p_plus


def _orientation_weight(epsilon: float, m: float) -> float:
    """Boltzmann weight of one spin at orientation m: p_plus for the upper
    level m = -1/2, p_minus for m = +1/2.  It is the spin's factor in a
    level's thermal population and the rate weight of a jump of that spin
    into m."""
    return fermionic_probabilities(epsilon)[0 if m < 0 else 1]


def thermal_state(config: SpinSystemConfig) -> np.ndarray:
    """Equilibrium density matrix of the undriven pair.

    Populations are products of per-spin Boltzmann weights whose ratio
    across any single-spin flip is exp(-4 epsilon); this is the exact
    fixed point of the relaxation model and agrees with the linearized
    form 1/4 + epsilon_P I_z^P + epsilon_F I_z^F to O(epsilon^2).
    Lower-energy states are more populated.
    """
    pops = [
        _orientation_weight(config.epsilon_p, mp)
        * _orientation_weight(config.epsilon_f, mf)
        for mp, mf in LEVELS
    ]
    return np.diag(np.asarray(pops, dtype=complex))


def transition_rate(t1_s: float) -> float:
    """Base rate g = 2 pi / T1 in rad/s."""
    if t1_s <= 0.0:
        raise ValueError("T1 must be positive")
    return 2.0 * math.pi / t1_s


class JumpOperator(
    namedtuple("JumpOperator", "matrix species direction source target")
):
    """One weighted transition |target><source| in the four-level basis.

    ``species`` is "P" or "F", ``direction`` "up" (energy-gaining) or
    "down", and ``source`` and ``target`` are level labels 1..4.
    """

    __slots__ = ()


def build_jump_operators(config: SpinSystemConfig) -> list[JumpOperator]:
    """All eight single-quantum jump operators for the configured system.

    Weights are sqrt(g * p) with g = 2 pi / T1 of the flipping spin and p
    the fermionic probability for the jump direction.  Upward means the
    flipping spin moves from m = +1/2 to m = -1/2 (its higher-energy
    orientation for the positive gyromagnetic ratios used here).
    """
    ops = []
    for species, slot, t1_s, epsilon in (
        ("P", 0, config.t1_p_s, config.epsilon_p),
        ("F", 1, config.t1_f_s, config.epsilon_f),
    ):
        g = transition_rate(t1_s)
        # pairs of levels in energy order; a spin flip keeps the spectator
        for upper, lower in combinations(range(4), 2):
            if LEVELS[upper][1 - slot] != LEVELS[lower][1 - slot]:
                continue
            for direction, source, target in (
                ("up", lower, upper), ("down", upper, lower),
            ):
                m = np.zeros((4, 4), dtype=complex)
                m[target, source] = math.sqrt(
                    g * _orientation_weight(epsilon, LEVELS[target][slot])
                )
                ops.append(JumpOperator(
                    m, species, direction, LEVEL_LABELS[source], LEVEL_LABELS[target]
                ))
    return ops


def _worst_cell(severity: np.ndarray) -> tuple[tuple[int, ...], str]:
    """A stack's most severe cell (() for a single matrix) and its error note."""
    cell = tuple(int(i) for i in np.unravel_index(np.argmax(severity), severity.shape))
    return cell, f" (worst cell {cell})" if cell else ""


# check_density_matrix's tolerances: largest |rho - rho^H| entry, |tr - 1|,
# and the most negative eigenvalue allowed.
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-9


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix, or each of a (..., 4, 4) stack.

    Returns it unchanged or raises ValueError, naming a stack's worst cell.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    finite = np.isfinite(rho).all(axis=(-2, -1))
    if not finite.all():
        _, note = _worst_cell(~finite)
        raise ValueError("density matrix has non-finite entries" + note)
    herm_err = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if np.any(herm_err > _HERM_TOL):
        cell, note = _worst_cell(herm_err)
        raise ValueError(
            f"density matrix not Hermitian: deviation {herm_err[cell]:.3e}" + note
        )
    trace_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    if np.any(trace_err > _TRACE_TOL):
        cell, note = _worst_cell(trace_err)
        raise ValueError(f"density matrix trace off by {trace_err[cell]:.3e}" + note)
    min_eig = np.linalg.eigvalsh(0.5 * (rho + rho.conj().swapaxes(-1, -2))).min(axis=-1)
    if np.any(min_eig < -_PSD_TOL):
        cell, note = _worst_cell(-min_eig)
        raise ValueError(f"density matrix has eigenvalue {min_eig[cell]:.3e}" + note)
    return rho

"""Hamiltonian builders for the spin pair in its different frames.

Configs carry Hz; every matrix returned here is in rad/s.  The frames:

* ``lab``: full Zeeman + scalar-coupling Hamiltonian.
* ``doubly-rotating``: frame rotating with both transmitter carriers;
  only offsets, the coupling and the drive survive.
* ``four-level-lab``: generic driven four-level system with an explicit
  time-dependent coupling of the |2><4| transition.
* ``drive-rotating``: the same four-level system after absorbing the
  drive frequency, leaving a static 2x2 block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tau

import numpy as np

from .system import DriveConfig, SpinSystemConfig, larmor_frequencies, spin_operator

FRAMES = ("lab", "doubly-rotating", "four-level-lab", "drive-rotating")


@dataclass(frozen=True)
class Hamiltonian:
    """A 4x4 Hermitian matrix in rad/s, tagged with its frame."""

    matrix: np.ndarray
    frame: str

    def __post_init__(self) -> None:
        if self.frame not in FRAMES:
            raise ValueError(f"unknown frame {self.frame!r}")
        herm = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if herm > 1e-12:
            raise ValueError(f"Hamiltonian not Hermitian: deviation {herm:.3e}")


def as_matrix(h: Hamiltonian | np.ndarray) -> np.ndarray:
    """Accept either a tagged Hamiltonian or a bare array."""
    return h.matrix if isinstance(h, Hamiltonian) else np.asarray(h)


def build_lab_hamiltonian(
    config: SpinSystemConfig,
    larmor_p: float | None = None,
    larmor_f: float | None = None,
) -> Hamiltonian:
    """Lab-frame Hamiltonian omega_P Iz^P + omega_F Iz^F + 2pi J Iz^P Iz^F.

    Larmor frequencies (rad/s) default to -gamma B0 from the config.
    """
    if larmor_p is None or larmor_f is None:
        wp, wf = larmor_frequencies(config)
        larmor_p = wp if larmor_p is None else larmor_p
        larmor_f = wf if larmor_f is None else larmor_f
    h = (
        larmor_p * spin_operator("P", "z")
        + larmor_f * spin_operator("F", "z")
        + tau * config.j_coupling_hz * spin_operator("P", "z") @ spin_operator("F", "z")
    )
    return Hamiltonian(h, "lab")


def detuning_term(detuning_hz: float) -> np.ndarray:
    """Drive detuning as a P offset shift, -2pi delta Iz^P (rad/s).

    The detuning shifts the P carrier, so it adds to offset_p.
    """
    return -tau * detuning_hz * spin_operator("P", "z")


def rotating_drift(config: SpinSystemConfig, drive: DriveConfig) -> np.ndarray:
    """Drift part of the doubly-rotating-frame Hamiltonian (rad/s).

    At offset_p = -J/2 and zero detuning the |2><->|4> transition has
    zero frequency in this frame.
    """
    return (
        -tau * config.offset_p_hz * spin_operator("P", "z")
        - tau * config.offset_f_hz * spin_operator("F", "z")
        + tau * config.j_coupling_hz * spin_operator("P", "z") @ spin_operator("F", "z")
        + detuning_term(drive.detuning_hz)
    )


def drive_term(drive: DriveConfig) -> np.ndarray:
    """Static drive Hamiltonian 2pi Omega Iy^P in the rotating frame."""
    return tau * drive.amplitude_hz * spin_operator("P", "y")


def build_rotating_hamiltonian(
    config: SpinSystemConfig, drive: DriveConfig
) -> Hamiltonian:
    """Total doubly-rotating-frame Hamiltonian: drift plus drive."""
    return Hamiltonian(rotating_drift(config, drive) + drive_term(drive), "doubly-rotating")


def build_four_level_drive_hamiltonian(
    level_frequencies: np.ndarray,
    amplitude: float,
    drive_frequency: float,
    t: float,
) -> Hamiltonian:
    """Driven four-level Hamiltonian at time t, all arguments in rad/s.

    ``level_frequencies`` are (omega_1, ..., omega_4) by level label; the
    drive couples |2> and |4> with a phase rotating at ``drive_frequency``.
    """
    w1, w2, w3, w4 = np.asarray(level_frequencies, dtype=float)
    h = np.diag(np.array([w4, w3, w2, w1], dtype=complex))
    # |2><4| carries e^{+i w_d t}; rows are ordered |4>, |3>, |2>, |1>.
    h[2, 0] = amplitude * np.exp(1j * drive_frequency * t)
    h[0, 2] = np.conj(h[2, 0])
    return Hamiltonian(h, "four-level-lab")


def build_reduced_rotating_hamiltonian(delta: float, amplitude: float) -> Hamiltonian:
    """Static frame-rotated form: delta |4><4| + amplitude (|2><4| + h.c.).

    Arguments in rad/s.  At delta = 0 the eigenvalues are {+amplitude,
    -amplitude, 0, 0}.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = delta
    h[0, 2] = amplitude
    h[2, 0] = amplitude
    return Hamiltonian(h, "drive-rotating")


def rotating_frame_unitary(
    level_frequencies: np.ndarray, drive_frequency: float, t: float
) -> np.ndarray:
    """Unitary U(t) mapping the four-level lab frame to the drive frame.

    U = exp(i K t) with K diagonal: K = (omega_d + omega_2)|4><4|
    + omega_3 |3><3| + omega_2 |2><2| + omega_1 |1><1|.  Conjugating the
    time-dependent four-level Hamiltonian by U and adding i U' U^dagger
    yields the static reduced form with delta = (omega_4 - omega_2) -
    omega_d.
    """
    w1, w2, w3, w4 = np.asarray(level_frequencies, dtype=float)
    k = np.array([drive_frequency + w2, w3, w2, w1], dtype=float)
    return np.diag(np.exp(1j * k * t))

"""Doubly-rotating-frame Hamiltonian terms of the driven spin pair.

Configs carry Hz; every matrix returned here is in rad/s.  In the frame
rotating with both transmitter carriers only the offsets, the scalar
coupling, the detuning and the drive survive.  The generator is built
from three terms: the drift at zero detuning, the detuning term and the
static drive term.
"""

from __future__ import annotations

from math import tau

import numpy as np

from .system import DriveConfig, SpinSystemConfig, spin_operator


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

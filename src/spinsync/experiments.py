"""High-level numerical experiments on the driven, dissipative spin pair.

Every experiment starts from the thermal state, builds the rotating-frame
generator and reports phase-space observables.  Sweeps build the
generator's affine terms once and evaluate cells one by one in axis
order, so each cell equals the single-drive result bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .liouville import (
    build_affine_liouvillian,
    build_liouvillian,
    propagate,
    steady_state,
)
from .phasespace import HusimiGrid, husimi_grid, sync_measure_max, visibility
from .system import DriveConfig, SpinSystemConfig, thermal_state

DEFAULT_SERIES_DURATIONS = (0.05, 0.1, 1.0, 10.0, 100.0)

# Default sweep axes as (low, high, points) in Hz; the CLI flags default
# to these.  Amplitudes are log-spaced, detunings linear.
AMPLITUDE_SWEEP_AXIS = (1e-3, 1e3, 61)
ARNOLD_OMEGA_AXIS = (1e-2, 1.0, 21)
ARNOLD_DETUNING_AXIS = (-3.0, 3.0, 41)
ARNOLD_DURATION_S = 100.0


def log_axis(low: float, high: float, n: int) -> np.ndarray:
    """n log-spaced points from low to high (both positive)."""
    return np.logspace(math.log10(low), math.log10(high), n)


def default_amplitude_grid(n: int = AMPLITUDE_SWEEP_AXIS[2]) -> np.ndarray:
    """Log-spaced drive amplitudes from 1e-3 to 1e3 Hz."""
    return log_axis(*AMPLITUDE_SWEEP_AXIS[:2], n)


def default_arnold_grid(
    n_omega: int = ARNOLD_OMEGA_AXIS[2], n_detuning: int = ARNOLD_DETUNING_AXIS[2]
) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced amplitudes in [1e-2, 1] Hz, linear detunings in [-3, 3] Hz."""
    return (
        log_axis(*ARNOLD_OMEGA_AXIS[:2], n_omega),
        np.linspace(*ARNOLD_DETUNING_AXIS[:2], n_detuning),
    )


@dataclass(frozen=True)
class LimitCycleResult:
    """Undriven steady state and its (featureless) phase distribution."""

    state: np.ndarray
    grid: HusimiGrid
    visibility: float
    max_sync: float


def run_limit_cycle(
    config: SpinSystemConfig, n_theta: int = 64, n_phi: int = 128
) -> LimitCycleResult:
    """Steady state without drive: diagonal, with a flat phase profile.

    Raises if the computed visibility is not numerically negligible,
    since any contrast here would mean a spurious phase preference.
    """
    drive = DriveConfig(amplitude_hz=0.0)
    rho = steady_state(build_liouvillian(config, drive))
    grid = husimi_grid(rho, n_theta=n_theta, n_phi=n_phi)
    vis = visibility(grid)
    if vis >= 1e-8:
        raise RuntimeError(f"undriven state shows phase contrast {vis:.3e}")
    return LimitCycleResult(
        state=rho, grid=grid, visibility=vis, max_sync=sync_measure_max(rho)
    )


@dataclass(frozen=True)
class DriveSeriesPoint:
    duration_s: float
    state: np.ndarray
    grid: HusimiGrid
    visibility: float
    coherence_abs: float  # |rho42|


def run_drive_series(
    config: SpinSystemConfig,
    amplitude_hz: float,
    durations=DEFAULT_SERIES_DURATIONS,
    detuning_hz: float = 0.0,
    n_theta: int = 64,
    n_phi: int = 128,
) -> list[DriveSeriesPoint]:
    """Drive the thermal state for each duration; phase localization grows
    with duration until the steady state is reached."""
    durations = [float(t) for t in durations]
    if len(durations) == 0:
        raise ValueError("need at least one duration")
    # t = 0 is legal and just returns the thermal state.
    if any(t < 0.0 for t in durations) or sorted(durations) != durations:
        raise ValueError("durations must be non-negative and ascending")
    drive = DriveConfig(amplitude_hz=amplitude_hz, detuning_hz=detuning_hz)
    liouville = build_liouvillian(config, drive)
    rho0 = thermal_state(config)
    points = []
    for t in durations:
        rho = propagate(liouville, rho0, t)
        grid = husimi_grid(rho, n_theta=n_theta, n_phi=n_phi)
        points.append(
            DriveSeriesPoint(
                duration_s=t,
                state=rho,
                grid=grid,
                visibility=visibility(grid),
                coherence_abs=float(abs(rho[0, 2])),
            )
        )
    return points


@dataclass(frozen=True)
class SweepResult:
    """Observable values over one or two swept axes."""

    axes: dict[str, np.ndarray]
    values: np.ndarray
    observable: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = tuple(v.size for v in self.axes.values())
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match axes {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sweep produced non-finite values")


def _check_axis(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D sequence")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError(f"{name} must be strictly ascending")
    return arr


def run_amplitude_sweep(
    config: SpinSystemConfig,
    omegas_hz=None,
    n_theta: int = 64,
    n_phi: int = 128,
) -> SweepResult:
    """Steady-state visibility versus drive amplitude.

    The curve rises from the negligible-perturbation regime, peaks near
    the amplitude matching the relaxation rate, and falls again when the
    drive saturates the transition.
    """
    omegas = _check_axis(
        default_amplitude_grid() if omegas_hz is None else omegas_hz, "omegas_hz"
    )
    terms = build_affine_liouvillian(config)
    values = np.empty(omegas.size)
    for i, omega in enumerate(omegas):
        rho = steady_state(terms.at(DriveConfig(amplitude_hz=float(omega))))
        values[i] = visibility(husimi_grid(rho, n_theta=n_theta, n_phi=n_phi))
    peak = int(np.argmax(values))
    return SweepResult(
        axes={"omega_hz": omegas},
        values=values,
        observable="visibility",
        metadata={
            "peak_omega_hz": float(omegas[peak]),
            "peak_value": float(values[peak]),
            "n_theta": n_theta,
            "n_phi": n_phi,
        },
    )


def run_arnold_tongue(
    config: SpinSystemConfig,
    omegas_hz=None,
    detunings_hz=None,
    duration_s: float = ARNOLD_DURATION_S,
    use_steady_state: bool = False,
) -> SweepResult:
    """Peak synchronization over an amplitude x detuning grid.

    Each cell drives the thermal state for ``duration_s`` (or solves for
    the steady state) and records max_phi S = |rho42| / (16 pi^2).
    """
    if omegas_hz is None and detunings_hz is None:
        omegas_hz, detunings_hz = default_arnold_grid()
    omegas = _check_axis(omegas_hz, "omegas_hz")
    detunings = _check_axis(detunings_hz, "detunings_hz")
    scale = max(abs(detunings[0]), abs(detunings[-1]), 1.0)
    if np.max(np.abs(detunings + detunings[::-1])) > 1e-9 * scale:
        raise ValueError("detuning grid must be symmetric about zero")
    if duration_s <= 0.0 and not use_steady_state:
        raise ValueError("duration must be positive")
    rho0 = thermal_state(config)
    terms = build_affine_liouvillian(config)
    values = np.empty((omegas.size, detunings.size))
    for i, omega in enumerate(omegas):
        for j, delta in enumerate(detunings):
            liouville = terms.at(
                DriveConfig(amplitude_hz=float(omega), detuning_hz=float(delta))
            )
            if use_steady_state:
                rho = steady_state(liouville)
            else:
                rho = propagate(liouville, rho0, duration_s)
            values[i, j] = sync_measure_max(rho)
    return SweepResult(
        axes={"omega_hz": omegas, "detuning_hz": detunings},
        values=values,
        observable="max-sync",
        metadata={"duration_s": duration_s, "steady_state": use_steady_state},
    )


@dataclass(frozen=True)
class CalibrationResult:
    amplitude_hz: float
    slope_rad_per_s: float
    small_angle: bool  # False flags data outside the linear regime
    residual_rms: float
    n_samples: int


def calibrate_drive(times_s, signals) -> CalibrationResult:
    """Estimate the drive amplitude from early-time signal growth.

    The nutation signal follows sin(2 pi Omega t); for small angles this
    is linear in t, so a through-origin least-squares slope gives
    Omega = slope / (2 pi).  The result is flagged when the fitted angles
    leave the small-angle regime (max |2 pi Omega t| >= 0.3 rad).
    """
    t = np.asarray(times_s, dtype=float)
    s = np.asarray(signals, dtype=float)
    if t.ndim != 1 or t.shape != s.shape:
        raise ValueError("times and signals must be 1-D and equal length")
    if t.size < 3:
        raise ValueError("need at least three samples")
    if np.any(np.diff(t) <= 0.0) or t[0] <= 0.0:
        raise ValueError("times must be positive and strictly ascending")
    slope = float(np.dot(t, s) / np.dot(t, t))
    amplitude = slope / (2.0 * math.pi)
    residual = float(np.sqrt(np.mean((s - slope * t) ** 2)))
    small_angle = bool(np.max(np.abs(2.0 * math.pi * amplitude * t)) < 0.3)
    return CalibrationResult(
        amplitude_hz=amplitude,
        slope_rad_per_s=slope,
        small_angle=small_angle,
        residual_rms=residual,
        n_samples=int(t.size),
    )

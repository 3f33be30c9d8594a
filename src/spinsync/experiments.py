"""High-level numerical experiments on the driven, dissipative spin pair.

Every experiment starts from the thermal state and reports phase-space
observables.  It checks its inputs and hands the engine's two entries a
system, drives and a duration, None for the steady state:
``liouville._state``, the steady or the driven thermal states
(``_state_at``; a series' durations as one stack), and
``liouville._tongue``, |rho42| over an Arnold tongue's grid.  Every swept
axis, the series' durations included, passes ``_check_axis``: a duration
is finite and >= 0, and 0 gives the thermal state on every path.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .liouville import _state, _tongue
from .phasespace import (
    SYNC_COEFFICIENT,
    husimi_grid,
    state_visibility,
    sync_measure_max,
)
from .system import (
    DRIVE_DURATION_S,
    ConfigError,
    DriveConfig,
    SpinSystemConfig,
    _checked_make,
)

DEFAULT_SERIES_DURATIONS = (0.05, 0.1, 1.0, 10.0, 100.0)

# Default sweep axes as (low, high, points) in Hz; the sweeps and the CLI
# flags default to these.  Amplitudes are log-spaced, detunings linear.
AMPLITUDE_SWEEP_AXIS = (1e-3, 1e3, 61)
ARNOLD_OMEGA_AXIS = (1e-2, 1.0, 21)
ARNOLD_DETUNING_AXIS = (-3.0, 3.0, 41)


def linear_axis(low: float, high: float, n: int) -> np.ndarray:
    """n evenly spaced points from low to high, both finite: ``np.linspace``'s,
    bit for bit above the subnormal range, spaced at half scale so that the
    points stay finite even where high - low overflows."""
    if n < 1:
        raise ConfigError(f"an axis needs at least one point, got {n}")
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ConfigError(f"axis ends must be finite, got {low}, {high}")
    return 2.0 * np.linspace(0.5 * low, 0.5 * high, n)


def log_axis(low: float, high: float, n: int) -> np.ndarray:
    """n log-spaced points from low to high (both positive and finite)."""
    if not (0.0 < low < math.inf and 0.0 < high < math.inf):  # NaN fails too
        raise ConfigError(f"log axis ends must be finite and > 0, got {low}, {high}")
    with np.errstate(over="ignore"):  # past the float range: inf
        return 10.0 ** linear_axis(math.log10(low), math.log10(high), n)


def _state_at(config: SpinSystemConfig, drive: DriveConfig, durations=None):
    """The steady state of a configured system at a drive or, given
    ``durations`` (s; an array gives a stack), its thermal state driven for each."""
    return _state(config, drive.amplitude_hz, drive.detuning_hz, durations)


class LimitCycleResult(
    namedtuple("LimitCycleResult", "state grid visibility max_sync")
):
    """Undriven steady state and its (featureless) phase distribution."""

    __slots__ = ()


def run_limit_cycle(
    config: SpinSystemConfig, n_theta: int = 64, n_phi: int = 128
) -> LimitCycleResult:
    """Steady state without drive: diagonal, with a flat phase profile.
    Raises unless the visibility is exactly zero: undriven, the order-0
    block couples no population to a coherence, so rho42 = 0 exactly."""
    rho = _state_at(config, DriveConfig(amplitude_hz=0.0))
    grid = husimi_grid(rho, n_theta=n_theta, n_phi=n_phi)
    vis = state_visibility(rho, n_theta=n_theta, n_phi=n_phi)
    if vis != 0.0:
        raise RuntimeError(f"undriven state shows phase contrast {vis:.3e}")
    return LimitCycleResult(
        state=rho, grid=grid, visibility=vis, max_sync=sync_measure_max(rho)
    )


class DriveSeriesPoint(
    namedtuple("DriveSeriesPoint", "duration_s state visibility coherence_abs")
):
    """One driven state of a series; ``coherence_abs`` is |rho42|."""

    __slots__ = ()


def run_drive_series(
    config: SpinSystemConfig,
    amplitude_hz: float,
    durations=DEFAULT_SERIES_DURATIONS,
    detuning_hz: float = 0.0,
    n_theta: int = 64,
    n_phi: int = 128,
) -> list[DriveSeriesPoint]:
    """Drive the thermal state for each duration (s; an axis under
    ``_check_axis``, so t = 0 gives the thermal state itself); phase
    localization grows with duration until the steady state is reached."""
    durations = _check_axis(durations, "durations", "duration_s")
    drive = DriveConfig(amplitude_hz=amplitude_hz, detuning_hz=detuning_hz)
    states = _state_at(config, drive, durations)
    contrasts = state_visibility(states, n_theta=n_theta, n_phi=n_phi)
    return [
        DriveSeriesPoint(
            duration_s=float(t),
            state=rho,
            visibility=float(contrast),
            coherence_abs=float(abs(rho[0, 2])),
        )
        for t, rho, contrast in zip(durations, states, contrasts)
    ]


class SweepResult(namedtuple("SweepResult", "axes values observable metadata")):
    """Observable values over one or two swept axes, named in ``axes``
    (name to values); ``metadata`` defaults to a new empty dict."""

    __slots__ = ()
    _make = _checked_make

    def __new__(
        cls,
        axes: dict[str, np.ndarray],
        values: np.ndarray,
        observable: str,
        metadata: dict | None = None,
    ):
        expected = tuple(v.size for v in axes.values())
        if values.shape != expected:
            raise ValueError(
                f"values shape {values.shape} does not match axes {expected}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("sweep produced non-finite values")
        return super().__new__(
            cls, axes, values, observable, {} if metadata is None else metadata
        )


def _check_axis(values, name: str, drive_field: str) -> np.ndarray:
    """The one rule of every swept axis, the series' durations included: a
    non-empty 1-D array, each value one that ``DriveConfig`` takes for
    ``drive_field``, strictly ascending."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigError(f"{name} must be a non-empty 1-D sequence")
    # each cell's DriveConfig checks, made once on the extremes (NaN in both)
    for value in (arr.min(), arr.max()):
        DriveConfig(**{drive_field: float(value)})
    if np.any(np.diff(arr) <= 0.0):
        raise ConfigError(f"{name} must be strictly ascending")
    return arr


def run_amplitude_sweep(
    config: SpinSystemConfig,
    omegas_hz=None,
    n_theta: int = 64,
    n_phi: int = 128,
) -> SweepResult:
    """Steady-state visibility versus drive amplitude: it rises from zero,
    peaks near the amplitude matching the relaxation rate, and falls again
    as the drive saturates the transition."""
    if omegas_hz is None:
        omegas_hz = log_axis(*AMPLITUDE_SWEEP_AXIS)
    omegas = _check_axis(omegas_hz, "omegas_hz", "amplitude_hz")
    states = _state(config, omegas)
    values = state_visibility(states, n_theta=n_theta, n_phi=n_phi)
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
    duration_s: float | None = DRIVE_DURATION_S,
) -> SweepResult:
    """Peak synchronization over an amplitude x detuning grid.

    Each cell drives the thermal state for ``duration_s`` (finite and >= 0;
    at 0 every cell reads the thermal state's 0) or, at None, solves for the
    steady state, and records max_phi S = |rho42| / (16 pi^2)
    (``liouville._tongue``).  Steady, each cell is within kappa(V) eps of
    the single-drive solve and certified as it is, that solve taking the
    cells it cannot certify, so a failure names the worst cell of the first
    failing slice of the flat grid.  Driven, a cell is the steady value
    where the contraction bound e^(-floor t) proves the two within half an
    ulp (every cell of the default 100 s tongue), and else the single-drive
    result bit for bit; so it can differ from ``run_drive_series`` and the
    CLI's driven states at the same drive by the two routes' rounding.  The
    metadata records the duration, None when steady.  An axis left out
    takes its default.
    """
    if omegas_hz is None:
        omegas_hz = log_axis(*ARNOLD_OMEGA_AXIS)
    if detunings_hz is None:
        detunings_hz = linear_axis(*ARNOLD_DETUNING_AXIS)
    omegas = _check_axis(omegas_hz, "omegas_hz", "amplitude_hz")
    detunings = _check_axis(detunings_hz, "detunings_hz", "detuning_hz")
    scale = max(abs(detunings[0]), abs(detunings[-1]), 1.0)
    if np.max(np.abs(detunings + detunings[::-1])) > 1e-9 * scale:
        raise ConfigError("detuning grid must be symmetric about zero")
    if duration_s is not None:
        DriveConfig(duration_s=duration_s)
    values = _tongue(config, omegas, detunings, duration_s)
    return SweepResult(
        axes={"omega_hz": omegas, "detuning_hz": detunings},
        values=SYNC_COEFFICIENT * values,
        observable="max-sync",
        metadata={"duration_s": duration_s, "steady_state": duration_s is None},
    )


class CalibrationResult(namedtuple(
    "CalibrationResult",
    "amplitude_hz slope_rad_per_s small_angle residual_rms n_samples",
)):
    """A fitted drive amplitude; ``small_angle`` False flags data outside
    the linear regime."""

    __slots__ = ()


def calibrate_drive(times_s, signals) -> CalibrationResult:
    """Estimate the drive amplitude from early-time signal growth.

    The nutation signal follows sin(2 pi Omega t); for small angles this
    is linear in t, so a through-origin least-squares slope gives
    Omega = slope / (2 pi).  The result is flagged when the fitted angles
    leave the small-angle regime (max |2 pi Omega t| >= 0.3 rad).  Samples
    and fit must be finite.
    """
    t = np.asarray(times_s, dtype=float)
    s = np.asarray(signals, dtype=float)
    if t.ndim != 1 or t.shape != s.shape:
        raise ConfigError("times and signals must be 1-D and equal length")
    if t.size < 3:
        raise ConfigError("need at least three samples")
    if not (np.isfinite(t).all() and np.isfinite(s).all()):
        raise ConfigError("samples must be finite")
    if t[0] <= 0.0 or np.any(t[1:] <= t[:-1]):
        raise ConfigError("times must be positive and strictly ascending")
    with np.errstate(all="ignore"):  # an overflow is checked below
        slope = float(np.dot(t, s) / np.dot(t, t))
        residual = float(np.sqrt(np.mean((s - slope * t) ** 2)))
    if not (math.isfinite(slope) and math.isfinite(residual)):
        raise ConfigError("fit is non-finite: samples out of range")
    amplitude = slope / (2.0 * math.pi)
    small_angle = bool(np.max(np.abs(2.0 * math.pi * amplitude * t)) < 0.3)
    return CalibrationResult(
        amplitude_hz=amplitude,
        slope_rad_per_s=slope,
        small_angle=small_angle,
        residual_rms=residual,
        n_samples=int(t.size),
    )

"""Command-line front end: config ingestion and result serialization.

The config file is a single flat JSON object; every key is optional and
unknown keys are rejected.  Grids and sweeps are written as CSV, density
matrices and reports as JSON.  Every output embeds the fully resolved
configuration as a reproducibility header, and all numbers are written
with 17 significant digits so values round-trip exactly.

Exit codes: 0 success, 1 engine failure, 2 config error, 3 I/O error,
64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .experiments import (
    AMPLITUDE_SWEEP_AXIS,
    ARNOLD_DETUNING_AXIS,
    ARNOLD_DURATION_S,
    ARNOLD_OMEGA_AXIS,
    DEFAULT_SERIES_DURATIONS,
    calibrate_drive,
    log_axis,
    run_amplitude_sweep,
    run_arnold_tongue,
    run_drive_series,
)
from .imhd import VARIANTS, imhd_scan, leakage_bound
from .liouville import build_liouvillian, propagate, steady_state
from .phasespace import (
    HUSIMI_PREFACTOR,
    HusimiGrid,
    husimi_grid,
    sync_measure_max,
    visibility,
)
from .system import DriveConfig, SpinSystemConfig, thermal_state

_SYSTEM_KEYS = (
    "j_coupling_hz",
    "offset_p_hz",
    "offset_f_hz",
    "t1_p_s",
    "t1_f_s",
    "epsilon_p",
    "epsilon_f",
    "field_tesla",
    "temperature_k",
    "gamma_p_hz_per_tesla",
    "gamma_f_hz_per_tesla",
)
_DRIVE_KEYS = ("amplitude_hz", "detuning_hz", "duration_s")
_INT_KEYS = ("n_theta", "n_phi", "seed")

BASIS_DESCRIPTION = (
    "|4>=(mP=-1/2,mF=-1/2) |3>=(-1/2,+1/2) |2>=(+1/2,-1/2) |1>=(+1/2,+1/2)"
)


class ConfigError(Exception):
    """Schema or physical-invariant violation in configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters: system, drive, grid resolution, seed."""

    system: SpinSystemConfig = SpinSystemConfig()
    drive: DriveConfig = DriveConfig()
    n_theta: int = 64
    n_phi: int = 128
    seed: int = 1234

    def __post_init__(self) -> None:
        for name in ("n_theta", "n_phi"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 8:
                raise ValueError(f"{name} must be an integer >= 8")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def _require_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    if not math.isfinite(float(value)):
        raise ConfigError(f"config key {key!r} must be finite")
    return float(value)


def _require_int(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config key {key!r} must be an integer")
    return value


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file.

    Missing keys take documented defaults; unknown keys and values that
    violate physical invariants raise ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    known = set(_SYSTEM_KEYS) | set(_DRIVE_KEYS) | set(_INT_KEYS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    system_kwargs = {
        k: _require_number(k, raw[k]) for k in _SYSTEM_KEYS if k in raw
    }
    drive_kwargs = {k: _require_number(k, raw[k]) for k in _DRIVE_KEYS if k in raw}
    int_kwargs = {k: _require_int(k, raw[k]) for k in _INT_KEYS if k in raw}
    try:
        return RunConfig(
            system=SpinSystemConfig(**system_kwargs),
            drive=DriveConfig(**drive_kwargs),
            **int_kwargs,
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def resolved_config_dict(rc: RunConfig) -> dict:
    """Flat dict of all resolved parameters, in schema order.

    Feeding this back through parse_config reproduces the RunConfig
    exactly; it is also what reproducibility headers embed.
    """
    return {
        **{key: getattr(rc.system, key) for key in _SYSTEM_KEYS},
        **{key: getattr(rc.drive, key) for key in _DRIVE_KEYS},
        **{key: getattr(rc, key) for key in _INT_KEYS},
    }


def _format_number(x) -> str:
    # 17 significant digits: lossless for IEEE doubles.
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def dumps_json(obj, indent: int | None = 0) -> str:
    """JSON text with floats at 17 significant digits.

    indent=None produces a single line (used for header embedding).
    """
    inner = None if indent is None else indent + 2
    if isinstance(obj, dict):
        brackets = "{}"
        items = [
            f"{json.dumps(str(k))}: {dumps_json(v, inner)}" for k, v in obj.items()
        ]
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = [dumps_json(v, inner) for v in obj]
    elif obj is None:
        return "null"
    elif isinstance(obj, (bool, int, float, np.floating, np.integer)):
        return _format_number(obj)
    elif isinstance(obj, str):
        return json.dumps(obj)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    if not items:
        return brackets
    if indent is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "\n" + " " * inner
    tail = "\n" + " " * indent + brackets[1]
    return brackets[0] + pad + ("," + pad).join(items) + tail


def _cells(values: np.ndarray, *axes):
    """Formatted (axis..., value) rows in row-major order.

    Each axis value is formatted once, not once per row it appears in.
    """
    labels = [[_format_number(x) for x in axis] for axis in axes]
    for key, value in zip(itertools.product(*labels), values.flat):
        yield (*key, _format_number(value))


def _csv_text(rc: RunConfig, kind: str, columns, rows) -> str:
    """CSV under the reproducibility header; ``rows`` yields formatted cells."""
    blob = dumps_json(resolved_config_dict(rc), indent=None)
    lines = [f"# spinsync {kind}", f"# config {blob}", ",".join(columns)]
    lines += map(",".join, rows)
    return "\n".join(lines) + "\n"


def _report(kind: str, rc: RunConfig, **fields) -> str:
    """JSON report text: ``kind`` first, the resolved config last."""
    report = {"kind": kind, **fields, "config": resolved_config_dict(rc)}
    return dumps_json(report) + "\n"


def write_grid_csv(grid: HusimiGrid, rc: RunConfig) -> str:
    """Husimi grid as CSV text: rows (theta, phi, Q), theta-major order."""
    rows = _cells(grid.values, grid.thetas, grid.phis)
    return _csv_text(rc, "husimi-grid", ("theta", "phi", "Q"), rows)


def write_sweep_csv(result, rc: RunConfig) -> str:
    """Sweep values as CSV text; the header names the observable column."""
    rows = _cells(result.values, *result.axes.values())
    columns = (*result.axes, "observable")
    return _csv_text(rc, f"sweep {result.observable}", columns, rows)


def write_series_csv(points, rc: RunConfig) -> str:
    rows = (
        map(_format_number, (p.duration_s, p.visibility, p.coherence_abs))
        for p in points
    )
    columns = ("duration_s", "visibility", "abs_coherence")
    return _csv_text(rc, "drive-series", columns, rows)


def read_samples_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column (time_s, signal) CSV; '#' comment lines are skipped."""
    times: list[float] = []
    signals: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) < 2:
                raise ConfigError(f"{path}: need two columns, got {row!r}")
            try:
                times.append(float(row[0]))
                signals.append(float(row[1]))
            except ValueError as exc:
                raise ConfigError(f"{path}: non-numeric row {row!r}") from exc
    return np.asarray(times), np.asarray(signals)


def _drive_from_args(rc: RunConfig, args) -> DriveConfig:
    def take(name: str, fallback: float) -> float:
        value = getattr(args, name, None)
        return fallback if value is None else value

    try:
        return DriveConfig(
            amplitude_hz=take("amplitude", rc.drive.amplitude_hz),
            detuning_hz=take("detuning", rc.drive.detuning_hz),
            duration_s=take("duration", rc.drive.duration_s),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid_shape(rc: RunConfig, args) -> tuple[int, int]:
    n_theta = rc.n_theta if args.n_theta is None else args.n_theta
    n_phi = rc.n_phi if args.n_phi is None else args.n_phi
    if n_theta < 8 or n_phi < 8:
        raise ConfigError("grid resolutions must be >= 8")
    return n_theta, n_phi


def _check_sweep_flags(name: str, low: float, high: float, n: int) -> None:
    """A sweep axis needs a point, and an ascending range for more than one."""
    if n < 1:
        raise ConfigError(f"--n-{name} must be >= 1")
    if n > 1 and low >= high:
        raise ConfigError(f"--{name}-min must be below --{name}-max")


def _omega_axis(args) -> np.ndarray:
    """The log-spaced amplitude axis of the --omega-* flags."""
    _check_sweep_flags("omega", args.omega_min, args.omega_max, args.n_omega)
    return log_axis(args.omega_min, args.omega_max, args.n_omega)


def _prepared_state(rc: RunConfig, drive: DriveConfig, use_steady: bool):
    liouville = build_liouvillian(rc.system, drive)
    if use_steady:
        return steady_state(liouville)
    return propagate(liouville, thermal_state(rc.system), drive.duration_s)


def _write_text(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Each handler takes (rc, args) and returns (observable, [(path, text)],
# exit code); _run writes the outputs and prints the summary line.


def _cmd_steady(rc: RunConfig, args):
    rho = steady_state(build_liouvillian(rc.system, _drive_from_args(rc, args)))
    report = _report(
        "density-matrix", rc, basis=BASIS_DESCRIPTION,
        real=rho.real.tolist(), imag=rho.imag.tolist(),
    )
    return f"max_sync={sync_measure_max(rho):.6g}", [(args.output, report)], 0


def _cmd_husimi(rc: RunConfig, args):
    drive = _drive_from_args(rc, args)
    n_theta, n_phi = _grid_shape(rc, args)
    rho = _prepared_state(rc, drive, args.steady)
    grid = husimi_grid(rho, n_theta=n_theta, n_phi=n_phi)
    vis = visibility(grid)
    meta = _report(
        "husimi-metadata", rc, visibility=vis, max_sync=sync_measure_max(rho),
        steady_state=bool(args.steady), n_theta=n_theta, n_phi=n_phi,
    )
    out_csv = Path(args.output)
    outputs = [
        (out_csv, write_grid_csv(grid, rc)),
        (out_csv.with_suffix(".json"), meta),
    ]
    return f"visibility={vis:.6g}", outputs, 0


def _cmd_series(rc: RunConfig, args):
    drive = _drive_from_args(rc, args)
    if any(t <= 0.0 for t in args.durations) or \
            sorted(args.durations) != list(args.durations):
        raise ConfigError("durations must be positive and ascending")
    points = run_drive_series(
        rc.system, drive.amplitude_hz, durations=args.durations,
        detuning_hz=drive.detuning_hz, n_theta=rc.n_theta, n_phi=rc.n_phi,
    )
    observable = f"final_visibility={points[-1].visibility:.6g}"
    return observable, [(args.output, write_series_csv(points, rc))], 0


def _cmd_amp_sweep(rc: RunConfig, args):
    result = run_amplitude_sweep(
        rc.system, _omega_axis(args), n_theta=rc.n_theta, n_phi=rc.n_phi
    )
    observable = f"peak_omega_hz={result.metadata['peak_omega_hz']:.6g}"
    return observable, [(args.output, write_sweep_csv(result, rc))], 0


def _cmd_arnold(rc: RunConfig, args):
    # a one-point grid holds only detuning_min
    if args.detuning_min != -args.detuning_max or (
        args.n_detuning == 1 and args.detuning_min != 0.0
    ):
        raise ConfigError("detuning grid must be symmetric about zero")
    if args.duration <= 0.0:
        raise ConfigError("--duration must be positive")
    omegas = _omega_axis(args)
    _check_sweep_flags(
        "detuning", args.detuning_min, args.detuning_max, args.n_detuning
    )
    detunings = np.linspace(args.detuning_min, args.detuning_max, args.n_detuning)
    result = run_arnold_tongue(
        rc.system, omegas, detunings,
        duration_s=args.duration, use_steady_state=args.steady,
    )
    observable = f"max_observable={float(result.values.max()):.6g}"
    return observable, [(args.output, write_sweep_csv(result, rc))], 0


def _cmd_imhd_verify(rc: RunConfig, args):
    drive = _drive_from_args(rc, args)
    n_theta, n_phi = _grid_shape(rc, args)
    rho = _prepared_state(rc, drive, args.steady)
    scan = imhd_scan(rho, n_theta=n_theta, n_phi=n_phi, variant=args.variant)
    direct = husimi_grid(rho, n_theta=n_theta, n_phi=n_phi)
    deviation = float(np.max(np.abs(scan.values - direct.values)))
    # Both variants carry the circuit's exact rho31 leakage term.
    bound = leakage_bound(rho) + args.tolerance
    if args.variant == "quarter-approximation":
        # The quarter approximation is exact only when the undriven
        # populations sit at 1/4; its error bound follows from that.
        bound += float(
            HUSIMI_PREFACTOR
            * (abs(rho[3, 3].real - 0.25) + abs(rho[1, 1].real - 0.25))
        )
    passed = bool(deviation < bound)
    report = _report(
        "imhd-verify", rc, variant=args.variant, max_abs_deviation=deviation,
        bound=bound, passed=passed, n_theta=n_theta, n_phi=n_phi,
    )
    outputs = [] if args.output is None else [(args.output, report)]
    observable = (
        f"max_abs_deviation={deviation:.6g} bound={bound:.6g} "
        f"passed={str(passed).lower()}"
    )
    return observable, outputs, 0 if passed else 1


def _cmd_calibrate(rc: RunConfig, args):
    if args.noise < 0.0:
        raise ConfigError("noise must be non-negative")
    if args.n_samples < 3:
        raise ConfigError("need at least three samples")
    if args.input is not None:
        times, signals = read_samples_csv(args.input)
        source = {"kind": "file", "path": str(args.input)}
    else:
        amplitude = 0.1 if args.amplitude is None else args.amplitude
        rng = np.random.default_rng(rc.seed)
        times = np.linspace(0.02, 0.4, args.n_samples)
        signals = np.sin(2.0 * math.pi * amplitude * times)
        signals = signals + args.noise * rng.standard_normal(times.size)
        source = {
            "kind": "synthetic", "true_amplitude_hz": amplitude,
            "noise": args.noise, "n_samples": args.n_samples, "seed": rc.seed,
        }
    try:
        fit = calibrate_drive(times, signals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = _report(
        "calibration", rc, amplitude_hz=fit.amplitude_hz,
        slope_rad_per_s=fit.slope_rad_per_s, small_angle=fit.small_angle,
        residual_rms=fit.residual_rms, n_samples=fit.n_samples, source=source,
    )
    return f"amplitude_hz={fit.amplitude_hz:.6g}", [(args.output, report)], 0


def _cmd_emit_config(rc: RunConfig, args):
    text = dumps_json(resolved_config_dict(rc)) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return None
    return "config", [(args.output, text)], 0


def _run(args) -> int:
    """Load the config, run the subcommand, write its outputs, summarise."""
    rc = RunConfig() if args.config is None else parse_config(args.config)
    t0 = time.perf_counter()
    result = args.handler(rc, args)
    if result is None:
        return 0
    observable, outputs, code = result
    for path, text in outputs:
        _write_text(path, text)
    paths = " ".join(str(path) for path, _ in outputs)
    runtime = time.perf_counter() - t0
    print(f"{args.command}: {observable} runtime={runtime:.3f}s wrote {paths}")
    return code


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code on bad flags."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


# argparse names the type in its "invalid <type> value" message
_finite_float.__name__ = "float"


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _duration_list(text: str) -> list[float]:
    values = [_finite_float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty duration list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinsync",
        description="Driven dissipative two-spin synchronization simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, handler, output_required: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--output", required=output_required, help="output file path")
        p.set_defaults(handler=handler)
        return p

    def add_drive_flags(p, duration: bool = True):
        p.add_argument("--amplitude", type=_finite_float, help="drive amplitude in Hz")
        p.add_argument("--detuning", type=_finite_float, help="drive detuning in Hz")
        if duration:
            p.add_argument("--duration", type=_finite_float, help="evolution time in s")

    def add_grid_flags(p):
        p.add_argument("--n-theta", type=int, help="polar grid points")
        p.add_argument("--n-phi", type=int, help="azimuthal grid points")

    def add_axis_flags(p, name: str, axis, value_type):
        low, high, n = axis
        p.add_argument(f"--{name}-min", type=value_type, default=low)
        p.add_argument(f"--{name}-max", type=value_type, default=high)
        p.add_argument(f"--n-{name}", type=int, default=n)

    p = add("steady", "steady state density matrix as JSON", _cmd_steady)
    add_drive_flags(p, duration=False)

    p = add("husimi", "phase-space grid as CSV plus metadata JSON", _cmd_husimi)
    add_drive_flags(p)
    add_grid_flags(p)
    p.add_argument(
        "--steady", action="store_true",
        help="use the steady state instead of evolving for --duration",
    )

    p = add("series", "phase localization versus drive duration", _cmd_series)
    add_drive_flags(p, duration=False)
    p.add_argument(
        "--durations", type=_duration_list, default=DEFAULT_SERIES_DURATIONS,
        help="comma-separated durations in s",
    )

    p = add(
        "amp-sweep", "steady-state visibility versus drive amplitude", _cmd_amp_sweep
    )
    add_axis_flags(p, "omega", AMPLITUDE_SWEEP_AXIS, _positive_float)

    p = add("arnold", "synchronization over an amplitude x detuning grid", _cmd_arnold)
    add_axis_flags(p, "omega", ARNOLD_OMEGA_AXIS, _positive_float)
    add_axis_flags(p, "detuning", ARNOLD_DETUNING_AXIS, _finite_float)
    p.add_argument(
        "--duration", type=_finite_float, default=ARNOLD_DURATION_S,
        help="evolution time per cell in s",
    )
    p.add_argument("--steady", action="store_true", help="use steady states per cell")

    p = add(
        "imhd-verify", "compare the gate-level readout scan against the direct grid",
        _cmd_imhd_verify, output_required=False,
    )
    add_drive_flags(p)
    add_grid_flags(p)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--variant", choices=VARIANTS, default="exact-populations")
    p.add_argument("--tolerance", type=_positive_float, default=1e-9)

    p = add("calibrate", "fit a drive amplitude from nutation samples", _cmd_calibrate)
    p.add_argument("--input", help="CSV of time_s,signal samples")
    p.add_argument("--amplitude", type=_finite_float, help="synthetic true amplitude")
    p.add_argument(
        "--noise", type=_finite_float, default=0.0, help="synthetic noise rms"
    )
    p.add_argument("--n-samples", type=int, default=20)

    add(
        "emit-config", "write the resolved config JSON", _cmd_emit_config,
        output_required=False,
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"spinsync: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"spinsync: i/o error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError) as exc:  # LinAlgError is a ValueError
        print(f"spinsync: engine error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

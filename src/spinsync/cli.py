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
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .experiments import (
    calibrate_drive,
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
    out: dict = {}
    for key in _SYSTEM_KEYS:
        out[key] = getattr(rc.system, key)
    for key in _DRIVE_KEYS:
        out[key] = getattr(rc.drive, key)
    for key in _INT_KEYS:
        out[key] = getattr(rc, key)
    return out


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
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if indent is None:
            items = [
                f"{json.dumps(str(k))}: {dumps_json(v, None)}"
                for k, v in obj.items()
            ]
            return "{" + ", ".join(items) + "}"
        inner = " " * (indent + 2)
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps_json(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        if indent is None:
            return "[" + ", ".join(dumps_json(v, None) for v in obj) + "]"
        inner = " " * (indent + 2)
        items = [f"{inner}{dumps_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + " " * indent + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, int, float, np.floating, np.integer)):
        return _format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _config_header(rc: RunConfig, kind: str) -> list[str]:
    blob = dumps_json(resolved_config_dict(rc), indent=None)
    return [f"# spinsync {kind}", f"# config {blob}"]


def write_grid_csv(fh, grid: HusimiGrid, rc: RunConfig) -> None:
    """Husimi grid as CSV rows (theta, phi, Q), theta-major order."""
    for line in _config_header(rc, "husimi-grid"):
        fh.write(line + "\n")
    fh.write("theta,phi,Q\n")
    for i, theta in enumerate(grid.thetas):
        for j, phi in enumerate(grid.phis):
            fh.write(
                f"{_format_number(theta)},{_format_number(phi)},"
                f"{_format_number(grid.values[i, j])}\n"
            )


def write_sweep_csv(fh, result, rc: RunConfig) -> None:
    """Sweep values as CSV; the observable column is identified in the header."""
    for line in _config_header(rc, f"sweep {result.observable}"):
        fh.write(line + "\n")
    names = list(result.axes)
    if len(names) == 1:
        axis = result.axes[names[0]]
        fh.write(f"{names[0]},observable\n")
        for x, v in zip(axis, result.values):
            fh.write(f"{_format_number(x)},{_format_number(v)}\n")
        return
    first, second = (result.axes[n] for n in names)
    fh.write(f"{names[0]},{names[1]},observable\n")
    for i, x in enumerate(first):
        for j, y in enumerate(second):
            fh.write(
                f"{_format_number(x)},{_format_number(y)},"
                f"{_format_number(result.values[i, j])}\n"
            )


def write_series_csv(fh, points, rc: RunConfig) -> None:
    for line in _config_header(rc, "drive-series"):
        fh.write(line + "\n")
    fh.write("duration_s,visibility,abs_coherence\n")
    for p in points:
        fh.write(
            f"{_format_number(p.duration_s)},{_format_number(p.visibility)},"
            f"{_format_number(p.coherence_abs)}\n"
        )


def density_matrix_dict(rho: np.ndarray, rc: RunConfig) -> dict:
    return {
        "kind": "density-matrix",
        "basis": BASIS_DESCRIPTION,
        "real": [[float(v) for v in row] for row in rho.real],
        "imag": [[float(v) for v in row] for row in rho.imag],
        "config": resolved_config_dict(rc),
    }


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


def _load_runconfig(args) -> RunConfig:
    if args.config is None:
        return RunConfig()
    return parse_config(args.config)


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


def _prepared_state(rc: RunConfig, drive: DriveConfig, use_steady: bool):
    liouville = build_liouvillian(rc.system, drive)
    if use_steady:
        return steady_state(liouville)
    return propagate(liouville, thermal_state(rc.system), drive.duration_s)


def _write_text(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _summary(name: str, runtime: float, observable: str, outputs) -> None:
    paths = " ".join(str(p) for p in outputs)
    print(f"{name}: {observable} runtime={runtime:.3f}s wrote {paths}")


def _cmd_steady(args) -> int:
    rc = _load_runconfig(args)
    drive = _drive_from_args(rc, args)
    t0 = time.perf_counter()
    rho = steady_state(build_liouvillian(rc.system, drive))
    _write_text(args.output, dumps_json(density_matrix_dict(rho, rc)) + "\n")
    _summary(
        "steady",
        time.perf_counter() - t0,
        f"max_sync={sync_measure_max(rho):.6g}",
        [args.output],
    )
    return 0


def _cmd_husimi(args) -> int:
    rc = _load_runconfig(args)
    drive = _drive_from_args(rc, args)
    n_theta, n_phi = _grid_shape(rc, args)
    t0 = time.perf_counter()
    rho = _prepared_state(rc, drive, args.steady)
    grid = husimi_grid(rho, n_theta=n_theta, n_phi=n_phi)
    out_csv = Path(args.output)
    with open(out_csv, "w", encoding="utf-8") as fh:
        write_grid_csv(fh, grid, rc)
    meta = {
        "kind": "husimi-metadata",
        "visibility": visibility(grid),
        "max_sync": sync_measure_max(rho),
        "steady_state": bool(args.steady),
        "n_theta": n_theta,
        "n_phi": n_phi,
        "config": resolved_config_dict(rc),
    }
    out_json = out_csv.with_suffix(".json")
    _write_text(out_json, dumps_json(meta) + "\n")
    _summary(
        "husimi",
        time.perf_counter() - t0,
        f"visibility={meta['visibility']:.6g}",
        [out_csv, out_json],
    )
    return 0


def _cmd_series(args) -> int:
    rc = _load_runconfig(args)
    drive = _drive_from_args(rc, args)
    if any(t <= 0.0 for t in args.durations) or \
            sorted(args.durations) != list(args.durations):
        raise ConfigError("durations must be positive and ascending")
    t0 = time.perf_counter()
    points = run_drive_series(
        rc.system,
        drive.amplitude_hz,
        durations=args.durations,
        detuning_hz=drive.detuning_hz,
        n_theta=rc.n_theta,
        n_phi=rc.n_phi,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        write_series_csv(fh, points, rc)
    _summary(
        "series",
        time.perf_counter() - t0,
        f"final_visibility={points[-1].visibility:.6g}",
        [args.output],
    )
    return 0


def _cmd_amp_sweep(args) -> int:
    rc = _load_runconfig(args)
    _check_sweep_flags("omega", args.omega_min, args.omega_max, args.n_omega)
    omegas = np.logspace(
        math.log10(args.omega_min), math.log10(args.omega_max), args.n_omega
    )
    t0 = time.perf_counter()
    result = run_amplitude_sweep(
        rc.system, omegas, n_theta=rc.n_theta, n_phi=rc.n_phi
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        write_sweep_csv(fh, result, rc)
    _summary(
        "amp-sweep",
        time.perf_counter() - t0,
        f"peak_omega_hz={result.metadata['peak_omega_hz']:.6g}",
        [args.output],
    )
    return 0


def _cmd_arnold(args) -> int:
    rc = _load_runconfig(args)
    # a one-point grid holds only detuning_min
    if args.detuning_min != -args.detuning_max or (
        args.n_detuning == 1 and args.detuning_min != 0.0
    ):
        raise ConfigError("detuning grid must be symmetric about zero")
    if args.duration is not None and args.duration <= 0.0:
        raise ConfigError("--duration must be positive")
    _check_sweep_flags("omega", args.omega_min, args.omega_max, args.n_omega)
    _check_sweep_flags(
        "detuning", args.detuning_min, args.detuning_max, args.n_detuning
    )
    omegas = np.logspace(
        math.log10(args.omega_min), math.log10(args.omega_max), args.n_omega
    )
    detunings = np.linspace(args.detuning_min, args.detuning_max, args.n_detuning)
    t0 = time.perf_counter()
    result = run_arnold_tongue(
        rc.system,
        omegas,
        detunings,
        duration_s=args.duration if args.duration is not None else 100.0,
        use_steady_state=args.steady,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        write_sweep_csv(fh, result, rc)
    _summary(
        "arnold",
        time.perf_counter() - t0,
        f"max_observable={float(result.values.max()):.6g}",
        [args.output],
    )
    return 0


def _cmd_imhd_verify(args) -> int:
    rc = _load_runconfig(args)
    drive = _drive_from_args(rc, args)
    n_theta, n_phi = _grid_shape(rc, args)
    t0 = time.perf_counter()
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
    report = {
        "kind": "imhd-verify",
        "variant": args.variant,
        "max_abs_deviation": deviation,
        "bound": bound,
        "passed": passed,
        "n_theta": n_theta,
        "n_phi": n_phi,
        "config": resolved_config_dict(rc),
    }
    outputs = []
    if args.output is not None:
        _write_text(args.output, dumps_json(report) + "\n")
        outputs.append(args.output)
    _summary(
        "imhd-verify",
        time.perf_counter() - t0,
        f"max_abs_deviation={deviation:.6g} bound={bound:.6g} "
        f"passed={str(passed).lower()}",
        outputs,
    )
    return 0 if passed else 1


def _cmd_calibrate(args) -> int:
    rc = _load_runconfig(args)
    t0 = time.perf_counter()
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
            "kind": "synthetic",
            "true_amplitude_hz": amplitude,
            "noise": args.noise,
            "n_samples": args.n_samples,
            "seed": rc.seed,
        }
    try:
        fit = calibrate_drive(times, signals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = {
        "kind": "calibration",
        "amplitude_hz": fit.amplitude_hz,
        "slope_rad_per_s": fit.slope_rad_per_s,
        "small_angle": fit.small_angle,
        "residual_rms": fit.residual_rms,
        "n_samples": fit.n_samples,
        "source": source,
        "config": resolved_config_dict(rc),
    }
    _write_text(args.output, dumps_json(report) + "\n")
    _summary(
        "calibrate",
        time.perf_counter() - t0,
        f"amplitude_hz={fit.amplitude_hz:.6g}",
        [args.output],
    )
    return 0


def _cmd_emit_config(args) -> int:
    rc = _load_runconfig(args)
    text = dumps_json(resolved_config_dict(rc)) + "\n"
    if args.output is None:
        sys.stdout.write(text)
        return 0
    t0 = time.perf_counter()
    _write_text(args.output, text)
    _summary("emit-config", time.perf_counter() - t0, "config", [args.output])
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code on bad flags."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _duration_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty duration list")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinsync",
        description="Driven dissipative two-spin synchronization simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, output_required: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument(
            "--output", required=output_required, help="output file path"
        )
        return p

    def add_drive_flags(p, duration: bool = True):
        p.add_argument("--amplitude", type=float, help="drive amplitude in Hz")
        p.add_argument("--detuning", type=float, help="drive detuning in Hz")
        if duration:
            p.add_argument("--duration", type=float, help="evolution time in s")

    def add_grid_flags(p):
        p.add_argument("--n-theta", type=int, help="polar grid points")
        p.add_argument("--n-phi", type=int, help="azimuthal grid points")

    p = add("steady", "steady state density matrix as JSON")
    add_drive_flags(p, duration=False)
    p.set_defaults(handler=_cmd_steady)

    p = add("husimi", "phase-space grid as CSV plus metadata JSON")
    add_drive_flags(p)
    add_grid_flags(p)
    p.add_argument(
        "--steady", action="store_true",
        help="use the steady state instead of evolving for --duration",
    )
    p.set_defaults(handler=_cmd_husimi)

    p = add("series", "phase localization versus drive duration")
    add_drive_flags(p, duration=False)
    p.add_argument(
        "--durations", type=_duration_list, default=[0.05, 0.1, 1.0, 10.0, 100.0],
        help="comma-separated durations in s",
    )
    p.set_defaults(handler=_cmd_series)

    p = add("amp-sweep", "steady-state visibility versus drive amplitude")
    p.add_argument("--omega-min", type=_positive_float, default=1e-3)
    p.add_argument("--omega-max", type=_positive_float, default=1e3)
    p.add_argument("--n-omega", type=int, default=61)
    p.set_defaults(handler=_cmd_amp_sweep)

    p = add("arnold", "synchronization over an amplitude x detuning grid")
    p.add_argument("--omega-min", type=_positive_float, default=1e-2)
    p.add_argument("--omega-max", type=_positive_float, default=1.0)
    p.add_argument("--n-omega", type=int, default=21)
    p.add_argument("--detuning-min", type=float, default=-3.0)
    p.add_argument("--detuning-max", type=float, default=3.0)
    p.add_argument("--n-detuning", type=int, default=41)
    p.add_argument("--duration", type=float, help="evolution time per cell in s")
    p.add_argument(
        "--steady", action="store_true", help="use steady states per cell"
    )
    p.set_defaults(handler=_cmd_arnold)

    p = add(
        "imhd-verify",
        "compare the gate-level readout scan against the direct grid",
        output_required=False,
    )
    add_drive_flags(p)
    add_grid_flags(p)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--variant", choices=VARIANTS, default="exact-populations")
    p.add_argument("--tolerance", type=_positive_float, default=1e-9)
    p.set_defaults(handler=_cmd_imhd_verify)

    p = add("calibrate", "fit a drive amplitude from nutation samples")
    p.add_argument("--input", help="CSV of time_s,signal samples")
    p.add_argument("--amplitude", type=float, help="synthetic true amplitude")
    p.add_argument("--noise", type=float, default=0.0, help="synthetic noise rms")
    p.add_argument("--n-samples", type=int, default=20)
    p.set_defaults(handler=_cmd_calibrate)

    p = add("emit-config", "write the resolved config JSON", output_required=False)
    p.set_defaults(handler=_cmd_emit_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"spinsync: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"spinsync: i/o error: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"spinsync: engine error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError) as exc:
        print(f"spinsync: engine error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: config ingestion and result serialization.

The config file is a single flat JSON object; every key is optional and
unknown keys are rejected.  The flags that name a config key override it.
Grids and sweeps are written as CSV, density matrices and reports as JSON.
Every output embeds the configuration that ran, flags folded in, as a
reproducibility header, and all numbers are written with 17 significant
digits so values round-trip exactly.

Exit codes: 0 success, 1 engine failure, 2 config error, 3 I/O error,
64 usage error.  ``main`` may be called repeatedly in one process: its
parser is built on the first call and reused, and every call computes and
writes its own results.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import re
import sys
import time
from collections import namedtuple
from pathlib import Path

import numpy as np

from .experiments import (
    AMPLITUDE_SWEEP_AXIS,
    ARNOLD_DETUNING_AXIS,
    ARNOLD_OMEGA_AXIS,
    DEFAULT_SERIES_DURATIONS,
    _state_at,
    calibrate_drive,
    linear_axis,
    log_axis,
    run_amplitude_sweep,
    run_arnold_tongue,
    run_drive_series,
)
from .imhd import VARIANTS, deviation_bound, imhd_scan
from .phasespace import HusimiGrid, husimi_grid, state_visibility, sync_measure_max
from .system import (
    BASIS_DESCRIPTION, ConfigError, DriveConfig, SpinSystemConfig, _checked_make,
)

_SYSTEM_KEYS = SpinSystemConfig._fields
_DRIVE_KEYS = DriveConfig._fields
_INT_KEYS = ("n_theta", "n_phi", "seed")


class RunConfig(namedtuple("RunConfig", "system drive n_theta n_phi seed")):
    """Resolved run parameters: system, drive, grid resolution, seed.  An
    immutable named tuple, equal and hashed by value."""

    __slots__ = ()
    _make = _checked_make

    def __new__(
        cls,
        system: SpinSystemConfig = SpinSystemConfig(),
        drive: DriveConfig = DriveConfig(),
        n_theta: int = 64,
        n_phi: int = 128,
        seed: int = 1234,
    ):
        for name, value in (("n_theta", n_theta), ("n_phi", n_phi)):
            # a bool is an int to Python, not to the JSON config
            if isinstance(value, bool) or not isinstance(value, int) or value < 8:
                raise ConfigError(f"{name} must be an integer >= 8")
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        return super().__new__(cls, system, drive, n_theta, n_phi, seed)


def _require_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {key!r} must be a number")
    # compared, not converted: float() of an integer past the range overflows
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"config key {key!r} must be finite")
    return float(value)


def parse_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file.

    Missing keys take documented defaults; unknown keys and values that
    violate physical invariants raise ConfigError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # also not UTF-8, or past int()'s digit limit
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
    int_kwargs = {k: raw[k] for k in _INT_KEYS if k in raw}  # RunConfig checks them
    try:
        return RunConfig(
            system=SpinSystemConfig(**system_kwargs),
            drive=DriveConfig(**drive_kwargs),
            **int_kwargs,
        )
    except ConfigError as exc:
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


_BLOCK_ROWS = 8  # leading-label rows per %-operation


def _value_slot(values: np.ndarray) -> tuple[str, np.ndarray]:
    """The %-slot of every value and its arguments, writing what "%.17g" does.

    If all values lie in one decade [10^X, 10^(X+1)) with -4 <= X <= -1,
    "%.17g" writes each value x as "0.", -X-1 zeros and its 17 digits: the
    integer D = x*10^k rounded half to even, k = 16 - X, trailing zeros
    stripped.  10^k is an exact double (k <= 22), and Dekker's TwoProduct
    with Veltkamp's split (Numer. Math. 18, 224, 1971) gives the exact
    x*10^k = p + e with p = fl(x*10^k).  p >= 10^16 > 2^53 is an even
    integer, so D = p + rint(e), rint rounding a tie to even as dtoa does.
    The decade is decided on the exact rationals of the least and the
    greatest value (x*10^k is monotone in x): the least product must be
    at least 10^16 and the greatest must round below 10^17.  Otherwise
    (two decades, one outside -4..-1, NaN, inf, 0, a subnormal, or
    log10(min) rounded across a power of ten) the slot stays "%.17g" on
    the floats themselves.
    """
    lo, hi = float(values.min()), float(values.max())
    if 1e-4 <= lo and hi < 1.0:
        x = math.floor(math.log10(lo))
        scale = 10 ** (16 - x)
        (n_lo, d_lo), (n_hi, d_hi) = lo.as_integer_ratio(), hi.as_integer_ratio()
        if n_lo * scale >= 10**16 * d_lo and 2 * n_hi * scale < (2 * 10**17 - 1) * d_hi:
            c = float(scale)
            c_hi = 134217729.0 * c - (134217729.0 * c - c)  # 2^27 + 1
            c_lo = c - c_hi
            t = 134217729.0 * values
            v_hi = t - (t - values)
            v_lo = values - v_hi
            p = values * c
            e = ((v_hi * c_hi - p) + v_hi * c_lo + v_lo * c_hi) + v_lo * c_lo
            digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
            while (tens := digits % 10 == 0).any():
                digits[tens] //= 10
            return ",0." + "0" * (-x - 1) + "%d", digits
    return ",%.17g", values


def _csv_text(rc: RunConfig, kind: str, columns, values: np.ndarray, *axes) -> str:
    """CSV under the reproducibility header, the body %-formatted in blocks.

    Rows are (axis..., value...) in row-major order, one value or one row
    of values per label row, each value written as "%.17g" writes it
    (_value_slot).  Each axis value is formatted once and joined into the
    %-templates: a row template per label of the last axis, joined once
    per combination of the leading labels, _BLOCK_ROWS combinations to a
    template and its %-operation.  _format_number writes only digits,
    sign, '.', 'e', 'inf', 'nan', 'true' or 'false', so a label holds no
    '%' and the values are the templates' only arguments.  Column names
    stay in the header, outside the templates.
    """
    *lead, last = [[_format_number(x) for x in axis] for axis in axes]
    slot, args = _value_slot(values.ravel())
    prefixes = [",".join((*labels, "")) for labels in itertools.product(*lead)]
    per_prefix = args.size // len(prefixes)
    row = ["", *(label + slot * (per_prefix // len(last)) + "\n" for label in last)]
    blob = dumps_json(resolved_config_dict(rc), indent=None)
    pieces = [f"# spinsync {kind}\n# config {blob}\n{','.join(columns)}\n"]
    for start in range(0, len(prefixes), _BLOCK_ROWS):
        block = prefixes[start : start + _BLOCK_ROWS]
        pieces.append("".join(prefix.join(row) for prefix in block) % tuple(
            args[start * per_prefix : (start + _BLOCK_ROWS) * per_prefix].tolist()
        ))
    del args  # the integer slot's digits go before the join
    return "".join(pieces)


def _report(kind: str, rc: RunConfig, **entries) -> str:
    """JSON report text: ``kind`` first, the resolved config last."""
    report = {"kind": kind, **entries, "config": resolved_config_dict(rc)}
    return dumps_json(report) + "\n"


def write_grid_csv(grid: HusimiGrid, rc: RunConfig) -> str:
    """Husimi grid as CSV text: rows (theta, phi, Q), theta-major order."""
    columns = ("theta", "phi", "Q")
    return _csv_text(rc, "husimi-grid", columns, grid.values, grid.thetas, grid.phis)


def write_sweep_csv(result, rc: RunConfig) -> str:
    """Sweep values as CSV text; the header names the observable column."""
    columns = (*result.axes, "observable")
    kind = f"sweep {result.observable}"
    return _csv_text(rc, kind, columns, result.values, *result.axes.values())


def write_series_csv(points, rc: RunConfig) -> str:
    values = np.array([(p.visibility, p.coherence_abs) for p in points])
    columns = ("duration_s", "visibility", "abs_coherence")
    durations = [p.duration_s for p in points]
    return _csv_text(rc, "drive-series", columns, values, durations)


def read_samples_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Two-column (time_s, signal) CSV of finite numbers; '#' lines are skipped."""
    samples: list[tuple[float, float]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        # text that is not UTF-8, or a field past csv's size limit
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"{path}: unreadable CSV: {exc}") from exc
        for row in rows:
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 2:
                raise ConfigError(f"{path}: need two columns, got {row!r}")
            try:
                samples.append((float(row[0]), float(row[1])))
            except ValueError as exc:
                raise ConfigError(f"{path}: non-numeric row {row!r}") from exc
            if not all(map(math.isfinite, samples[-1])):
                raise ConfigError(f"{path}: non-finite row {row!r}")
    return tuple(np.array(samples).reshape(-1, 2).T)


def _write_text(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Each handler takes (rc, args) and returns (observable, [(path, text)],
# exit code); _run writes the outputs and prints the summary line.


def _cmd_steady(rc: RunConfig, args):
    rho = _state_at(rc.system, rc.drive)
    report = _report(
        "density-matrix", rc, basis=BASIS_DESCRIPTION,
        real=rho.real.tolist(), imag=rho.imag.tolist(),
    )
    return f"max_sync={sync_measure_max(rho):.6g}", [(args.output, report)], 0


def _cmd_husimi(rc: RunConfig, args):
    rho = _state_at(rc.system, rc.drive, None if args.steady else rc.drive.duration_s)
    grid = husimi_grid(rho, n_theta=rc.n_theta, n_phi=rc.n_phi)
    vis = state_visibility(rho, n_theta=rc.n_theta, n_phi=rc.n_phi)
    meta = _report(
        "husimi-metadata", rc, visibility=vis, max_sync=sync_measure_max(rho),
        steady_state=bool(args.steady), n_theta=rc.n_theta, n_phi=rc.n_phi,
    )
    out_csv = Path(args.output)
    outputs = [
        (out_csv, write_grid_csv(grid, rc)),
        (out_csv.with_suffix(".json"), meta),
    ]
    return f"visibility={vis:.6g}", outputs, 0


def _cmd_series(rc: RunConfig, args):
    points = run_drive_series(
        rc.system, rc.drive.amplitude_hz, durations=args.durations,
        detuning_hz=rc.drive.detuning_hz, n_theta=rc.n_theta, n_phi=rc.n_phi,
    )
    observable = f"final_visibility={points[-1].visibility:.6g}"
    return observable, [(args.output, write_series_csv(points, rc))], 0


def _cmd_amp_sweep(rc: RunConfig, args):
    omegas = log_axis(args.omega_min, args.omega_max, args.n_omega)
    result = run_amplitude_sweep(rc.system, omegas, n_theta=rc.n_theta, n_phi=rc.n_phi)
    observable = f"peak_omega_hz={result.metadata['peak_omega_hz']:.6g}"
    return observable, [(args.output, write_sweep_csv(result, rc))], 0


def _cmd_arnold(rc: RunConfig, args):
    omegas = log_axis(args.omega_min, args.omega_max, args.n_omega)
    detunings = linear_axis(args.detuning_min, args.detuning_max, args.n_detuning)
    duration = None if args.steady else rc.drive.duration_s
    result = run_arnold_tongue(rc.system, omegas, detunings, duration)
    observable = f"max_observable={float(result.values.max()):.6g}"
    return observable, [(args.output, write_sweep_csv(result, rc))], 0


def _cmd_imhd_verify(rc: RunConfig, args):
    rho = _state_at(rc.system, rc.drive, None if args.steady else rc.drive.duration_s)
    scan = imhd_scan(rho, n_theta=rc.n_theta, n_phi=rc.n_phi, variant=args.variant)
    direct = husimi_grid(rho, n_theta=rc.n_theta, n_phi=rc.n_phi)
    deviation = float(np.max(np.abs(scan.values - direct.values)))
    bound = deviation_bound(rho, args.variant)
    passed = bool(deviation < bound)
    report = _report(
        "imhd-verify", rc, variant=args.variant, max_abs_deviation=deviation,
        bound=bound, passed=passed, steady_state=bool(args.steady),
        n_theta=rc.n_theta, n_phi=rc.n_phi,
    )
    outputs = [] if args.output is None else [(args.output, report)]
    observable = (
        f"max_abs_deviation={deviation:.6g} bound={bound:.6g} "
        f"passed={str(passed).lower()}"
    )
    return observable, outputs, 0 if passed else 1


def _cmd_calibrate(rc: RunConfig, args):
    if args.input is not None:
        times, signals = read_samples_csv(args.input)
        source = {"kind": "file", "path": str(args.input)}
    else:
        if args.noise < 0.0:
            raise ConfigError("noise must be non-negative")
        rng = np.random.default_rng(rc.seed)
        times = linear_axis(0.02, 0.4, args.n_samples)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            signals = np.sin(2.0 * math.pi * args.true_amplitude_hz * times)
            signals = signals + args.noise * rng.standard_normal(times.size)
        if not np.isfinite(signals).all():
            raise ConfigError("synthetic samples are non-finite")
        source = {
            "kind": "synthetic", "true_amplitude_hz": args.true_amplitude_hz,
            "noise": args.noise, "n_samples": args.n_samples, "seed": rc.seed,
        }
    fit = calibrate_drive(times, signals)
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
    """Resolve the run's config, run the subcommand, write its outputs,
    summarise.  Flags stored under a config key override the file through
    ``_replace``, which runs the constructors' checks."""
    rc = RunConfig() if args.config is None else parse_config(args.config)
    given = {key: value for key, value in vars(args).items() if value is not None}
    drive = rc.drive._replace(**{k: given[k] for k in _DRIVE_KEYS if k in given})
    rc = rc._replace(drive=drive, **{k: given[k] for k in _INT_KEYS if k in given})
    t0 = time.perf_counter()
    result = args.handler(rc, args)
    if result is None:
        return 0
    observable, outputs, code = result
    paths = " ".join(str(path) for path, _ in outputs)
    # checked before any write, so a collision leaves no file behind
    if len({Path(path).resolve() for path, _ in outputs}) < len(outputs):
        raise ConfigError(f"output paths collide: {paths}")
    for path, text in outputs:
        _write_text(path, text)
    runtime = time.perf_counter() - t0
    wrote = f" wrote {paths}" if outputs else ""
    print(f"{args.command}: {observable} runtime={runtime:.3f}s{wrote}")
    return code


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the usage code on bad flags, and reads a
    value such as -1e-3 or -.5 as a negative number, not as an option
    (argparse's own pattern takes only -1 and -0.001 forms)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$"
        )

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

    # A flag that names a config key stores under that key (--n-theta and
    # --n-phi do so by default), and _run folds it into the run's config.
    def add_key_flag(p, flag: str, key: str, help_text: str):
        p.add_argument(flag, dest=key, type=_finite_float, help=help_text)

    def add_drive_flags(p):
        add_key_flag(p, "--amplitude", "amplitude_hz", "drive amplitude in Hz")
        add_key_flag(p, "--detuning", "detuning_hz", "drive detuning in Hz")

    def add_duration_flags(p):  # --steady: a duration of None, the steady state
        add_key_flag(p, "--duration", "duration_s", "evolution time in s")
        help_text = "use the steady state instead of evolving for --duration"
        p.add_argument("--steady", action="store_true", help=help_text)

    def add_grid_flags(p):
        p.add_argument("--n-theta", type=int, help="polar grid points")
        p.add_argument("--n-phi", type=int, help="azimuthal grid points")

    def add_axis_flags(p, name: str, axis, value_type):
        low, high, n = axis
        p.add_argument(f"--{name}-min", type=value_type, default=low)
        p.add_argument(f"--{name}-max", type=value_type, default=high)
        p.add_argument(f"--n-{name}", type=int, default=n)

    p = add("steady", "steady state density matrix as JSON", _cmd_steady)
    add_drive_flags(p)

    p = add("husimi", "phase-space grid as CSV plus metadata JSON", _cmd_husimi)
    add_drive_flags(p)
    add_duration_flags(p)
    add_grid_flags(p)

    p = add("series", "phase localization versus drive duration", _cmd_series)
    add_drive_flags(p)
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
    add_duration_flags(p)

    p = add(
        "imhd-verify", "compare the gate-level readout scan against the direct grid",
        _cmd_imhd_verify, output_required=False,
    )
    add_drive_flags(p)
    add_duration_flags(p)
    add_grid_flags(p)
    p.add_argument("--variant", choices=VARIANTS, default="exact-populations")

    p = add("calibrate", "fit a drive amplitude from nutation samples", _cmd_calibrate)
    p.add_argument("--input", help="CSV of time_s,signal samples")
    p.add_argument(
        "--amplitude", dest="true_amplitude_hz", type=_finite_float, default=0.1,
        help="synthetic true amplitude",
    )
    p.add_argument(
        "--noise", type=_finite_float, default=0.0, help="synthetic noise rms"
    )
    p.add_argument("--n-samples", type=int, default=20)

    add(
        "emit-config", "write the resolved config JSON", _cmd_emit_config,
        output_required=False,
    )
    return parser


# built on the first main() call, never at import; build_parser() stays fresh
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:  # a ValueError, so caught first
        print(f"spinsync: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"spinsync: i/o error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RuntimeError, ValueError) as exc:  # LinAlgError: a ValueError
        print(f"spinsync: engine error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

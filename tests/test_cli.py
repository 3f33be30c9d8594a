"""Command-line interface: config parsing, serialization, exit codes."""

import json
import math
import re

import numpy as np
import pytest

from spinsync import (
    HUSIMI_PREFACTOR,
    DriveConfig,
    SpinSystemConfig,
    build_liouvillian,
    husimi_grid,
    run_amplitude_sweep,
    run_drive_series,
    steady_state,
)
from spinsync.cli import (
    ConfigError,
    RunConfig,
    build_parser,
    dumps_json,
    main,
    parse_config,
    read_samples_csv,
    resolved_config_dict,
)
from spinsync.experiments import (
    ARNOLD_DURATION_S,
    DEFAULT_SERIES_DURATIONS,
    default_amplitude_grid,
    default_arnold_grid,
    log_axis,
)
from spinsync.imhd import VARIANTS
from spinsync.system import default_purity_factors


def write_config(tmp_path, payload) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def read_csv_body(path):
    """Split a CLI CSV into (header_lines, column_row, data_rows)."""
    lines = path.read_text().splitlines()
    headers = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    return headers, rest[0], rest[1:]


class TestParseConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        rc = parse_config(write_config(tmp_path, {"j_coupling_hz": 868.0}))
        assert rc.system.offset_p_hz == -434.0
        assert rc.system.offset_f_hz == 0.0
        assert rc.system.t1_p_s == 10.0
        assert rc.system.t1_f_s == 10.0
        eps_p, eps_f = default_purity_factors()
        assert rc.system.epsilon_p == eps_p
        assert rc.system.epsilon_f == eps_f
        assert (rc.n_theta, rc.n_phi, rc.seed) == (64, 128, 1234)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"j_coupling": 868.0})
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(path)

    def test_physical_invariant_rejected(self, tmp_path):
        path = write_config(tmp_path, {"t1_p_s": -1.0})
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config(write_config(tmp_path, "{not json"))

    def test_non_object_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="object"):
            parse_config(write_config(tmp_path, "[1, 2]"))

    @pytest.mark.parametrize(
        "payload",
        [
            {"j_coupling_hz": "868"},  # numbers must be numbers
            {"j_coupling_hz": True},  # bool is not a number here
            {"n_theta": 32.5},  # resolutions are integers
            {"n_theta": 4},  # too coarse
            {"seed": -3},
        ],
    )
    def test_schema_violations(self, tmp_path, payload):
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, payload))

    def test_non_finite_number_rejected(self, tmp_path):
        # json.load accepts the NaN literal, the schema must not
        path = write_config(tmp_path, '{"j_coupling_hz": NaN}')
        with pytest.raises(ConfigError, match="finite"):
            parse_config(path)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            parse_config(tmp_path / "absent.json")


class TestRunConfig:
    def test_defaults(self):
        rc = RunConfig()
        assert rc.system == SpinSystemConfig()
        assert rc.drive == DriveConfig()

    @pytest.mark.parametrize(
        "kwargs", [{"n_theta": 4}, {"n_phi": 7}, {"seed": -1}, {"n_theta": 16.0}]
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


class TestDumpsJson:
    @pytest.mark.parametrize(
        "value",
        [0.1, 1.0 / 3.0, math.pi, 1.2345678901234567e-300, -7.1e300, 2.0**-52],
    )
    def test_floats_round_trip_exactly(self, value):
        assert json.loads(dumps_json({"x": value}))["x"] == value

    def test_single_line_mode(self):
        text = dumps_json({"a": [1, 2.5], "b": {"c": None}}, indent=None)
        assert "\n" not in text
        assert json.loads(text) == {"a": [1, 2.5], "b": {"c": None}}

    def test_indented_mode_parses(self):
        obj = {"name": "x", "flag": True, "rows": [[1.5, 2.5], [3.5, 4.5]]}
        text = dumps_json(obj)
        assert "\n" in text
        assert json.loads(text) == obj

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            dumps_json({"x": object()})


class TestEmitConfig:
    def test_round_trip_identity(self, tmp_path):
        out = tmp_path / "resolved.json"
        assert main(["emit-config", "--output", str(out)]) == 0
        assert parse_config(out) == RunConfig()

    def test_round_trip_preserves_overrides(self, tmp_path):
        src = write_config(
            tmp_path, {"amplitude_hz": 0.25, "n_theta": 16, "epsilon_p": 1e-5}
        )
        out = tmp_path / "resolved.json"
        assert main(["emit-config", "--config", src, "--output", str(out)]) == 0
        assert parse_config(out) == parse_config(src)

    def test_stdout_mode(self, capsys):
        assert main(["emit-config"]) == 0
        payload = json.loads(capsys.readouterr().out)
        keys = list(payload)
        assert keys[0] == "j_coupling_hz"
        assert keys[-1] == "seed"
        assert payload["amplitude_hz"] == 0.1
        assert payload["duration_s"] == 100.0


class TestSteadyCommand:
    def test_writes_density_matrix_json(self, tmp_path, capsys):
        out = tmp_path / "steady.json"
        assert main(["steady", "--output", str(out), "--amplitude", "0.1"]) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "density-matrix"
        assert "|4>" in payload["basis"]
        rho = np.array(payload["real"]) + 1j * np.array(payload["imag"])
        expected = steady_state(
            build_liouvillian(SpinSystemConfig(), DriveConfig(amplitude_hz=0.1))
        )
        np.testing.assert_array_equal(rho, expected)
        assert payload["config"] == json.loads(
            dumps_json(resolved_config_dict(RunConfig()), indent=None)
        )
        assert capsys.readouterr().out.startswith("steady:")


class TestHusimiCommand:
    def test_writes_grid_and_metadata(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "husimi", "--output", str(out), "--steady",
                "--n-theta", "16", "--n-phi", "16",
            ]
        )
        assert code == 0
        headers, columns, rows = read_csv_body(out)
        assert headers[0] == "# spinsync husimi-grid"
        assert headers[1].startswith("# config ")
        assert columns == "theta,phi,Q"
        assert len(rows) == 16 * 16
        values = np.array(
            [float(r.split(",")[2]) for r in rows]
        ).reshape(16, 16)
        expected = husimi_grid(
            steady_state(build_liouvillian(SpinSystemConfig(), DriveConfig())),
            n_theta=16,
            n_phi=16,
        )
        np.testing.assert_array_equal(values, expected.values)

        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["kind"] == "husimi-metadata"
        assert meta["steady_state"] is True
        assert meta["visibility"] > 0.0
        assert meta["config"]["j_coupling_hz"] == 868.0

    def test_header_config_is_parseable(self, tmp_path):
        out = tmp_path / "grid.csv"
        main(["husimi", "--output", str(out), "--steady",
              "--n-theta", "8", "--n-phi", "8"])
        headers, _, _ = read_csv_body(out)
        embedded = json.loads(headers[1].removeprefix("# config "))
        assert embedded == json.loads(
            dumps_json(resolved_config_dict(RunConfig()), indent=None)
        )

    def test_finite_duration_mode(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "husimi", "--output", str(out), "--duration", "0.5",
                "--n-theta", "8", "--n-phi", "8",
            ]
        )
        assert code == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["steady_state"] is False

    def test_coarse_grid_rejected(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            ["husimi", "--output", str(out), "--steady", "--n-theta", "4"]
        )
        assert code == 2


class TestSeriesCommand:
    def test_writes_series_csv(self, tmp_path):
        out = tmp_path / "series.csv"
        src = write_config(tmp_path, {"n_theta": 16, "n_phi": 16})
        code = main(
            [
                "series", "--config", src, "--output", str(out),
                "--amplitude", "0.1", "--durations", "0.05,10.0",
            ]
        )
        assert code == 0
        headers, columns, rows = read_csv_body(out)
        assert headers[0] == "# spinsync drive-series"
        assert columns == "duration_s,visibility,abs_coherence"
        assert len(rows) == 2
        parsed = [tuple(float(v) for v in r.split(",")) for r in rows]
        direct = run_drive_series(
            SpinSystemConfig(), 0.1, durations=(0.05, 10.0),
            n_theta=16, n_phi=16,
        )
        for (t, vis, coh), point in zip(parsed, direct):
            assert t == point.duration_s
            assert vis == point.visibility
            assert coh == point.coherence_abs
        assert parsed[1][2] > parsed[0][2]

    @pytest.mark.parametrize("durations", ["1.0,0.5", "0,1.0", "-1.0"])
    def test_bad_durations_exit_config(self, tmp_path, durations):
        out = tmp_path / "series.csv"
        code = main(
            ["series", "--output", str(out), "--durations", durations]
        )
        assert code == 2

    def test_empty_duration_list_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["series", "--output", str(tmp_path / "s.csv"),
                  "--durations", ","])
        assert exc.value.code == 64


class TestAmpSweepCommand:
    ARGS = ["--omega-min", "0.05", "--omega-max", "0.2", "--n-omega", "2"]

    def run(self, tmp_path, args=ARGS):
        out = tmp_path / "amp.csv"
        src = write_config(tmp_path, {"n_theta": 16, "n_phi": 16})
        code = main(["amp-sweep", "--config", src, "--output", str(out)] + args)
        return code, out

    def test_writes_sweep_csv(self, tmp_path):
        code, out = self.run(tmp_path)
        assert code == 0
        headers, columns, rows = read_csv_body(out)
        assert headers[0] == "# spinsync sweep visibility"
        assert columns == "omega_hz,observable"
        assert len(rows) == 2
        omegas = np.logspace(math.log10(0.05), math.log10(0.2), 2)
        direct = run_amplitude_sweep(
            SpinSystemConfig(), omegas, n_theta=16, n_phi=16
        )
        for row, x, v in zip(rows, omegas, direct.values):
            got_x, got_v = (float(p) for p in row.split(","))
            assert got_x == x
            assert got_v == v

    @pytest.mark.parametrize(
        "args",
        [
            ["--n-omega", "0"],
            ["--omega-min", "2", "--omega-max", "1"],
            ["--omega-min", "1", "--omega-max", "1", "--n-omega", "2"],
        ],
    )
    def test_bad_flags_exit_config(self, tmp_path, args):
        code, out = self.run(tmp_path, args)
        assert code == 2
        assert not out.exists()


class TestArnoldCommand:
    def test_writes_grid_csv(self, tmp_path):
        out = tmp_path / "arnold.csv"
        code = main(
            [
                "arnold", "--output", str(out),
                "--omega-min", "0.1", "--omega-max", "0.2", "--n-omega", "2",
                "--detuning-min", "-1", "--detuning-max", "1",
                "--n-detuning", "3", "--duration", "10",
            ]
        )
        assert code == 0
        headers, columns, rows = read_csv_body(out)
        assert headers[0] == "# spinsync sweep max-sync"
        assert columns == "omega_hz,detuning_hz,observable"
        assert len(rows) == 6
        table = np.array(
            [[float(v) for v in row.split(",")] for row in rows]
        )
        values = table[:, 2].reshape(2, 3)
        # detuning symmetry survives serialization
        np.testing.assert_allclose(
            values[:, 0], values[:, 2], rtol=1e-8, atol=0.0
        )
        assert np.all(values[:, 1] >= values[:, 0])

    def test_asymmetric_range_exits_config(self, tmp_path):
        code = main(
            [
                "arnold", "--output", str(tmp_path / "a.csv"),
                "--detuning-min", "-1", "--detuning-max", "2",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--n-omega", "0"],
            ["--duration", "-1"],
            ["--duration", "0"],
            ["--n-detuning", "0"],
            ["--n-detuning", "1"],
            ["--detuning-min", "1", "--detuning-max", "-1"],
        ],
    )
    def test_bad_flags_exit_config(self, tmp_path, args):
        out = tmp_path / "a.csv"
        assert main(["arnold", "--output", str(out)] + args) == 2
        assert not out.exists()


class TestImhdVerifyCommand:
    COMMON = ["--steady", "--n-theta", "16", "--n-phi", "16"]

    def test_exact_variant_passes(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["imhd-verify", "--output", str(report_path)] + self.COMMON
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["variant"] == "exact-populations"
        assert report["passed"] is True
        assert report["max_abs_deviation"] < 1e-9
        assert "passed=true" in capsys.readouterr().out

    def test_tight_tolerance_fails(self, tmp_path):
        # undriven, rho31 = 0: the bound is the tolerance alone and the
        # deviation is rounding, about 1e-16
        report_path = tmp_path / "report.json"
        code = main(
            ["imhd-verify", "--output", str(report_path), "--amplitude", "0",
             "--tolerance", "1e-17"] + self.COMMON
        )
        assert code == 1
        assert json.loads(report_path.read_text())["passed"] is False

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bound_includes_rho31_leakage(self, tmp_path, variant):
        # at 1 Hz the exact rho31 leakage (about 2e-8) exceeds the tolerance
        report_path = tmp_path / "report.json"
        code = main(
            ["imhd-verify", "--output", str(report_path), "--amplitude", "1.0",
             "--variant", variant] + self.COMMON
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        rho = steady_state(
            build_liouvillian(SpinSystemConfig(), DriveConfig(amplitude_hz=1.0))
        )
        assert report["bound"] >= HUSIMI_PREFACTOR * abs(rho[1, 3]) + 1e-9
        assert 1e-9 < report["max_abs_deviation"] < report["bound"]

    def test_quarter_variant_within_population_bound(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(
            ["imhd-verify", "--output", str(report_path),
             "--variant", "quarter-approximation"] + self.COMMON
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["max_abs_deviation"] < report["bound"]
        # the approximation really is coarser than the exact variant
        assert report["max_abs_deviation"] > 1e-9

    def test_report_is_optional(self, tmp_path, capsys):
        assert main(["imhd-verify"] + self.COMMON) == 0
        out = capsys.readouterr().out
        assert "max_abs_deviation=" in out
        assert list(tmp_path.iterdir()) == []

    def test_unknown_variant_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["imhd-verify", "--variant", "bogus"])
        assert exc.value.code == 64


class TestCalibrateCommand:
    def test_synthetic_noiseless(self, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["calibrate", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert abs(report["amplitude_hz"] - 0.1) / 0.1 < 0.01
        assert report["small_angle"] is True
        assert report["source"]["kind"] == "synthetic"
        assert report["source"]["seed"] == 1234

    def test_synthetic_with_noise_is_seeded(self, tmp_path):
        first = tmp_path / "fit1.json"
        second = tmp_path / "fit2.json"
        for path in (first, second):
            assert main(
                ["calibrate", "--output", str(path), "--noise", "0.01"]
            ) == 0
        assert first.read_text() == second.read_text()
        report = json.loads(first.read_text())
        assert abs(report["amplitude_hz"] - 0.1) / 0.1 < 0.03

    def test_input_file_mode(self, tmp_path):
        samples = tmp_path / "samples.csv"
        times = np.linspace(0.02, 0.4, 20)
        lines = ["# time_s,signal"]
        lines += [
            f"{t:.17g},{math.sin(2.0 * math.pi * 0.08 * t):.17g}"
            for t in times
        ]
        samples.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        code = main(
            ["calibrate", "--input", str(samples), "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["amplitude_hz"] - 0.08) / 0.08 < 0.01
        assert report["source"] == {"kind": "file", "path": str(samples)}

    def test_missing_input_file_exits_io(self, tmp_path):
        code = main(
            [
                "calibrate", "--input", str(tmp_path / "absent.csv"),
                "--output", str(tmp_path / "fit.json"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "extra",
        [["--n-samples", "2"], ["--noise", "-0.5"]],
    )
    def test_bad_parameters_exit_config(self, tmp_path, extra):
        code = main(
            ["calibrate", "--output", str(tmp_path / "fit.json")] + extra
        )
        assert code == 2

    def test_short_input_file_exits_config(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("0.1,0.05\n0.2,0.11\n")
        code = main(
            [
                "calibrate", "--input", str(samples),
                "--output", str(tmp_path / "fit.json"),
            ]
        )
        assert code == 2


class TestReadSamplesCsv:
    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# header\n\n0.1,0.5\n# mid\n0.2,0.7\n")
        times, signals = read_samples_csv(path)
        np.testing.assert_array_equal(times, [0.1, 0.2])
        np.testing.assert_array_equal(signals, [0.5, 0.7])

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.1\n")
        with pytest.raises(ConfigError, match="two columns"):
            read_samples_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.1,fast\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            read_samples_csv(path)


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        code = main(
            [
                "steady", "--output", str(tmp_path / "out.json"),
                "--config", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 3

    def test_schema_error(self, tmp_path):
        src = write_config(tmp_path, {"wavelength_nm": 500.0})
        code = main(
            ["steady", "--output", str(tmp_path / "out.json"), "--config", src]
        )
        assert code == 2

    def test_invariant_error(self, tmp_path):
        src = write_config(tmp_path, {"t1_p_s": -2.0})
        code = main(
            ["steady", "--output", str(tmp_path / "out.json"), "--config", src]
        )
        assert code == 2

    def test_unwritable_output(self, tmp_path):
        # the path is a directory, so the open() for writing fails
        assert main(["steady", "--output", str(tmp_path)]) == 3

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["resonate"])
        assert exc.value.code == 64

    def test_missing_required_output_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["steady"])
        assert exc.value.code == 64

    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64


def strict_json(text: str):
    """json.loads that rejects the NaN and Infinity literals."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def assert_round_trips(tmp_path, config: dict, expected: RunConfig) -> None:
    path = tmp_path / "round-trip.json"
    path.write_text(json.dumps(config))
    assert parse_config(path) == expected


class TestRunnerContract:
    """Every subcommand: summary line, strict outputs, config header last."""

    CONFIG = {"n_theta": 8, "n_phi": 8, "amplitude_hz": 0.2, "seed": 7}
    # subcommand: (extra flags, output file names, CSV kind or None for JSON)
    CASES = {
        "steady": ([], ["out.json"], None),
        "husimi": (["--steady"], ["out.csv", "out.json"], "husimi-grid"),
        "series": (["--durations", "0.05,1"], ["out.csv"], "drive-series"),
        "amp-sweep": (
            ["--omega-min", "0.05", "--omega-max", "0.2", "--n-omega", "2"],
            ["out.csv"], "sweep visibility",
        ),
        "arnold": (
            ["--omega-min", "0.1", "--omega-max", "0.2", "--n-omega", "2",
             "--detuning-min", "-1", "--detuning-max", "1", "--n-detuning", "3",
             "--duration", "10"],
            ["out.csv"], "sweep max-sync",
        ),
        "imhd-verify": (["--steady"], ["out.json"], None),
        "calibrate": (["--noise", "0.01"], ["out.json"], None),
        "emit-config": ([], ["out.json"], None),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_outputs_and_summary(self, tmp_path, capsys, command):
        extra, names, csv_kind = self.CASES[command]
        src = write_config(tmp_path, self.CONFIG)
        expected = parse_config(src)
        out = tmp_path / names[0]
        code = main([command, "--config", src, "--output", str(out)] + extra)
        assert code == 0
        paths = " ".join(str(tmp_path / name) for name in names)
        summary = capsys.readouterr().out
        assert re.fullmatch(
            rf"{command}: \S.* runtime=\d+\.\d{{3}}s wrote {re.escape(paths)}\n",
            summary,
        )
        for name in names:
            text = (tmp_path / name).read_text()
            if name.endswith(".csv"):
                headers, columns, rows = read_csv_body(tmp_path / name)
                assert headers[0] == f"# spinsync {csv_kind}"
                blob = strict_json(headers[1].removeprefix("# config "))
                assert_round_trips(tmp_path, blob, expected)
                width = len(columns.split(","))
                for row in rows:
                    cells = [float(v) for v in row.split(",")]
                    assert len(cells) == width
                    assert all(math.isfinite(v) for v in cells)
            elif command == "emit-config":
                assert_round_trips(tmp_path, strict_json(text), expected)
            else:
                report = strict_json(text)
                assert list(report)[0] == "kind"
                assert list(report)[-1] == "config"
                assert_round_trips(tmp_path, report["config"], expected)


class TestFlagValidation:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("steady", "--amplitude", "nan"),
            ("steady", "--detuning", "inf"),
            ("husimi", "--amplitude", "inf"),
            ("husimi", "--duration", "nan"),
            ("series", "--amplitude", "-inf"),
            ("series", "--durations", "0.1,nan"),
            ("amp-sweep", "--omega-min", "nan"),
            ("amp-sweep", "--omega-max", "inf"),
            ("arnold", "--omega-min", "nan"),
            ("arnold", "--omega-max", "inf"),
            ("arnold", "--detuning-min", "-inf"),
            ("arnold", "--detuning-max", "nan"),
            ("arnold", "--duration", "inf"),
            ("imhd-verify", "--detuning", "nan"),
            ("imhd-verify", "--duration", "inf"),
            ("imhd-verify", "--tolerance", "inf"),
            ("calibrate", "--amplitude", "nan"),
            ("calibrate", "--noise", "nan"),
        ],
    )
    def test_non_finite_is_usage_error(self, tmp_path, command, flag, value):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--output", str(out), f"{flag}={value}"])
        assert exc.value.code == 64
        assert list(tmp_path.iterdir()) == []

    def test_sweep_defaults_are_the_experiment_defaults(self):
        parser = build_parser()
        amp = parser.parse_args(["amp-sweep", "--output", "x"])
        np.testing.assert_array_equal(
            log_axis(amp.omega_min, amp.omega_max, amp.n_omega),
            default_amplitude_grid(),
        )
        arnold = parser.parse_args(["arnold", "--output", "x"])
        omegas, detunings = default_arnold_grid()
        np.testing.assert_array_equal(
            log_axis(arnold.omega_min, arnold.omega_max, arnold.n_omega), omegas
        )
        np.testing.assert_array_equal(
            np.linspace(
                arnold.detuning_min, arnold.detuning_max, arnold.n_detuning
            ),
            detunings,
        )
        assert arnold.duration == ARNOLD_DURATION_S
        series = parser.parse_args(["series", "--output", "x"])
        assert series.durations == DEFAULT_SERIES_DURATIONS

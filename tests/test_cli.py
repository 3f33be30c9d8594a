"""Command-line interface: config parsing, serialization, exit codes."""

import inspect
import itertools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import spinsync.cli as cli
import spinsync.imhd as imhd

from spinsync import (
    HUSIMI_PREFACTOR,
    DriveConfig,
    HusimiGrid,
    SpinSystemConfig,
    build_liouvillian,
    husimi_grid,
    run_amplitude_sweep,
    run_arnold_tongue,
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
    write_grid_csv,
    write_series_csv,
    write_sweep_csv,
)
from spinsync.experiments import (
    AMPLITUDE_SWEEP_AXIS,
    ARNOLD_DETUNING_AXIS,
    ARNOLD_OMEGA_AXIS,
    DEFAULT_SERIES_DURATIONS,
    linear_axis,
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

    # bools are ints to Python but not to the JSON schema parse_config reads
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_theta": 4}, {"n_phi": 7}, {"seed": -1}, {"n_theta": 16.0},
            {"seed": True}, {"seed": False}, {"n_phi": True},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
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
        """Both headers record the grid that ran: the flags' 8x8, not the
        default config's 64x128."""
        out = tmp_path / "grid.csv"
        main(["husimi", "--output", str(out), "--steady",
              "--n-theta", "8", "--n-phi", "8"])
        headers, _, _ = read_csv_body(out)
        ran = resolved_config_dict(RunConfig(n_theta=8, n_phi=8))
        assert headers[1] == "# config " + dumps_json(ran, indent=None)
        embedded = json.loads(headers[1].removeprefix("# config "))
        assert embedded == json.loads(dumps_json(ran, indent=None))
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["config"] == embedded

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

    def test_json_output_collides_with_metadata(self, tmp_path, capsys):
        # the grid and its .json metadata would both go to g.json
        out = tmp_path / "g.json"
        code = main(["husimi", "--output", str(out), "--steady"])
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        assert "output paths collide" in capsys.readouterr().err

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

    @pytest.mark.parametrize("durations", ["1.0,0.5", "1.0,1.0", "-1.0"])
    def test_bad_durations_exit_config(self, tmp_path, durations):
        out = tmp_path / "series.csv"
        code = main(
            ["series", "--output", str(out), "--durations", durations]
        )
        assert code == 2

    def test_zero_duration_is_the_thermal_state(self, tmp_path):
        """t = 0, as in the library: the first row is the undriven thermal
        state, with no phase contrast and rho42 = 0."""
        out = tmp_path / "series.csv"
        src = write_config(tmp_path, {"n_theta": 16, "n_phi": 16})
        argv = ["series", "--config", src, "--output", str(out), "--durations", "0,1.0"]
        assert main(argv) == 0
        rows = [tuple(map(float, r.split(","))) for r in read_csv_body(out)[2]]
        assert rows[0] == (0.0, 0.0, 0.0)
        assert rows[1][0] == 1.0 and rows[1][2] > 0.0

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
            ["--n-omega", "-1"],
            # distinct ends, but the 61 points are not all distinct
            ["--omega-min", "1", "--omega-max", "1.000000000000001", "--n-omega", "61"],
            # 10 ** log10(max) rounds past the float range
            ["--omega-max", "1.7976931348623157e308"],
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
            ["--n-detuning", "0"],
            ["--n-detuning", "1"],
            ["--detuning-min", "1", "--detuning-max", "-1"],
            ["--n-omega", "-1"],
            ["--n-detuning", "-1"],
            ["--omega-min", "2", "--omega-max", "1"],
        ],
    )
    def test_bad_flags_exit_config(self, tmp_path, args):
        out = tmp_path / "a.csv"
        assert main(["arnold", "--output", str(out)] + args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("high, code", [("1.0000000001", 0), ("1.00000001", 2)])
    def test_detuning_symmetry_is_the_librarys(self, tmp_path, high, code):
        """The detuning grid is symmetric to within run_arnold_tongue's
        1e-9 of its largest |detuning| (at least 1 Hz), and no closer."""
        out = tmp_path / "a.csv"
        argv = ["arnold", "--steady", "--output", str(out), "--n-omega", "2",
                "--detuning-min", "-1", "--detuning-max", high, "--n-detuning", "3"]
        assert main(argv) == code
        assert out.exists() == (code == 0)

    def test_duration_defaults_to_the_config_and_binds_propagation_only(
        self, tmp_path
    ):
        """--duration defaults to the config's duration_s; a zero one, from
        either, leaves the propagated tongue at the thermal state's 0 in
        every cell, and the steady one, which reads no duration, as it is."""
        grid = ["--n-omega", "2", "--n-detuning", "3",
                "--detuning-min", "-1", "--detuning-max", "1"]

        def run(name, *argv):
            out = tmp_path / f"{name}.csv"
            return main(["arnold", "--output", str(out), *grid, *argv]), out

        ten = write_config(tmp_path, {"duration_s": 10.0})
        assert run("config", "--config", ten)[0] == 0
        assert run("flag", "--duration", "10")[0] == 0
        assert (tmp_path / "config.csv").read_bytes() == (
            tmp_path / "flag.csv"
        ).read_bytes()
        zero = write_config(tmp_path, {"duration_s": 0.0})
        for name, argv in (("config-zero", ["--config", zero]),
                           ("flag-zero", ["--duration", "0"])):
            code, propagated = run(name, *argv)
            assert code == 0
            values = [float(r.split(",")[-1]) for r in read_csv_body(propagated)[2]]
            assert values == [0.0] * 6
        code, steady = run("steady", "--config", zero, "--steady")
        assert code == 0
        assert read_csv_body(steady)[2] == read_csv_body(
            run("steady-default", "--steady")[1]
        )[2]


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

    def test_summary_without_output_names_no_file(self, tmp_path, capsys):
        """With no --output nothing is written, and the summary line ends
        at its runtime, with no dangling 'wrote'."""
        assert main(["imhd-verify"] + self.COMMON) == 0
        summary = capsys.readouterr().out
        assert re.fullmatch(
            r"imhd-verify: \S.* passed=true runtime=\d+\.\d{3}s\n", summary
        )

    def test_tight_tolerance_fails(self, tmp_path, monkeypatch):
        # undriven, rho31 = 0: the bound is the tolerance alone and the
        # deviation is rounding, about 1e-16
        monkeypatch.setattr(imhd, "DEVIATION_TOLERANCE", 1e-17)
        report_path = tmp_path / "report.json"
        code = main(
            ["imhd-verify", "--output", str(report_path), "--amplitude", "0"]
            + self.COMMON
        )
        assert code == 1
        report = json.loads(report_path.read_text())
        assert report["passed"] is False and report["bound"] == 1e-17

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

    @pytest.mark.parametrize("steady", [True, False], ids=["steady", "driven"])
    def test_report_records_steady_state(self, tmp_path, steady):
        """The report says which state was read, as husimi's metadata does."""
        report_path = tmp_path / "report.json"
        argv = ["imhd-verify", "--output", str(report_path), "--n-theta", "16",
                "--n-phi", "16"] + ["--steady"] * steady
        assert main(argv) == 0
        report = json.loads(report_path.read_text())
        assert report["steady_state"] is steady
        assert list(report)[-4:] == ["steady_state", "n_theta", "n_phi", "config"]

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
        [
            ["--n-samples", "2"], ["--noise", "-0.5"],
            ["--n-samples", "0"], ["--n-samples", "-1"],
        ],
    )
    def test_bad_parameters_exit_config(self, tmp_path, extra):
        code = main(
            ["calibrate", "--output", str(tmp_path / "fit.json")] + extra
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_input_file_ignores_synthetic_flags(self, tmp_path):
        """--n-samples and --noise shape the synthetic samples only: a
        three-row file fits whatever they say."""
        samples = tmp_path / "samples.csv"
        samples.write_text("0.1,0.05\n0.2,0.11\n0.3,0.16\n")
        fits = []
        for name, extra in (
            ("plain", []), ("flags", ["--n-samples", "2", "--noise", "-0.5"])
        ):
            out = tmp_path / f"{name}.json"
            argv = ["calibrate", "--input", str(samples), "--output", str(out)]
            assert main(argv + extra) == 0
            fits.append(out.read_bytes())
        assert fits[0] == fits[1]

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

    @pytest.mark.parametrize("row", ["0.1,nan", "nan,0.05", "0.1,-inf", "inf,0.05"])
    def test_non_finite_input_exits_config(self, tmp_path, row, capsys):
        # nan would be written as a bare `nan`, which is not JSON
        samples = tmp_path / "samples.csv"
        samples.write_text(f"0.02,0.01\n{row}\n0.2,0.11\n0.3,0.16\n")
        out = tmp_path / "fit.json"
        code = main(["calibrate", "--input", str(samples), "--output", str(out)])
        assert code == 2
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            [], ["--amplitude", "1e300"], ["--amplitude", "-3"],
            ["--amplitude", "1e308"], ["--amplitude", "1.7976931348623157e308"],
            ["--noise", "1e308"], ["--noise", "1e200"], ["--n-samples", "500"],
            ["--input", "{tiny}"], ["--input", "{huge}"], ["--input", "{large}"],
        ],
    )
    def test_every_report_is_strict_json(self, tmp_path, capsys, extra):
        """Each calibrate run writes standard JSON with finite numbers, or
        exits 2 with nothing written; a warning fails the test."""
        rows = {
            "tiny": "1e-200,1\n2e-200,1\n3e-200,1\n",
            "huge": "1e200,1e300\n2e200,1e300\n3e200,1e300\n",
            "large": "1e100,1e100\n2e100,3e100\n3e100,2e100\n",
        }
        for name, text in rows.items():
            (tmp_path / f"{name}.csv").write_text(text)
        extra = [arg.format(**{k: tmp_path / f"{k}.csv" for k in rows}) for arg in extra]
        out = tmp_path / "fit.json"
        code = main(["calibrate", "--output", str(out)] + extra)
        if code == 0:
            report = strict_json(out.read_text())
            assert math.isfinite(report["amplitude_hz"])
            assert math.isfinite(report["residual_rms"])
        else:
            assert code == 2
            assert not out.exists()
            assert "non-finite" in capsys.readouterr().err

    def test_overflowing_synthetic_amplitude_exits_config(self, tmp_path, capsys):
        out = tmp_path / "fit.json"
        assert main(["calibrate", "--output", str(out), "--amplitude", "1e308"]) == 2
        assert not out.exists()
        assert "synthetic samples are non-finite" in capsys.readouterr().err


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

    @pytest.mark.parametrize("row", ["0.02,0.01,junk", "0.02,0.01,0.5", "0.02,0.01,"])
    def test_extra_columns_rejected(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"0.01,0.005\n{row}\n0.03,0.015\n")
        with pytest.raises(ConfigError, match="two columns"):
            read_samples_csv(path)

    def test_extra_columns_exit_config(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("0.1,0.05\n0.2,0.11,junk\n0.3,0.16\n")
        out = tmp_path / "fit.json"
        assert main(["calibrate", "--input", str(samples), "--output", str(out)]) == 2
        assert not out.exists()

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("0.1,fast\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            read_samples_csv(path)

    @pytest.mark.parametrize(
        "row",
        ["nan,0.5", "0.1,nan", "inf,0.5", "0.1,inf", "-inf,0.5", "0.1,-inf",
         "1e400,0.5", "0.1,-1e400"],
    )
    def test_non_finite_rejected(self, tmp_path, row):
        path = tmp_path / "s.csv"
        path.write_text(f"0.05,0.2\n{row}\n")
        with pytest.raises(ConfigError, match="non-finite"):
            read_samples_csv(path)

    def test_no_samples_gives_empty_arrays(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# only a header\n")
        times, signals = read_samples_csv(path)
        assert times.shape == signals.shape == (0,)


# Values whose 17-digit text is easy to get wrong: non-finite, signed zero,
# subnormals, the %g switch to exponent form at 1e16/1e17, integer-valued.
SPECIAL_VALUES = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.5e-320,
    2.2250738585072014e-308, 1e16, 1e16 - 2.0, 1e16 + 2.0, 9999999999999998.0,
    1e17, 99999999999999984.0, -1e17, 1.0, -7.0, 3.0, 2.0**53, 2.0**53 + 2.0,
    123456789.0, 0.1, 1.0 / 3.0, 1e-5, 1e-4, 1e300, -1.7976931348623157e308,
]


def special_grid_values(rng, shape) -> np.ndarray:
    """The special values first, then doubles spread over every exponent."""
    values = np.ldexp(rng.standard_normal(shape), rng.integers(-1080, 1020, shape))
    flat = values.reshape(-1)
    flat[: len(SPECIAL_VALUES)] = SPECIAL_VALUES[: flat.size]
    return values


class TestCsvWriterBytes:
    """The one-%-operation writers reproduce the per-value reference writer
    of tests/oracles.py byte for byte."""

    def test_grid_on_special_values(self, rng):
        # the minimum 8x8 grid, with the special values on the theta axis too
        thetas = np.array([-np.inf, -1e17, -0.0, 5e-324, 1.0, 1e16, 1e17, np.inf])
        grid = HusimiGrid(
            thetas=thetas,
            phis=np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
            values=special_grid_values(rng, (8, 8)),
        )
        rc = RunConfig(n_theta=8, n_phi=8)
        assert write_grid_csv(grid, rc) == oracles.grid_csv(grid, rc)

    def test_grid_of_a_steady_state(self):
        rho = steady_state(build_liouvillian(SpinSystemConfig(), DriveConfig()))
        grid = husimi_grid(rho, n_theta=64, n_phi=128)
        rc = RunConfig()
        assert write_grid_csv(grid, rc) == oracles.grid_csv(grid, rc)

    @pytest.mark.parametrize(
        "axes",
        [
            # np.float64 and Python-float axes
            {
                "omega_hz": np.array(SPECIAL_VALUES[:7]),
                "detuning_hz": [-2.0, 0.0, 1e16],
            },
            {"amplitude_hz": list(SPECIAL_VALUES)},
            # 1-point axes
            {"omega_hz": np.array([1e17]), "detuning_hz": np.array([-0.0])},
            {"omega_hz": [5e-324]},
        ],
    )
    def test_sweep_on_special_values(self, rng, axes):
        shape = tuple(len(axis) for axis in axes.values())
        result = SimpleNamespace(
            axes=axes, values=special_grid_values(rng, shape), observable="sync"
        )
        rc = RunConfig()
        assert write_sweep_csv(result, rc) == oracles.sweep_csv(result, rc)

    def test_sweep_names_with_percent_signs(self):
        result = SimpleNamespace(
            axes={"omega %s": np.array([0.5, 1.0]), "%d": np.array([2.0])},
            values=np.array([[0.25], [np.nan]]),
            observable="100% %(sync)s",
        )
        rc = RunConfig()
        text = write_sweep_csv(result, rc)
        assert text == oracles.sweep_csv(result, rc)
        assert "\nomega %s,%d,observable\n" in text

    def test_real_sweeps(self):
        config = SpinSystemConfig()
        rc = RunConfig()
        for result in (
            run_amplitude_sweep(config, n_theta=8, n_phi=8),
            run_arnold_tongue(config, duration_s=None),
        ):
            assert write_sweep_csv(result, rc) == oracles.sweep_csv(result, rc)

    @pytest.mark.parametrize("n_points", [1, len(SPECIAL_VALUES)])
    def test_series_on_special_values(self, n_points):
        points = [
            SimpleNamespace(
                duration_s=float(i) + 0.5,
                visibility=np.float64(value),
                coherence_abs=SPECIAL_VALUES[-1 - i],
            )
            for i, value in enumerate(SPECIAL_VALUES[:n_points])
        ]
        rc = RunConfig()
        assert write_series_csv(points, rc) == oracles.series_csv(points, rc)

    def test_real_series(self):
        points = run_drive_series(
            SpinSystemConfig(), 0.1, durations=(0.05, 1.0, 100.0), n_theta=8, n_phi=8
        )
        rc = RunConfig()
        assert write_series_csv(points, rc) == oracles.series_csv(points, rc)


INTEGER_SLOTS = {x: ",0." + "0" * (-x - 1) + "%d" for x in range(-4, 0)}


class TestValueSlot:
    """The integer slot writes the bytes of the per-value "%.17g" writer of
    tests/oracles.py, and only one-decade grids in 10^-4 .. 1 take it.  The
    17 x 8 grids span three %-blocks, the last of one theta row."""

    @staticmethod
    def grid_slot(values) -> str:
        """Write ``values`` as a 17 x 8 grid, check its bytes, return its slot."""
        grid = HusimiGrid(
            thetas=np.linspace(0.0, np.pi, 17),
            phis=np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False),
            values=np.asarray(values, dtype=float).reshape(17, 8),
        )
        rc = RunConfig(n_theta=17, n_phi=8)
        assert write_grid_csv(grid, rc) == oracles.grid_csv(grid, rc)
        return cli._value_slot(grid.values.ravel())[0]

    @staticmethod
    def decade(rng, x, *placed) -> np.ndarray:
        """17 x 8 values uniform over [10^x, 10^(x+1)), ``placed`` at random
        cells."""
        values = rng.uniform(10.0**x, 10.0 ** (x + 1), 17 * 8)
        values[rng.choice(values.size, len(placed), replace=False)] = placed
        return values

    @pytest.mark.parametrize("x", range(-5, 1))
    def test_one_decade(self, rng, x):
        slot = self.grid_slot(self.decade(rng, x))
        assert slot == INTEGER_SLOTS.get(x, ",%.17g")

    @pytest.mark.parametrize("x", range(-5, 1))
    @pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
    def test_powers_of_ten_give_or_take_ulps(self, rng, x, ulps):
        """10^x moved by ``ulps`` ulps and 10^(x+1) by ``ulps`` - 1, each in a
        grid of decade x: a value below 10^x has an exact product below
        10^16 even where fl(p) rounds up to it (0.1 - 1 ulp)."""

        def moved(value, ulps):
            for _ in range(abs(ulps)):
                value = np.nextafter(value, math.copysign(math.inf, ulps))
            return value

        low, high = moved(10.0**x, ulps), moved(10.0 ** (x + 1), ulps - 1)
        for edge, inside in ((low, ulps >= 0), (high, ulps <= 0)):
            slot = self.grid_slot(self.decade(rng, x, edge))
            assert slot == (INTEGER_SLOTS.get(x, ",%.17g") if inside else ",%.17g")

    @pytest.mark.parametrize("x", range(-4, 0))
    def test_exact_ties_round_to_even(self, rng, x):
        """m / 2^(17-x) with m odd: x*10^(16-x) = m*5^(16-x)/2, halfway
        between two integers."""
        scale = 2.0 ** (17 - x)
        m = rng.integers(math.ceil(10.0**x * scale), 10.0 ** (x + 1) * scale, 17 * 8)
        assert self.grid_slot((m | 1) / scale) == INTEGER_SLOTS[x]

    @pytest.mark.parametrize(
        "x, short",
        [
            (-1, (0.5, 0.25, 0.125, 0.2, 0.75, 0.1, 0.9)),
            (-2, (0.0625, 0.03125, 0.015625, 0.05, 0.01)),
            (-3, (0.001953125, 0.005, 0.001)),
            (-4, (0.0009765625, 0.00048828125, 0.0001220703125, 0.0005)),
        ],
    )
    def test_digits_ending_in_zeros(self, rng, x, short):
        slot = self.grid_slot(self.decade(rng, x, *short))
        assert slot == INTEGER_SLOTS[x]

    @pytest.mark.parametrize("x", range(-5, 0))
    def test_two_decades(self, rng, x):
        values = rng.uniform(10.0**x, 10.0 ** (x + 2), 17 * 8)
        assert self.grid_slot(values) == ",%.17g"

    @pytest.mark.parametrize(
        "special", [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -0.25]
    )
    @pytest.mark.parametrize("x", [-4, -1])
    def test_special_values(self, rng, special, x):
        slot = self.grid_slot(self.decade(rng, x, special))
        assert slot == ",%.17g"

    def test_default_grid_takes_the_integer_slot_and_tongue_does_not(
        self, monkeypatch, tmp_path
    ):
        """A silent fallback would keep the bytes and lose the speed: the
        default steady Husimi grid (Q about 0.1935) takes the integer slot,
        the default tongue (values 8.3e-11 to 1.4e-8) "%.17g"."""
        slots = []
        value_slot = cli._value_slot

        def spied(values):
            slot, args = value_slot(values)
            slots.append(slot)
            return slot, args

        monkeypatch.setattr(cli, "_value_slot", spied)
        for command in (["husimi", "--steady"], ["arnold"]):
            assert main(command + ["--output", str(tmp_path / "out.csv")]) == 0
        assert slots == [INTEGER_SLOTS[-1], ",%.17g"]


def test_grid_writer_formats_axis_values_only(monkeypatch):
    """Per-cell formatting must not return: on 64x128 the grid writer calls
    _format_number once per axis value, plus once per number of the
    config header."""
    calls = []
    format_number = cli._format_number

    def counted(x):
        calls.append(x)
        return format_number(x)

    monkeypatch.setattr(cli, "_format_number", counted)
    rc = RunConfig()
    grid = husimi_grid(
        steady_state(build_liouvillian(rc.system, rc.drive)),
        n_theta=rc.n_theta, n_phi=rc.n_phi,
    )
    write_grid_csv(grid, rc)
    assert 0 < len(calls) <= 64 + 128 + len(resolved_config_dict(rc))


def key_cell_csv_text(rc, kind, columns, values, *axes) -> str:
    """The key/cell route the row templates replaced: one "theta,phi" key
    string per row, zipped with the values into the %s arguments."""
    labels = [[cli._format_number(x) for x in axis] for axis in axes]
    keys = list(map(",".join, itertools.product(*labels)))
    table = values.reshape(len(keys), -1)
    cells = itertools.chain.from_iterable(zip(keys, *table.T.tolist()))
    body = (("%s" + ",%.17g" * table.shape[1] + "\n") * len(keys)) % tuple(cells)
    blob = dumps_json(resolved_config_dict(rc), indent=None)
    return f"# spinsync {kind}\n# config {blob}\n{','.join(columns)}\n{body}"


def test_grid_writer_peak_memory_within_output_multiple(monkeypatch):
    """On the default 64x128 steady grid the writer's traced peak stays
    within 2.3 times the output's length L (474,128 characters, 1 B each).

    The peak falls in the final join.  Alive there are the pieces, header
    and eight blocks (L), the joined text (L), and the axis labels, the
    leading-label prefixes and the row templates (0.06 L); the integer
    slot's digits (8 B each, 0.14 L) go before the join.  Counting as if
    they lived on one block's template (1,024 rows, 0.09 L), its tuple of
    1,024 ints, 8 + 32 B each (0.09 L), and the list it came from (0.02 L)
    gives 2.26 L.  Measured: 2.07 L.  The one-%-operation route traces
    2.55 L, and the key/cell route, with its 8,192 keys and a 16,384-item
    tuple, 3.67 L; the latter must fail the bound."""
    rc = RunConfig()
    grid = husimi_grid(
        steady_state(build_liouvillian(rc.system, rc.drive)),
        n_theta=rc.n_theta, n_phi=rc.n_phi,
    )
    text = write_grid_csv(grid, rc)
    bound = 2.3 * len(text)
    assert oracles.traced_peak(lambda: write_grid_csv(grid, rc)) <= bound
    monkeypatch.setattr(cli, "_csv_text", key_cell_csv_text)
    assert write_grid_csv(grid, rc) == text
    assert oracles.traced_peak(lambda: write_grid_csv(grid, rc)) > bound


@pytest.mark.parametrize(
    "argv, writers",
    [
        (["husimi", "--steady", "--n-theta", "8", "--n-phi", "8"], ["write_grid_csv"]),
        (["amp-sweep", "--n-omega", "3"], ["write_sweep_csv"]),
        (["series", "--durations", "1"], ["write_series_csv"]),
    ],
)
def test_handlers_call_writers_through_module_globals(
    monkeypatch, tmp_path, argv, writers
):
    """The benchmark's tracer wraps these module-level names; a handler that
    bound them any other way would put the writing time elsewhere."""
    called = []
    for name in writers + ["_write_text"]:
        original = getattr(cli, name)

        def wrapper(*args, _name=name, _original=original):
            called.append(_name)
            return _original(*args)

        monkeypatch.setattr(cli, name, wrapper)
    assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 0
    assert called[0] == writers[0]
    assert set(called) == set(writers) | {"_write_text"}


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

    @pytest.mark.parametrize(
        "command, name",
        [("series", "out.csv"), ("husimi", "out.csv"), ("imhd-verify", "out.json")],
    )
    def test_overflowing_propagation_is_engine_error(
        self, tmp_path, capsys, command, name
    ):
        """At 1e20 Hz ||L t|| is finite but the exponential overflows: exit
        1 and no file (husimi's JSON would hold a bare NaN).  The suite turns
        warnings into errors, so a leaked RuntimeWarning fails here too."""
        out = tmp_path / name
        assert main([command, "--amplitude", "1e20", "--output", str(out)]) == 1
        assert "propagation overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["steady", "--amplitude", "1e308"], "generator"),
                (["amp-sweep", "--omega-max", "1e308"], "generator"),
                (["series", "--durations", "1e308"], "propagation"),
                (["arnold", "--duration", "1e308", "--n-omega", "2",
                  "--n-detuning", "3"], "propagation"),
                (["husimi", "--amplitude", "1e308"], "propagation"),
                # A t finite, its 1-norm not: one column sums to 4 pi Omega
                (["husimi", "--amplitude", "2e307", "--duration", "1"],
                 "propagation"),
                (["series", "--amplitude", "2e307", "--durations", "1"],
                 "propagation"),
                (["imhd-verify", "--amplitude", "2e307", "--duration", "1"],
                 "propagation"),
                # finite ends whose width overflows: a finite grid, 1e308 Hz off
                (["arnold", "--steady", "--detuning-min", "-1e308",
                  "--detuning-max", "1e308", "--n-detuning", "3"], "generator"),
            ]
        ],
    )
    def test_overflowing_drive_or_duration_is_engine_error(
        self, tmp_path, capsys, argv, message
    ):
        """A generator or a generator times t past the float range is an
        engine failure: exit 1, one line naming the overflow, no file, and
        no RuntimeWarning (which the suite would raise out of main)."""
        assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"spinsync: engine error: {message} overflows: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "t1, argv, message",
        [
            pytest.param(t1, argv, message, id=f"T1={t1:g} " + " ".join(argv))
            for t1, argv, message in [
                (1e-200, ["steady"], "generator overflows: the drive is too large"),
                (1e-200, ["amp-sweep", "--n-omega", "5"], "generator overflows: "),
                *((1e200, argv, "stationary subspace is degenerate; ") for argv in (
                    ["steady"], ["husimi", "--steady"], ["amp-sweep", "--n-omega", "5"],
                    ["arnold", "--steady", "--n-omega", "3", "--n-detuning", "3"],
                    ["imhd-verify", "--steady"],
                )),
                # exactly singular tongue rows: the single-drive solve names the cell
                (1e300, ["arnold", "--steady", "--n-omega", "3", "--n-detuning", "3"],
                 "stationary subspace is degenerate; steady state ambiguous "
                 "(worst cell (0, 0))\n"),
            ]
        ],
    )
    def test_extreme_relaxation_time_is_engine_error(
        self, tmp_path, capsys, t1, argv, message
    ):
        """A --config with T1P = T1F = 1e-200 s overflows the generator's
        norms, and one at 1e200 s or 1e300 s leaves the stationary subspace
        uncertified: exit 1, one line naming the failure, no file, and no
        RuntimeWarning (which the suite would raise out of main)."""
        config = write_config(tmp_path, {"t1_p_s": t1, "t1_f_s": t1})
        out = tmp_path / "out"
        out.mkdir()
        argv = argv + ["--config", config, "--output", str(out / "out.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"spinsync: engine error: {message}")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, observable",
        [
            pytest.param(argv, observable, id=" ".join(argv))
            for argv, observable in [
                (["series", "--amplitude", "1e308", "--durations", "0"],
                 "final_visibility=0"),
                (["husimi", "--amplitude", "1e308", "--duration", "0"],
                 "visibility=0"),
                (["imhd-verify", "--amplitude", "1e308", "--duration", "0"],
                 "passed=true"),
                (["arnold", "--duration", "0", "--omega-max", "1e308",
                  "--n-omega", "2", "--n-detuning", "3"], "max_observable=0"),
            ]
        ],
    )
    def test_zero_duration_on_overflowing_drive_is_thermal(
        self, tmp_path, capsys, argv, observable
    ):
        """t = 0 gives the thermal state whatever the drive: A t is exactly
        0 there, so e^0 = I even where the generator itself overflows.  Exit
        0 with the thermal state's values (no phase contrast, rho42 = 0)."""
        assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 0
        summary = capsys.readouterr().out
        assert f" {observable} " in summary
        if argv[0] == "series":
            rows = (tmp_path / "out.csv").read_text().splitlines()
            assert rows[-2:] == ["duration_s,visibility,abs_coherence", "0,0,0"]


    def test_out_of_memory_is_engine_error(self, tmp_path, capsys, monkeypatch):
        """A grid too large to allocate is an engine failure: exit 1 and one
        line, no traceback.  The scan is patched to raise NumPy's error for
        a 100000 x 100000 grid, so nothing large is allocated."""

        def too_large(*args, **kwargs):
            raise MemoryError(too_large.message)

        too_large.message = "Unable to allocate 74.5 GiB for an array"

        monkeypatch.setattr(cli, "imhd_scan", too_large)
        out = str(tmp_path / "out.json")
        assert main(["imhd-verify", "--n-theta", "8", "--output", out]) == 1
        err = capsys.readouterr().err
        assert err == f"spinsync: engine error: {too_large.message}\n"
        assert list(tmp_path.iterdir()) == []


class TestMalformedInputFiles:
    """A config or samples file that cannot be read as numbers, or whose
    values break a rule, is a configuration error: exit 2, one 'config
    error' line, nothing written."""

    @staticmethod
    def assert_config_error(tmp_path, capsys, argv, message):
        before = set(tmp_path.iterdir())
        assert main(argv + ["--output", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spinsync: config error: ") and err.count("\n") == 1
        assert message in err
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"\xff\xfe{}", "invalid JSON: 'utf-8' codec can't decode"),
            # past the float range: float() of it would overflow
            (b'{"t1_p_s": 1' + b"0" * 400 + b"}", "'t1_p_s' must be finite"),
            (b'{"detuning_hz": -1' + b"0" * 400 + b"}", "'detuning_hz' must be"),
            # past int()'s 4,300-digit limit, in a float key and an integer key
            (b'{"t1_p_s": 1' + b"0" * 4300 + b"}", "invalid JSON: Exceeds the limit"),
            (b'{"seed": 1' + b"0" * 4300 + b"}", "invalid JSON: Exceeds the limit"),
            # RunConfig's one integer rule, under the file's name
            (b'{"n_theta": 8.5}', "config.json: n_theta must be an integer >= 8"),
            (b'{"n_theta": true}', "config.json: n_theta must be an integer >= 8"),
            (b'{"n_theta": "8"}', "config.json: n_theta must be an integer >= 8"),
            # the field rule holds although no purity factor is derived
            (b'{"epsilon_p": 1e-5, "epsilon_f": 2e-5, "field_tesla": -1.0, '
             b'"temperature_k": 0.0}', "config.json: field must be positive"),
        ],
    )
    def test_config(self, tmp_path, capsys, text, message):
        src = tmp_path / "config.json"
        src.write_bytes(text)
        argv = ["steady", "--config", str(src)]
        self.assert_config_error(tmp_path, capsys, argv, message)

    def test_largest_integer_below_the_float_range_is_a_number(self, tmp_path):
        src = tmp_path / "config.json"
        src.write_text(json.dumps({"t1_p_s": int(1.7976931348623157e308)}))
        assert parse_config(src).system.t1_p_s == 1.7976931348623157e308

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"0.1,0.2\n0.2,\xff\n0.3,0.4\n", "'utf-8' codec can't decode"),
            (b"\xff\xfe0.1,0.2\n", "'utf-8' codec can't decode"),
            (b"0.1," + b"1" * 200_000 + b"\n", "field larger than field limit"),
        ],
    )
    def test_samples(self, tmp_path, capsys, text, message):
        samples = tmp_path / "samples.csv"
        samples.write_bytes(text)
        argv = ["calibrate", "--input", str(samples)]
        self.assert_config_error(tmp_path, capsys, argv, message)


class TestRepeatedMain:
    """main runs many jobs in one process (its parser and each system's
    generator terms are shared): every job's files depend on its own
    arguments alone, whatever ran before it."""

    RUNS = [
        ["steady"], ["husimi"], ["husimi", "--steady"], ["series"],
        ["amp-sweep"], ["arnold"], ["arnold", "--steady"], ["imhd-verify"],
        ["imhd-verify", "--steady"], ["calibrate"], ["emit-config"],
    ]
    OTHER_SYSTEM = {"j_coupling_hz": 500.0, "t1_p_s": 4.0, "n_theta": 8, "n_phi": 8}

    @staticmethod
    def run(argv, out_dir, *extra):
        out_dir.mkdir()
        code = main(argv + ["--output", str(out_dir / "out"), *extra])
        files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        return code, files

    @pytest.mark.parametrize("argv", RUNS, ids=" ".join)
    def test_rerun_is_byte_identical(self, tmp_path, capsys, argv):
        other = write_config(tmp_path, self.OTHER_SYSTEM)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"t1_p_s": -1.0}))
        first = self.run(argv, tmp_path / "first")
        assert first[1]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--output", str(tmp_path / "x"), "--no-such-flag"])
        assert exc.value.code == 64
        assert main(argv + ["--output", str(tmp_path / "x"), "--config", str(bad)]) == 2
        elsewhere = self.run(argv, tmp_path / "other", "--config", other)
        assert elsewhere[1].keys() == first[1].keys()
        assert all(elsewhere[1][name] != text for name, text in first[1].items())
        assert self.run(argv, tmp_path / "again") == first
        assert not (tmp_path / "x").exists()
        capsys.readouterr()

    def test_series_durations_do_not_leak(self, tmp_path):
        first = self.run(["series"], tmp_path / "first")
        assert self.run(["series", "--durations", "1,2"], tmp_path / "short")[0] == 0
        again = self.run(["series"], tmp_path / "again")
        assert again == first
        _, _, rows = read_csv_body(tmp_path / "again" / "out")
        durations = tuple(float(row.split(",")[0]) for row in rows)
        assert durations == DEFAULT_SERIES_DURATIONS

    def test_build_parser_is_fresh(self):
        """Callers that inspect or extend build_parser()'s result cannot
        change the parser main uses."""
        shared = cli._shared_parser()
        assert build_parser() is not shared
        assert build_parser() is not build_parser()
        assert cli._shared_parser() is shared

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
        if command == "arnold":  # --duration 10 overrides the config's 100 s
            expected = expected._replace(
                drive=expected.drive._replace(duration_s=10.0)
            )
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
                assert blob == json.loads(
                    dumps_json(resolved_config_dict(expected), indent=None)
                )
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


class TestResolvedConfigRoundTrip:
    """Every output embeds the config that ran: a run whose flags override
    config keys, repeated with --config set to its embedded config and
    without those flags, writes the same bytes."""

    CONFIG = {
        "j_coupling_hz": 500.0, "amplitude_hz": 0.2, "detuning_hz": 0.05,
        "duration_s": 2.0, "n_theta": 8, "n_phi": 12, "seed": 7,
    }
    KEY_OF_FLAG = {
        "--amplitude": "amplitude_hz", "--detuning": "detuning_hz",
        "--duration": "duration_s", "--n-theta": "n_theta", "--n-phi": "n_phi",
    }
    DRIVE = ["--amplitude", "0.3", "--detuning", "-0.1"]
    STATE = DRIVE + ["--duration", "1.5", "--n-theta", "10", "--n-phi", "9"]
    # subcommand: (flags that name config keys, other flags, output names)
    CASES = {
        "steady": (DRIVE, [], ["out.json"]),
        "husimi": (STATE, [], ["out.csv", "out.json"]),
        "series": (DRIVE, ["--durations", "0.05,1"], ["out.csv"]),
        "amp-sweep": (
            [], ["--omega-min", "0.05", "--omega-max", "0.2", "--n-omega", "2"],
            ["out.csv"],
        ),
        "arnold": (
            ["--duration", "1.5"],
            ["--omega-min", "0.1", "--omega-max", "0.2", "--n-omega", "2",
             "--detuning-min", "-1", "--detuning-max", "1", "--n-detuning", "3"],
            ["out.csv"],
        ),
        "imhd-verify": (STATE, [], ["out.json"]),
        # calibrate's --amplitude is the synthetic signal's, not the drive's
        "calibrate": ([], ["--amplitude", "0.3", "--noise", "0.01"], ["out.json"]),
    }

    @staticmethod
    def embedded_config(path) -> str:
        if path.suffix == ".csv":
            headers, _, _ = read_csv_body(path)
            return headers[1].removeprefix("# config ")
        return json.dumps(json.loads(path.read_text())["config"])

    @pytest.mark.parametrize("command", list(CASES))
    def test_embedded_config_reproduces_the_run(self, tmp_path, capsys, command):
        key_flags, other, names = self.CASES[command]
        src = write_config(tmp_path, self.CONFIG)
        runs = []
        for name, argv in (
            ("flags", ["--config", src, *key_flags]),
            ("embedded", ["--config", str(tmp_path / "embedded.json")]),
        ):
            out_dir = tmp_path / name
            out_dir.mkdir()
            code = main([command, "--output", str(out_dir / names[0]), *argv, *other])
            summary = capsys.readouterr().out
            files = {path.name: path.read_bytes() for path in out_dir.iterdir()}
            runs.append((code, summary.split(" runtime=")[0], files))
            embedded = self.embedded_config(out_dir / names[0])
            (tmp_path / "embedded.json").write_text(embedded)
        assert runs[0] == runs[1]
        assert sorted(runs[0][2]) == sorted(names)
        # the header holds the flags' values, each in place of the file's
        overrides = {
            self.KEY_OF_FLAG[flag]: json.loads(value)
            for flag, value in zip(key_flags[::2], key_flags[1::2])
        }
        ran = tmp_path / "ran.json"
        ran.write_text(json.dumps({**self.CONFIG, **overrides}))
        assert json.loads(embedded) == resolved_config_dict(parse_config(ran))
        assert (parse_config(ran) == parse_config(src)) == (not key_flags)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--amplitude", "-1"], "drive amplitude must be non-negative"),
            (["--duration", "-1"], "drive duration must be non-negative"),
            (["--n-theta", "4"], "n_theta must be an integer >= 8"),
            (["--n-phi", "7"], "n_phi must be an integer >= 8"),
        ],
    )
    def test_override_is_checked_as_the_config_is(
        self, tmp_path, capsys, flags, message
    ):
        """An override the constructors reject is a configuration error with
        their message: exit 2, one line, nothing written."""
        assert main(["husimi", "--output", str(tmp_path / "g.csv"), *flags]) == 2
        assert capsys.readouterr().err == f"spinsync: config error: {message}\n"
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize(
        "command, flags, code",
        [
            ("steady", ["--detuning", "-1e-3"], 0),
            ("steady", ["--detuning", "-.5", "--amplitude", "2.5E-1"], 0),
            ("steady", ["--detuning", "-2.5E+1"], 0),
            ("arnold", ["--detuning-min", "-3e0", "--detuning-max", "3e0"], 0),
            ("calibrate", ["--amplitude", "-1e308"], 2),
        ],
    )
    def test_negative_exponent_values_are_numbers(
        self, tmp_path, capsys, command, flags, code
    ):
        """A value such as -1e-3 or -.5 after its flag is read as a number,
        as in the --flag=value form: the same exit code and bytes."""
        joined = [f"{flag}={value}" for flag, value in zip(flags[::2], flags[1::2])]
        written = []
        for form, args in (("spaced", flags), ("joined", joined)):
            out_dir = tmp_path / form
            out_dir.mkdir()
            assert main([command, "--output", str(out_dir / "out"), *args]) == code
            written.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert written[0] == written[1]
        capsys.readouterr()

    def test_sweep_defaults_are_the_experiment_defaults(self):
        parser = build_parser()
        amp = parser.parse_args(["amp-sweep", "--output", "x"])
        np.testing.assert_array_equal(
            log_axis(amp.omega_min, amp.omega_max, amp.n_omega),
            log_axis(*AMPLITUDE_SWEEP_AXIS),
        )
        arnold = parser.parse_args(["arnold", "--output", "x"])
        omegas = log_axis(*ARNOLD_OMEGA_AXIS)
        detunings = linear_axis(*ARNOLD_DETUNING_AXIS)
        np.testing.assert_array_equal(
            log_axis(arnold.omega_min, arnold.omega_max, arnold.n_omega), omegas
        )
        np.testing.assert_array_equal(
            np.linspace(
                arnold.detuning_min, arnold.detuning_max, arnold.n_detuning
            ),
            detunings,
        )
        # --duration defaults to the config's duration_s, the library
        # tongue's default too
        assert arnold.duration_s is None
        tongue = inspect.signature(run_arnold_tongue).parameters["duration_s"]
        assert RunConfig().drive.duration_s == tongue.default
        series = parser.parse_args(["series", "--output", "x"])
        assert series.durations == DEFAULT_SERIES_DURATIONS

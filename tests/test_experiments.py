"""Experiment orchestration: limit cycle, drive series, sweeps, calibration."""

import json
import math

import mpmath
import numpy as np
import pytest

from spinsync import (
    CalibrationResult,
    DriveConfig,
    HusimiGrid,
    SpinSystemConfig,
    SweepResult,
    build_affine_liouvillian,
    build_liouvillian,
    calibrate_drive,
    check_density_matrix,
    husimi_grid,
    propagate,
    run_amplitude_sweep,
    run_arnold_tongue,
    run_drive_series,
    run_limit_cycle,
    state_visibility,
    steady_state,
    thermal_state,
    visibility,
)
from spinsync.experiments import (
    AMPLITUDE_SWEEP_AXIS,
    ARNOLD_DETUNING_AXIS,
    ARNOLD_OMEGA_AXIS,
    DEFAULT_SERIES_DURATIONS,
    linear_axis,
    log_axis,
)
from spinsync.system import DRIVE_DURATION_S, ConfigError
from spinsync import cli, experiments, liouville, phasespace
from spinsync.liouville import (
    DEGENERACY_RATIO,
    RESIDUAL_RTOL,
    _frobenius,
    _pole_form,
    _residual,
)
from spinsync.phasespace import HUSIMI_PREFACTOR, SYNC_COEFFICIENT

from conftest import SEED
from oracles import (
    POLE_FORM_PEAK_BYTES,
    PROPAGATE_BOUND,
    PROPAGATED_ROW_LOOP_PEAK_BYTES,
    STEADY_BOUND,
    STEADY_TEST_SYSTEMS,
    TONGUE_TEST_GRIDS,
    U,
    grid_visibility_bound,
    mp_visibility,
    pole_form_bound,
    propagated_tongue_rows,
    state_visibility_bound,
    steady_tongue_rows,
    traced_peak,
)


@pytest.fixture(scope="module")
def limit_cycle(config):
    return run_limit_cycle(config)


class TestLimitCycle:
    def test_no_phase_preference(self, limit_cycle):
        """Without a drive the phase distribution must be featureless."""
        assert limit_cycle.visibility == 0.0
        assert limit_cycle.max_sync == 0.0

    def test_state_is_diagonal(self, limit_cycle):
        off = limit_cycle.state - np.diag(np.diag(limit_cycle.state))
        assert np.max(np.abs(off)) < 1e-10
        check_density_matrix(limit_cycle.state)

    def test_grid_shape_and_phase_flatness(self, limit_cycle):
        assert isinstance(limit_cycle.grid, HusimiGrid)
        assert limit_cycle.grid.values.shape == (64, 128)
        # the profile still varies with theta (populations differ), but
        # every phi row must be constant when no coherence is present
        per_row = np.ptp(limit_cycle.grid.values, axis=1)
        assert np.max(per_row) < 1e-12 * np.max(limit_cycle.grid.values)

    def test_maximally_mixed_limit(self):
        """Zero purity factors give the identity state and a constant
        phase profile at one quarter of the Husimi prefactor."""
        config = SpinSystemConfig(epsilon_p=0.0, epsilon_f=0.0)
        result = run_limit_cycle(config, n_theta=16, n_phi=32)
        np.testing.assert_allclose(
            result.grid.values, HUSIMI_PREFACTOR / 4.0, rtol=0.0, atol=1e-12
        )

    def test_resolution_arguments(self, config):
        result = run_limit_cycle(config, n_theta=8, n_phi=16)
        assert result.grid.values.shape == (8, 16)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {}, {"j_coupling_hz": 217.0}, {"offset_p_hz": -400.0, "offset_f_hz": 3.0},
            {"t1_p_s": 3.0, "t1_f_s": 0.5}, {"epsilon_p": 0.05, "epsilon_f": 0.01},
        ],
    )
    def test_undriven_contrast_is_exactly_zero(self, kwargs):
        """The undriven order-0 block couples no population to a coherence,
        so rho42 and the visibility come out exactly 0 on every system."""
        result = run_limit_cycle(SpinSystemConfig(**kwargs), n_theta=8, n_phi=8)
        assert result.visibility == 0.0
        assert result.state[0, 2] == 0.0

    def test_any_contrast_raises(self, config, monkeypatch):
        """A visibility far below any fixed tolerance still fails the check."""
        monkeypatch.setattr(experiments, "state_visibility", lambda *a, **k: 1e-12)
        with pytest.raises(RuntimeError, match="phase contrast 1.000e-12"):
            run_limit_cycle(config, n_theta=8, n_phi=8)


class TestAxes:
    @pytest.mark.parametrize("axis", [linear_axis, log_axis])
    @pytest.mark.parametrize("n", [0, -1])
    def test_fewer_than_one_point_is_a_config_error(self, axis, n):
        with pytest.raises(ConfigError, match="at least one point"):
            axis(0.1, 1.0, n)

    @pytest.mark.parametrize(
        "axis, low, high",
        [
            (linear_axis, 0.0, math.inf),
            (linear_axis, -math.inf, 0.0),
            (linear_axis, math.nan, 1.0),
            (log_axis, 0.0, 1.0),
            (log_axis, -1.0, 1.0),
            (log_axis, 1e-3, math.inf),
            (log_axis, math.nan, 1.0),
        ],
    )
    def test_bad_ends_are_a_config_error(self, axis, low, high):
        """The caller's fault, with no RuntimeWarning (the suite would raise
        it) and no math domain error: ends are finite, and a log axis's > 0."""
        rule = "finite and > 0" if axis is log_axis else "finite"
        with pytest.raises(ConfigError, match=f"axis ends must be {rule}, got"):
            axis(low, high, 3)

    def test_log_axis_is_logspace_bit_for_bit(self, rng):
        for low, high in 10.0 ** np.sort(rng.uniform(-300.0, 300.0, (200, 2))):
            n = int(rng.integers(1, 100))
            np.testing.assert_array_equal(
                log_axis(low, high, n), np.logspace(math.log10(low), math.log10(high), n)
            )

    def test_defaults_are_the_axis_constants(self):
        for axis, spaced in (
            (log_axis(*ARNOLD_OMEGA_AXIS), np.logspace(-2.0, 0.0, 21)),
            (linear_axis(*ARNOLD_DETUNING_AXIS), np.linspace(-3.0, 3.0, 41)),
            (log_axis(*AMPLITUDE_SWEEP_AXIS), np.logspace(-3, 3, 61)),
        ):
            np.testing.assert_array_equal(axis, spaced)

    def test_linear_axis_is_linspace_bit_for_bit(self, rng):
        signs = rng.choice([-1.0, 1.0], (200, 2))
        ends = np.sort(signs * 10.0 ** rng.uniform(-300.0, 307.0, (200, 2)), axis=1)
        for low, high in ends:
            n = int(rng.integers(1, 200))
            np.testing.assert_array_equal(
                linear_axis(low, high, n), np.linspace(low, high, n)
            )

    def test_overflow_is_rejected_without_a_warning(self, config):
        """A linear axis with finite ends is finite although its width
        overflows; a log range past the float range comes back inf, with no
        RuntimeWarning (the suite would raise it), for _check_axis to
        reject."""
        detunings = linear_axis(-1e308, 1e308, 3)
        np.testing.assert_array_equal(detunings, [-1e308, 0.0, 1e308])
        omegas = log_axis(1e-3, 1.7976931348623157e308, 3)  # 10 ** log10 rounds up
        assert omegas[-1] == math.inf
        with pytest.raises(ConfigError, match="drive amplitude must be finite"):
            run_amplitude_sweep(config, omegas_hz=omegas)


@pytest.fixture(scope="module")
def series(config):
    # t = 0 in front exercises the thermal shortcut
    return run_drive_series(
        config, 0.1, durations=(0.0, 0.05, 10.0, 100.0), n_theta=32, n_phi=64
    )


@pytest.fixture(scope="module")
def steady_driven(config):
    return steady_state(build_liouvillian(config, DriveConfig(amplitude_hz=0.1)))


class TestDriveSeries:
    def test_zero_duration_is_thermal(self, series, config):
        first = series[0]
        assert first.duration_s == 0.0
        np.testing.assert_array_equal(first.state, thermal_state(config))
        assert first.visibility == 0.0
        assert first.coherence_abs == 0.0

    def test_coherence_grows_with_duration(self, series):
        coherences = [p.coherence_abs for p in series]
        assert coherences == sorted(coherences)
        by_t = {p.duration_s: p.coherence_abs for p in series}
        assert by_t[10.0] > by_t[0.05]

    def test_visibility_saturates_at_steady_state(self, series, steady_driven):
        vis_long = series[-1].visibility
        vis_steady = visibility(husimi_grid(steady_driven, n_theta=32, n_phi=64))
        assert abs(vis_long - vis_steady) / vis_steady < 1e-3

    def test_coherence_matches_state_entry(self, series):
        for point in series:
            assert point.coherence_abs == abs(point.state[0, 2])

    def test_points_match_per_duration_calls(self, series, config):
        """One propagation serves all durations; each point equals its own
        propagate and state_visibility calls bit for bit."""
        lv = build_liouvillian(config, DriveConfig(amplitude_hz=0.1))
        rho0 = thermal_state(config)
        for point in series:
            rho = propagate(lv, rho0, point.duration_s)
            np.testing.assert_array_equal(point.state, rho)
            assert point.visibility == state_visibility(rho, n_theta=32, n_phi=64)

    def test_default_durations(self):
        assert DEFAULT_SERIES_DURATIONS == (0.05, 0.1, 1.0, 10.0, 100.0)

    @pytest.mark.parametrize(
        "durations",
        [
            (), (-1.0, 2.0), (2.0, 1.0), (0.1, 0.05, 1.0), (1.0, math.inf),
            (math.nan,), (1.0, 1.0),
        ],
    )
    def test_bad_durations_rejected(self, config, durations):
        with pytest.raises(ConfigError):
            run_drive_series(config, 0.1, durations=durations)


# endpoints of the documented range plus the known peak region
AMP_OMEGAS = (1e-3, 0.126, 1e3)


@pytest.fixture(scope="module")
def amp_sweep(config):
    return run_amplitude_sweep(config, omegas_hz=AMP_OMEGAS, n_theta=32, n_phi=64)


class TestAmplitudeSweep:
    def test_endpoints_are_flat(self, amp_sweep):
        """Visibility dies off in both the weak and saturated regimes."""
        assert amp_sweep.values[0] < 0.05
        assert amp_sweep.values[-1] < 0.05
        assert amp_sweep.values[1] > amp_sweep.values[0]
        assert amp_sweep.values[1] > amp_sweep.values[-1]

    def test_result_structure(self, amp_sweep):
        assert amp_sweep.observable == "visibility"
        np.testing.assert_array_equal(amp_sweep.axes["omega_hz"], AMP_OMEGAS)
        assert amp_sweep.values.shape == (3,)
        assert amp_sweep.metadata["peak_omega_hz"] == 0.126
        assert amp_sweep.metadata["peak_value"] == amp_sweep.values[1]
        assert amp_sweep.metadata["n_theta"] == 32

    def test_cells_match_per_cell_reference(self, config, amp_sweep):
        """Each cell equals the visibility of a generator built for that
        drive alone, bit for bit."""
        for omega, value in zip(AMP_OMEGAS, amp_sweep.values):
            rho = steady_state(
                build_liouvillian(config, DriveConfig(amplitude_hz=omega))
            )
            assert value == state_visibility(rho, n_theta=32, n_phi=64)

    def test_default_grid_cells_agree_with_grid_route(self, config):
        """On the default 64 x 128 grid each cell is its own state's
        state_visibility, and it agrees with the visibility of the state's
        Husimi grid within both routes' derived rounding bounds."""
        omegas = np.logspace(-2.0, 0.5, 11)
        sweep = run_amplitude_sweep(config, omegas_hz=omegas)
        for omega, value in zip(omegas, sweep.values):
            rho = steady_state(
                build_liouvillian(config, DriveConfig(amplitude_hz=omega))
            )
            assert value == state_visibility(rho)
            bound = grid_visibility_bound(rho, 64, value) + value * (
                state_visibility_bound(rho, 64, 128)
            )
            assert abs(value - visibility(husimi_grid(rho))) <= bound

    def test_default_grid(self, config):
        grid = run_amplitude_sweep(config, n_theta=8, n_phi=8).axes["omega_hz"]
        np.testing.assert_array_equal(grid, log_axis(*AMPLITUDE_SWEEP_AXIS))
        assert grid.shape == (61,)
        assert grid[0] == pytest.approx(1e-3, rel=1e-12)
        assert grid[-1] == pytest.approx(1e3, rel=1e-12)
        steps = np.diff(np.log10(grid))
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    @pytest.mark.parametrize(
        "omegas",
        [
            [],
            [0.2, 0.1],
            [[0.1, 0.2]],
            [-0.1, 0.1],
            [0.1, math.nan],
            [0.1, math.inf],
            [-math.inf, 0.1],
        ],
    )
    def test_bad_axis_rejected(self, config, omegas):
        with pytest.raises(ConfigError, match="omegas_hz must|drive amplitude must"):
            run_amplitude_sweep(config, omegas_hz=omegas)


class TestVisibilityOracle:
    """Sweep and series visibilities against the 40-digit double sum of the
    same grid's theta-summed profile, within the state form's derived
    rounding bound (about 20 units of 2^-53)."""

    @staticmethod
    def relative_error(value, rho, n_theta, n_phi):
        with mpmath.workdps(40):
            exact = mp_visibility(rho, n_theta, n_phi)
            return float(abs(value - exact) / exact)

    def test_sweep_decades(self, config):
        sweep = run_amplitude_sweep(config)
        for omega, value in zip(sweep.axes["omega_hz"][::10], sweep.values[::10]):
            rho = steady_state(
                build_liouvillian(config, DriveConfig(amplitude_hz=omega))
            )
            error = self.relative_error(float(value), rho, 64, 128)
            assert error <= state_visibility_bound(rho, 64, 128), (omega, error)

    @pytest.mark.parametrize("amplitude_hz", [0.1, 1e-3])
    def test_series_durations(self, config, amplitude_hz):
        points = run_drive_series(config, amplitude_hz, n_theta=32, n_phi=64)
        assert [p.duration_s for p in points] == list(DEFAULT_SERIES_DURATIONS)
        for point in points:
            error = self.relative_error(point.visibility, point.state, 32, 64)
            bound = state_visibility_bound(point.state, 32, 64)
            assert error <= bound, (point.duration_s, error)


def test_sweep_and_series_build_no_grid(config, monkeypatch):
    """Visibilities come from the states: no Husimi grid is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Husimi grid was built")

    monkeypatch.setattr(experiments, "husimi_grid", refuse)
    monkeypatch.setattr(phasespace, "husimi_reduced", refuse)
    sweep = run_amplitude_sweep(config)
    points = run_drive_series(config, 0.1)
    assert sweep.values.shape == (61,) and len(points) == 5
    with pytest.raises(AssertionError, match="grid was built"):
        run_limit_cycle(config)


ARNOLD_OMEGAS = (0.0, 0.05, 0.1)
ARNOLD_DETUNINGS = (-3.0, -1.0, 0.0, 1.0, 3.0)


@pytest.fixture(scope="module")
def tongue(config):
    return run_arnold_tongue(
        config, omegas_hz=ARNOLD_OMEGAS, detunings_hz=ARNOLD_DETUNINGS
    )


class TestArnoldTongue:
    def test_undriven_row_is_zero(self, tongue):
        # no drive, no coherence, so the whole row vanishes
        assert np.max(np.abs(tongue.values[0])) <= 1e-12

    def test_resonance_dominates_each_row(self, tongue):
        center = list(ARNOLD_DETUNINGS).index(0.0)
        for row in tongue.values[1:]:
            assert row[center] >= row[0]
            assert row[center] >= row[-1]

    def test_symmetric_in_detuning(self, tongue):
        flipped = tongue.values[:, ::-1]
        scale = np.max(tongue.values)
        assert np.max(np.abs(tongue.values - flipped)) <= 1e-8 * scale

    def test_result_structure(self, tongue):
        assert tongue.observable == "max-sync"
        assert tongue.values.shape == (3, 5)
        assert tongue.metadata["duration_s"] == 100.0
        assert tongue.metadata["steady_state"] is False

    def test_steady_state_flag_agrees_at_long_duration(self, config):
        """100 s is many relaxation times: exp(-gap t) is about 5e-28 for the
        gap 0.628 s^-1, so the exact propagated and steady tongues agree far
        below the solvers' oracle bounds, and the computed ones within
        their sum (measured: 2.0e-15 of the maximum here).  The propagated
        values come from the row loop, which takes no steady value."""
        omegas, detunings = [0.1], [-1.0, 0.0, 1.0]
        finite = propagated_tongue_rows(config, omegas, detunings, 100.0)
        steady = run_arnold_tongue(config, omegas, detunings, duration_s=None)
        bound = (PROPAGATE_BOUND + STEADY_BOUND) * steady.values.max()
        assert np.max(np.abs(steady.values - finite)) <= bound
        # a steady tongue records no duration, never an unchecked number
        assert steady.metadata == {"duration_s": None, "steady_state": True}

    @pytest.mark.parametrize("duration", [40.0, None], ids=["propagate", "steady"])
    def test_cells_match_per_cell_reference(self, config, duration):
        """Each propagated cell (40 s: no cell is settled on the steady
        state) equals |rho42| / (16 pi^2), by scalar abs, of
        a generator built for that drive alone, on the test grid and on one
        row as wide as the CLI default (41 detunings); each steady cell, in
        pole form, meets the solve of that generator within pole_form_bound."""
        rho0 = thermal_state(config)
        grids = [
            (ARNOLD_OMEGAS, ARNOLD_DETUNINGS),
            ((0.1,), linear_axis(*ARNOLD_DETUNING_AXIS)),
        ]
        for omegas, detunings in grids:
            values = run_arnold_tongue(
                config,
                omegas_hz=omegas,
                detunings_hz=detunings,
                duration_s=duration,
            ).values
            bound = pole_form_bound(config, omegas, detunings)
            for i, omega in enumerate(omegas):
                for j, delta in enumerate(detunings):
                    liouville = build_liouvillian(
                        config, DriveConfig(amplitude_hz=omega, detuning_hz=delta)
                    )
                    if duration is None:
                        rho = steady_state(liouville)
                        value = SYNC_COEFFICIENT * abs(rho[0, 2])
                        assert abs(values[i, j] - value) <= bound[i, j]
                    else:
                        rho = propagate(liouville, rho0, duration)
                        assert values[i, j] == SYNC_COEFFICIENT * abs(rho[0, 2])

    def test_repeat_runs_are_bit_identical(self, config):
        """Identical inputs and config must reproduce every bit."""
        kwargs = dict(
            omegas_hz=[0.05, 0.1], detunings_hz=[-2.0, 0.0, 2.0], duration_s=50.0
        )
        first = run_arnold_tongue(config, **kwargs)
        second = run_arnold_tongue(config, **kwargs)
        np.testing.assert_array_equal(first.values, second.values)

    @pytest.mark.parametrize(
        "omegas, detunings, message",
        [
            ([-0.1, 0.1], [-1.0, 0.0, 1.0], "drive amplitude must be non-negative"),
            ([0.1, math.nan], [-1.0, 0.0, 1.0], "drive amplitude must be finite"),
            ([0.1, math.inf], [-1.0, 0.0, 1.0], "drive amplitude must be finite"),
            ([0.1], [-math.inf, 0.0, math.inf], "detuning must be finite"),
            ([0.1], [-1.0, math.nan, 1.0], "detuning must be finite"),
        ],
    )
    def test_bad_axis_rejected(self, config, omegas, detunings, message):
        """Values each cell's DriveConfig would reject, with its messages."""
        with pytest.raises(ConfigError, match=message):
            run_arnold_tongue(config, omegas_hz=omegas, detunings_hz=detunings)

    def test_asymmetric_detunings_rejected(self, config):
        with pytest.raises(ConfigError, match="symmetric"):
            run_arnold_tongue(
                config, omegas_hz=[0.1], detunings_hz=[-1.0, 0.0, 2.0]
            )

    def test_nonpositive_duration_rejected(self, config):
        """A negative duration is refused by DriveConfig's rule; 0 is the
        thermal state, whose rho42 is 0 in every cell."""
        kwargs = dict(omegas_hz=[0.1, 1.0], detunings_hz=[-1.0, 0.0, 1.0])
        with pytest.raises(ConfigError, match="drive duration must be non-negative"):
            run_arnold_tongue(config, **kwargs, duration_s=-1.0)
        values = run_arnold_tongue(config, **kwargs, duration_s=0.0).values
        assert values.shape == (2, 3) and not values.any()

    @pytest.mark.parametrize("duration", [math.inf, math.nan, -5.0])
    def test_non_finite_duration_rejected(self, config, duration, monkeypatch):
        """The caller's duration, not an engine failure, refused by
        DriveConfig's rule before the engine runs; a steady tongue is asked
        for with None, so no number goes unchecked."""

        def refuse(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(experiments, "_tongue", refuse)
        kwargs = dict(omegas_hz=[0.1], detunings_hz=[-1.0, 0.0, 1.0])
        rule = "non-negative" if duration < 0.0 else "finite"
        with pytest.raises(ConfigError, match=f"drive duration must be {rule}"):
            run_arnold_tongue(config, **kwargs, duration_s=duration)

    def test_overflowing_propagation_rejected(self, config):
        """||L t|| is finite at 1e20 Hz, but the exponential's squarings
        overflow: a ValueError, with no RuntimeWarning on the way."""
        with pytest.raises(ValueError, match="propagation overflows") as exc:
            run_arnold_tongue(config, omegas_hz=[1e20], detunings_hz=[0.0])
        assert not isinstance(exc.value, ConfigError)  # an engine failure

    @pytest.mark.parametrize("steady", [False, True])
    def test_each_axis_defaults_on_its_own(self, config, steady):
        """An axis left out takes its default, whether or not the other is
        given, as run_amplitude_sweep's axis does."""
        omegas = log_axis(*ARNOLD_OMEGA_AXIS)
        detunings = linear_axis(*ARNOLD_DETUNING_AXIS)
        some_omegas, some_detunings = [0.1, 0.2], [-1.0, 0.0, 1.0]
        for given, explicit in (
            ({"omegas_hz": some_omegas}, (some_omegas, detunings)),
            ({"detunings_hz": some_detunings}, (omegas, some_detunings)),
        ):
            duration = None if steady else DRIVE_DURATION_S
            one_sided = run_arnold_tongue(config, **given, duration_s=duration)
            full = run_arnold_tongue(config, *explicit, duration_s=duration)
            np.testing.assert_array_equal(one_sided.values, full.values)
            for name in ("omega_hz", "detuning_hz"):
                np.testing.assert_array_equal(
                    one_sided.axes[name], full.axes[name]
                )

    def test_default_grid(self, config):
        axes = run_arnold_tongue(config, duration_s=None).axes
        omegas, detunings = axes["omega_hz"], axes["detuning_hz"]
        np.testing.assert_array_equal(omegas, log_axis(*ARNOLD_OMEGA_AXIS))
        np.testing.assert_array_equal(detunings, linear_axis(*ARNOLD_DETUNING_AXIS))
        assert omegas.shape == (21,)
        assert detunings.shape == (41,)
        assert omegas[0] == pytest.approx(1e-2, rel=1e-12)
        assert omegas[-1] == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(detunings + detunings[::-1], 0.0, atol=1e-12)


TONGUE_GRIDS = pytest.mark.parametrize(
    "omegas, detunings", TONGUE_TEST_GRIDS.values(), ids=TONGUE_TEST_GRIDS
)
STEADY_SYSTEMS = pytest.mark.parametrize(
    "system", STEADY_TEST_SYSTEMS.values(), ids=STEADY_TEST_SYSTEMS
)


class TestTongueStacks:
    """The propagated tongue stacks cells across rows, TONGUE_STACK_CELLS at
    a time, and the steady one all its rows; both read Re and Im rho42 from
    the order-0 block alone."""

    @pytest.mark.parametrize("duration_s", [0.05, 3.0, 40.0])
    @TONGUE_GRIDS
    def test_bits_match_row_loop_oracle(self, config, omegas, detunings, duration_s):
        """Below the floor's threshold (t <= 60.12 s on the default system)
        every cell is propagated, and equals the row loop bit for bit."""
        values = run_arnold_tongue(
            config, omegas_hz=omegas, detunings_hz=detunings, duration_s=duration_s
        ).values
        expected = propagated_tongue_rows(config, omegas, detunings, duration_s)
        np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))

    @STEADY_SYSTEMS
    @TONGUE_GRIDS
    def test_steady_bits_match_row_loop_oracle(self, system, omegas, detunings):
        """The pole form solves and diagonalizes each row's 7x7 matrices on
        their own, so the stacked rows equal, bit for bit, a loop of one-row
        tongues.  Each cell meets the per-cell solves of steady_tongue_rows
        within pole_form_bound (TestSteadyPoleForm)."""
        config = SpinSystemConfig(**system)
        values = run_arnold_tongue(
            config, omegas_hz=omegas, detunings_hz=detunings, duration_s=None
        ).values
        expected = np.concatenate([
            run_arnold_tongue(
                config, omegas_hz=[omega], detunings_hz=detunings,
                duration_s=None,
            ).values
            for omega in omegas
        ])
        np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))

    def test_builds_no_generator_stack_or_density_matrix(self, config, monkeypatch):
        """No 16x16 generator (real or complex) and no density matrix is
        built per cell by either tongue; the public steady_state, which
        builds both, shows that the patches bite."""

        def refuse(*args, **kwargs):
            raise AssertionError("a density matrix was built")

        at = liouville.AffineLiouvillian.at

        def rows_only(self, *args):
            if self.base.shape == (16, 16):
                raise AssertionError("a 16x16 generator stack was built")
            return at(self, *args)

        drive = DriveConfig(amplitude_hz=0.1)
        monkeypatch.setattr(liouville, "devectorize", refuse)
        monkeypatch.setattr(liouville.AffineLiouvillian, "at", rows_only)
        assert run_arnold_tongue(config).values.shape == (21, 41)
        tongue = run_arnold_tongue(config, duration_s=None)
        assert tongue.values.shape == (21, 41)
        with pytest.raises(AssertionError, match="16x16 generator"):
            steady_state(build_liouvillian(config, drive))
        monkeypatch.setattr(liouville.AffineLiouvillian, "at", at)
        with pytest.raises(AssertionError, match="density matrix"):
            steady_state(build_liouvillian(config, drive))

    def test_peak_memory_within_row_loop(self, config):
        """The stacks keep the traced peak memory of the 40 s tongue, whose
        every cell is propagated, at or below that of the row loop in real
        coordinates, a fixed count (0.331 against 0.338 MB)."""
        peak = traced_peak(lambda: run_arnold_tongue(config, duration_s=40.0))
        assert peak <= PROPAGATED_ROW_LOOP_PEAK_BYTES

    def test_steady_peak_memory_within_pole_form_count(self, config):
        """The steady tongue keeps its traced peak within the pole form
        pass's own, a fixed count (POLE_FORM_PEAK_BYTES)."""
        peak = traced_peak(lambda: run_arnold_tongue(config, duration_s=None))
        assert peak <= POLE_FORM_PEAK_BYTES


class TestSettledTongue:
    """Past the floor's threshold a driven cell takes the steady value of
    the tongue's pole form pass where that is certified and e^(-floor t)
    ||x_ss - x0|| proves the two within half an ulp (liouville._contracted);
    the rest are propagated.  The propagator stays under its own checks:
    the row loop here, and at 40 s above."""

    @STEADY_SYSTEMS
    @TONGUE_GRIDS
    def test_long_drive_is_the_steady_tongue(self, system, omegas, detunings):
        """At 100 s every cell is settled: the steady tongue bit for bit.
        On drives to 1 Hz, where PROPAGATE_BOUND was measured, it is within
        (PROPAGATE_BOUND + STEADY_BOUND) of the maximum of the row loop's
        propagated cells (measured 4.5e-15 on the default tongue); stronger
        drives are checked against 40 digits (TestPropagateOracle)."""
        config = SpinSystemConfig(**system)
        values = run_arnold_tongue(config, omegas, detunings).values
        steady = run_arnold_tongue(config, omegas, detunings, duration_s=None).values
        np.testing.assert_array_equal(values.view(np.int64), steady.view(np.int64))
        propagated = propagated_tongue_rows(config, omegas, detunings, 100.0)
        bound = (PROPAGATE_BOUND + STEADY_BOUND) * propagated.max()
        weak = np.asarray(omegas) <= 1.0
        assert np.max(np.abs(values - propagated)[weak]) <= bound

    def test_mixed_grid_settles_or_propagates_each_cell(self, config, monkeypatch):
        """At 62 s the default tongue settles all but 9 cells: those take
        the steady bits, and the rest, left to the slices, the row loop's."""
        masks = spy_on_slices(monkeypatch)
        tongue = run_arnold_tongue(config, duration_s=62.0)
        (todo,) = masks
        assert todo.sum() == 9
        values = tongue.values.view(np.int64)
        steady = run_arnold_tongue(config, duration_s=None).values.view(np.int64)
        np.testing.assert_array_equal(values[~todo], steady[~todo])
        propagated = propagated_tongue_rows(config, *tongue.axes.values(), 62.0)
        np.testing.assert_array_equal(values[todo], propagated.view(np.int64)[todo])

    @pytest.mark.parametrize("duration_s", [40.0, 60.0])
    def test_below_threshold_solves_nothing(self, config, monkeypatch, duration_s):
        """Below e^(-floor t) <= U / (2 sqrt 2), t <= 60.12 s here, no cell
        can be settled, and no steady solve runs."""
        forbid_steady_solves(monkeypatch)
        assert run_arnold_tongue(config, duration_s=duration_s).values.shape == (21, 41)

    def test_thermal_trace_off_one_settles_nothing(self, monkeypatch):
        """At 310 K the thermal populations sum to 1 - U: the driven state
        tends to that multiple of the steady state, which the certificate
        does not cover, so the 100 s tongue solves nothing and every cell
        is the row loop's bit for bit."""
        config = SpinSystemConfig(temperature_k=310.0)
        assert thermal_state(config).trace().real == 1.0 - U
        omegas, detunings = TONGUE_TEST_GRIDS["strong-wide"]
        expected = propagated_tongue_rows(config, omegas, detunings, 100.0)
        forbid_steady_solves(monkeypatch)
        values = run_arnold_tongue(config, omegas, detunings).values
        np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))

    def test_too_large_floor_is_caught_by_the_row_loop(self, config, monkeypatch):
        """With the floor 10x too large a 20 s tongue is settled on the
        steady state, 1.4e-6 of the maximum away from the driven one: the
        row-loop comparison fails, as the tests above would."""
        omegas, detunings = TONGUE_TEST_GRIDS["default"]
        terms = build_affine_liouvillian(config)
        floor = terms._floor
        too_large = floor._replace(base=10 * floor.base)
        monkeypatch.setitem(terms.__dict__, "_floor", too_large)
        values = run_arnold_tongue(config, duration_s=20.0).values
        propagated = propagated_tongue_rows(config, omegas, detunings, 20.0)
        assert np.max(np.abs(values - propagated)) > 1e-7 * propagated.max()

    @pytest.mark.parametrize("duration_s", [100.0, 62.0])
    def test_settled_peak_memory_within_pole_form_count(self, config, duration_s):
        """A settled tongue runs the steady tongue's pole form pass, takes its
        values from the pass's signal and drops the steady coordinates
        before its slices run (9 cells at 62 s): its traced peak stays
        within the pass's count, POLE_FORM_PEAK_BYTES."""
        peak = traced_peak(lambda: run_arnold_tongue(config, duration_s=duration_s))
        assert peak <= POLE_FORM_PEAK_BYTES


class TestSteadyPoleForm:
    """The steady tongue solves each row in pole form (liouville._pole_form),
    certifies each cell as the single-drive solve does, and leaves a cell it
    cannot certify to that solve, in the TONGUE_STACK_CELLS stack of the
    flat grid the cell falls in: a failure names the worst cell of the first
    stack that holds a failing cell."""

    @STEADY_SYSTEMS
    @TONGUE_GRIDS
    def test_cells_meet_per_cell_solve(self, system, omegas, detunings):
        """Within pole_form_bound of steady_tongue_rows' single-drive solves
        (measured at most 1.0% of the bound over these systems and grids)."""
        config = SpinSystemConfig(**system)
        values = run_arnold_tongue(
            config, omegas_hz=omegas, detunings_hz=detunings, duration_s=None
        ).values
        error = np.abs(values - steady_tongue_rows(config, omegas, detunings))
        assert np.all(error <= pole_form_bound(config, omegas, detunings))

    @STEADY_SYSTEMS
    @TONGUE_GRIDS
    def test_every_cell_certified(self, system, omegas, detunings):
        """The pole form certifies every cell, leaving none to the
        single-drive solve, and so does a check from each cell's own summed
        blocks: floor / ||L||_F >= DEGENERACY_RATIO and ||L vec(rho)|| <=
        RESIDUAL_RTOL ||L||_F / 4 (worst 0.03 of it)."""
        terms = build_affine_liouvillian(SpinSystemConfig(**system))
        omegas, detunings = np.asarray(omegas, float), np.asarray(detunings, float)
        x, sure = _pole_form(terms, omegas, detunings)
        assert sure.all()
        g0, b = (block.at(omegas[:, None], detunings) for block in terms._blocks)
        norm = _frobenius(g0, b)
        ratio = terms._floor.at(omegas[:, None], detunings) / norm
        assert np.all(ratio >= DEGENERACY_RATIO)
        assert np.all(_residual(g0, x) <= RESIDUAL_RTOL / 4 * norm)

    @pytest.mark.parametrize(
        "omegas, detunings, cell",
        [
            (log_axis(1e-2, 1e308, 2), linear_axis(-3.0, 3.0, 3), r"\(1, 0\)"),
            (log_axis(*ARNOLD_OMEGA_AXIS), linear_axis(-1e308, 1e308, 3), r"\(0, 0\)"),
            (log_axis(*ARNOLD_OMEGA_AXIS), linear_axis(-1e308, 1e308, 41), r"\(0, 0\)"),
        ],
        ids=["amplitude", "detuning", "detuning-41"],
    )
    def test_overflowing_drive_fails_before_any_eig(
        self, config, monkeypatch, omegas, detunings, cell
    ):
        """Where some ||L||_F overflows the kernel certifies no cell and runs
        no eig, and the single-drive solve raises, naming the first cell that
        overflows."""

        def refuse(*args):
            raise AssertionError("an eig ran")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        message = r"^generator overflows: the drive is too large \(worst cell "
        with pytest.raises(ValueError, match=message + cell + r"\)$"):
            run_arnold_tongue(config, omegas, detunings, duration_s=None)

    def test_singular_rows_certify_no_cell(self, config, monkeypatch):
        """At T1P = T1F = 1e300 s each row's deviation matrix is exactly
        singular: the pole form certifies no cell, and the single-drive solve
        raises the degeneracy, naming the worst cell of the first slice, as
        it does at 1e200 s, where the rows still solve.  The driven tongue,
        which no floor can settle there, propagates.  With eig failing as on
        a singular row, both tongues come whole from their single-drive
        kernels, equal to the per-cell solves and the row loop bit for bit."""
        frozen = SpinSystemConfig(t1_p_s=1e300, t1_f_s=1e300)
        omegas, detunings = log_axis(0.01, 1.0, 3), linear_axis(-3.0, 3.0, 3)
        message = r"^stationary subspace is degenerate; steady state ambiguous"
        message += r" \(worst cell \(0, 0\)\)$"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            run_arnold_tongue(frozen, omegas, detunings, duration_s=None)
        driven = run_arnold_tongue(frozen, omegas, detunings).values
        assert np.isfinite(driven).all()

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        omegas, detunings = TONGUE_TEST_GRIDS["strong-wide"]
        monkeypatch.setattr(np.linalg, "eig", singular)
        for duration_s, expected in (
            (None, steady_tongue_rows(config, omegas, detunings)),
            (100.0, propagated_tongue_rows(config, omegas, detunings, 100.0)),
        ):
            values = run_arnold_tongue(config, omegas, detunings, duration_s).values
            np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))

    def test_weak_floor_cells_fall_back_to_the_solve(self, monkeypatch):
        """With T1P = 3e4 s the floor cannot certify the 1 kHz drives of the
        strong-wide grid, whose ||L||_F is largest: those cells are left to
        the single-drive solve, which certifies them by the block-inverse
        bound, and equal it bit for bit; the rest meet it within
        pole_form_bound.  On 11 detunings the weak cells (flat 66-69) share
        one TONGUE_STACK_CELLS slice and one call; on 9 they span two, so
        cells 54 and 55 are solved in one call and cell 56 in the next.  At
        T1P = 5.7e4 s the inverse bound fails too, and the tongue raises,
        naming the worst cell of the first failing stack."""
        omegas = np.logspace(-2, 3, 7)
        config = SpinSystemConfig(t1_p_s=3e4)
        terms = build_affine_liouvillian(config)
        bound = liouville._inverse_bound
        for n_delta, calls in ((11, [[66, 67, 68, 69]]), (9, [[54, 55], [56]])):
            detunings = np.linspace(-50.0, 50.0, n_delta)
            g0, b = (block.at(omegas[:, None], detunings) for block in terms._blocks)
            weak = terms._floor.at(omegas[:, None], detunings) / _frobenius(g0, b)
            weak = weak < DEGENERACY_RATIO
            assert 0 < weak.sum() < weak[-1].size
            inverted = []
            monkeypatch.setattr(
                liouville, "_inverse_bound",
                lambda a, b: inverted.append(len(a)) or bound(a, b),
            )
            fallback = spy_on_fallback(monkeypatch)
            tongue = run_arnold_tongue(config, omegas, detunings, duration_s=None)
            assert [list(i * n_delta + j) for i, j in fallback] == calls
            assert np.array_equal(np.hstack(fallback), np.nonzero(weak))
            assert inverted == [len(cells) for cells in calls]
            values = tongue.values
            expected = steady_tongue_rows(config, omegas, detunings)
            assert np.array_equal(
                values[weak].view(np.int64), expected[weak].view(np.int64)
            )
            error = np.abs(values - expected)
            assert np.all(error <= pole_form_bound(config, omegas, detunings))
            monkeypatch.undo()
            slow = SpinSystemConfig(t1_p_s=5.7e4)
            with pytest.raises(np.linalg.LinAlgError, match=r"worst cell \(2, 0\)\)$"):
                run_arnold_tongue(slow, omegas, detunings, duration_s=None)

    @pytest.mark.parametrize(
        "system, omegas, cell",
        [
            ({"t1_p_s": 5.8e4}, np.logspace(-2, 3, 7), r"\(2, 0\)"),
            ({"t1_p_s": 1e5, "t1_f_s": 1e5}, np.logspace(-2, 3, 7), r"\(5, 0\)"),
            ({"t1_p_s": 5.7e4}, np.append(np.logspace(-2, 3, 7), 1e308), r"\(2, 0\)"),
        ],
        ids=["T1P58000", "T1-100000", "degenerate-then-overflowing"],
    )
    def test_degenerate_grid_names_first_failing_stack(self, system, omegas, cell):
        """Where neither bound certifies a cell the tongue raises, naming the
        worst cell of the first TONGUE_STACK_CELLS stack of the flat grid that
        fails.  The last grid adds an overflowing row, so no cell is certified
        in pole form: its first stack (rows 0-4 and cell (5, 0)) fails as
        degenerate before the second, which holds the overflowing row 7."""
        config = SpinSystemConfig(**system)
        detunings = np.linspace(-50.0, 50.0, 11)
        message = r"^stationary subspace is degenerate; steady state ambiguous"
        with pytest.raises(
            np.linalg.LinAlgError, match=message + r" \(worst cell " + cell + r"\)$"
        ):
            run_arnold_tongue(config, omegas, detunings, duration_s=None)

    def test_residual_miss_is_solved_cell_by_cell(self, config, monkeypatch):
        """Cells whose pole form misses the residual bound are left to the
        single-drive solve.  With row 5's poles moved by 1e-2 (as a poor
        eigendecomposition would leave them; 1e-4 is the least step caught)
        every detuned cell of that row misses and equals steady_tongue_rows
        bit for bit; its resonant cell, which reads no pole, and the other
        rows keep their pole form."""
        exact = run_arnold_tongue(config, duration_s=None)
        omegas, detunings = exact.axes["omega_hz"], exact.axes["detuning_hz"]
        eig = np.linalg.eig

        def skewed(k):
            poles, v = eig(k)
            poles[5] *= 1.0 + 1e-2
            return poles, v

        monkeypatch.setattr(np.linalg, "eig", skewed)
        values = run_arnold_tongue(config, duration_s=None).values
        monkeypatch.undo()
        detuned = detunings != 0.0
        expected = steady_tongue_rows(config, omegas, detunings)
        assert np.array_equal(
            values[5, detuned].view(np.int64), expected[5, detuned].view(np.int64)
        )
        assert not np.array_equal(exact.values[5, detuned], expected[5, detuned])
        kept = np.ones(values.shape, dtype=bool)
        kept[5, detuned] = False
        assert np.array_equal(
            values[kept].view(np.int64), exact.values[kept].view(np.int64)
        )


def spy_on_fallback(monkeypatch) -> list:
    """The cells (i, j) of each call the steady tongue makes to the
    single-drive solve, ``liouville._steady_at``, recorded as the calls run."""
    calls, steady_at = [], liouville._steady_at

    def spy(terms, amplitude_hz, detuning_hz=0.0, cells=None):
        calls.append(cells)
        return steady_at(terms, amplitude_hz, detuning_hz, cells)

    monkeypatch.setattr(liouville, "_steady_at", spy)
    return calls


def forbid_steady_solves(monkeypatch) -> None:
    """Makes the tongue's steady kernel, ``liouville._pole_form``, raise."""

    def refuse(*args):
        raise AssertionError("a steady solve ran")

    monkeypatch.setattr(liouville, "_pole_form", refuse)


def spy_on_slices(monkeypatch) -> list:
    """Records the mask ``liouville._slices`` is given on each call."""
    masks, slices = [], liouville._slices

    def spy(shape, todo=None):
        masks.append(todo)
        return slices(shape, todo)

    monkeypatch.setattr(liouville, "_slices", spy)
    return masks


class TestSweepEngine:
    def test_generator_mapped_once_per_system(self, config, monkeypatch, tmp_path):
        """Sweeps, the drive series, the limit cycle and the CLI's
        single-state jobs map the three affine terms to real coordinates, one
        16x16 term per call, and then sum their real blocks: no row, cell,
        series or job builds, maps or checks a 16x16 generator of its own.
        The terms are shared per process, so a system's first run maps them,
        its later runs map nothing, and a new system maps its own."""
        shapes = []
        original = liouville._real_generator
        at = liouville.AffineLiouvillian.at

        def counted(l_total):
            shapes.append(np.shape(l_total))
            return original(l_total)

        def blocks_only(self, *args):
            if self.base.shape == (16, 16):
                raise AssertionError("a 16x16 generator was built")
            return at(self, *args)

        def job(system, *argv):
            path = tmp_path / "system.json"
            path.write_text(json.dumps(system._asdict()), encoding="utf-8")
            out = str(tmp_path / "out")
            assert cli.main([*argv, "--config", str(path), "--output", out]) == 0

        monkeypatch.setattr(liouville, "_real_generator", counted)
        monkeypatch.setattr(liouville.AffineLiouvillian, "at", blocks_only)
        liouville._affine_terms.cache_clear()
        other = SpinSystemConfig(t1_p_s=7.0)
        for system in (config, other):
            expected = 3
            for sweep in (
                lambda: run_arnold_tongue(system, duration_s=None),
                lambda: run_arnold_tongue(system),
                lambda: run_amplitude_sweep(system, n_theta=8, n_phi=8),
                lambda: run_drive_series(system, 0.1, n_theta=8, n_phi=8),
                lambda: run_limit_cycle(system, n_theta=8, n_phi=8),
                lambda: job(system, "steady"),
                lambda: job(system, "husimi", "--n-theta", "8", "--n-phi", "8"),
                lambda: job(system, "husimi", "--steady", "--n-theta", "8"),
                lambda: job(system, "imhd-verify", "--steady", "--n-phi", "8"),
                lambda: job(system, "imhd-verify", "--n-theta", "8"),
            ):
                shapes.clear()
                sweep()
                assert shapes == [(16, 16)] * expected
                expected = 0
        liouville._affine_terms.cache_clear()
        for argv in (["steady"], ["husimi", "--n-theta", "8"], ["imhd-verify"]):
            shapes.clear()
            job(other, *argv)
            assert shapes == [(16, 16)] * 3
            liouville._affine_terms.cache_clear()
        with pytest.raises(AssertionError, match="16x16 generator was built"):
            build_liouvillian(config, DriveConfig())

    def test_sweeps_take_the_cached_floor(self, config, monkeypatch, tmp_path):
        """Once a system's floor is cached, no sweep, limit cycle or CLI job
        on a system the floor certifies inverts, takes a determinant of, or
        diagonalizes anything."""
        liouville.build_affine_liouvillian(config)._floor  # cached before patching

        def refuse(*args, **kwargs):
            raise AssertionError("a per-cell inv, det or eigvalsh")

        for name in ("inv", "det", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        run_arnold_tongue(config, duration_s=None)
        run_arnold_tongue(config)
        run_amplitude_sweep(config, n_theta=8, n_phi=8)
        run_drive_series(config, 0.1, n_theta=8, n_phi=8)
        run_limit_cycle(config, n_theta=8, n_phi=8)
        for argv in (
            ["steady"],
            ["husimi", "--steady", "--n-theta", "8"],
            ["imhd-verify", "--steady", "--n-theta", "8"],
            ["arnold", "--steady", "--n-omega", "3"],
            ["amp-sweep", "--n-omega", "3"],
        ):
            assert cli.main(argv + ["--output", str(tmp_path / "out")]) == 0
        with pytest.raises(AssertionError, match="eigvalsh"):
            steady_state(build_liouvillian(config, DriveConfig()))


class TestDensityMatrixStack:
    """check_density_matrix on a (..., 4, 4) stack: every cell with the
    single-matrix tolerances, naming the worst cell."""

    @pytest.fixture(scope="class")
    def states(self, config):
        omegas = np.array([0.0, 0.01, 0.1, 1.0, 10.0])
        return steady_state(
            liouville.build_affine_liouvillian(config).at(
                omegas[:, None], np.array([-2.0, 0.0, 1.5])
            )
        )

    def test_accepts_sweep_stacks(self, states, config):
        assert check_density_matrix(states) is states
        terms = liouville.build_affine_liouvillian(config)
        stack = steady_state(terms.at(log_axis(*AMPLITUDE_SWEEP_AXIS)))
        assert check_density_matrix(stack) is stack

    def test_names_the_worst_cell(self, states):
        good = np.eye(4, dtype=complex) / 4.0
        neg = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        skew = good.copy()
        skew[0, 1] = 1e-6
        defects = [
            ("non-finite", good * math.nan),
            ("not Hermitian", skew),
            ("trace off", good * 2.0),
            ("eigenvalue", neg),
        ]
        for message, bad in defects:
            stack = states.copy()
            stack[3, 1] = bad
            with pytest.raises(ValueError, match=message + r".*\(worst cell \(3, 1\)\)"):
                check_density_matrix(stack)
            with pytest.raises(ValueError, match=message) as single:
                check_density_matrix(bad)
            assert "worst cell" not in str(single.value)
        stack = states.copy()
        stack[1, 2, 0, 1] = 1e-9
        stack[4, 0, 2, 3] = 1e-6
        with pytest.raises(ValueError, match=r"1\.000e-06 \(worst cell \(4, 0\)\)"):
            check_density_matrix(stack)

    def test_rejects_non_4x4_stack(self, states):
        with pytest.raises(ValueError, match="4x4"):
            check_density_matrix(states[..., :3, :3])


class TestSweepResultValidation:
    def test_metadata_defaults_to_a_new_dict(self):
        axes = {"omega_hz": np.array([0.1, 0.2])}
        first, second = (
            SweepResult(axes=axes, values=np.zeros(2), observable="visibility")
            for _ in range(2)
        )
        assert first.metadata == {}
        assert first.metadata is not second.metadata

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SweepResult(
                axes={"omega_hz": np.array([0.1, 0.2])},
                values=np.zeros(3),
                observable="visibility",
            )

    def test_two_axis_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            SweepResult(
                axes={
                    "omega_hz": np.array([0.1, 0.2]),
                    "detuning_hz": np.array([-1.0, 0.0, 1.0]),
                },
                values=np.zeros((3, 2)),
                observable="max-sync",
            )

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SweepResult(
                axes={"omega_hz": np.array([0.1, 0.2])},
                values=np.array([0.0, np.nan]),
                observable="visibility",
            )


class TestCalibrateDrive:
    TRUE_OMEGA = 0.1

    @staticmethod
    def signal(times):
        return np.sin(2.0 * math.pi * TestCalibrateDrive.TRUE_OMEGA * times)

    def test_noiseless_recovery_within_one_percent(self):
        times = np.linspace(0.02, 0.4, 20)
        result = calibrate_drive(times, self.signal(times))
        assert abs(result.amplitude_hz - self.TRUE_OMEGA) / self.TRUE_OMEGA < 0.01
        assert result.small_angle is True
        assert result.n_samples == 20
        assert 0.0 <= result.residual_rms < 5e-3

    def test_long_grid_bias_is_flagged(self):
        """Sampling out to 0.5 s pushes the largest fitted angle past the
        small-angle cutoff; the sine truncation then biases the slope low
        by slightly more than one percent, and the flag records it."""
        times = np.arange(1, 11) * 0.05
        result = calibrate_drive(times, self.signal(times))
        bias = abs(result.amplitude_hz - self.TRUE_OMEGA) / self.TRUE_OMEGA
        assert 0.009 < bias < 0.012
        assert result.small_angle is False

    def test_zero_signal_gives_zero_amplitude(self):
        times = np.linspace(0.02, 0.4, 10)
        result = calibrate_drive(times, np.zeros_like(times))
        assert result.amplitude_hz == 0.0
        assert result.slope_rad_per_s == 0.0
        assert result.residual_rms == 0.0
        assert result.small_angle is True

    def test_noisy_recovery_within_three_percent(self):
        rng = np.random.default_rng(SEED)
        times = np.linspace(0.02, 0.4, 20)
        noisy = self.signal(times) + 0.01 * rng.standard_normal(times.size)
        result = calibrate_drive(times, noisy)
        assert abs(result.amplitude_hz - self.TRUE_OMEGA) / self.TRUE_OMEGA < 0.03

    def test_signal_scaling_is_linear(self):
        times = np.linspace(0.02, 0.3, 8)
        base = calibrate_drive(times, self.signal(times))
        doubled = calibrate_drive(times, 2.0 * self.signal(times))
        assert doubled.amplitude_hz == pytest.approx(
            2.0 * base.amplitude_hz, rel=1e-15
        )

    @pytest.mark.parametrize(
        "times, signals",
        [
            ([0.1, 0.2], [0.0, 0.1]),  # too few samples
            ([0.3, 0.2, 0.1], [0.1, 0.1, 0.1]),  # descending
            ([0.0, 0.1, 0.2], [0.0, 0.1, 0.1]),  # t must start positive
            ([0.1, 0.1, 0.2], [0.0, 0.1, 0.1]),  # repeated time
            ([0.1, 0.2, 0.3], [0.0, 0.1]),  # length mismatch
        ],
    )
    def test_bad_samples_rejected(self, times, signals):
        with pytest.raises(ConfigError):
            calibrate_drive(times, signals)

    def test_result_type(self):
        times = np.linspace(0.05, 0.3, 6)
        result = calibrate_drive(times, self.signal(times))
        assert isinstance(result, CalibrationResult)

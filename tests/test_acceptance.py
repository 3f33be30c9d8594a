"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
``ACCEPTANCE n PASS/FAIL`` line directly to the terminal, bypassing
pytest capture, so a plain ``pytest -v`` run shows the scorecard.

Criterion 4 is knowingly red: its resonance-maximality clause does not
hold for this model once the drive saturates the transition (strong-drive
rows develop symmetric side maxima, with a local minimum on resonance;
on fine steady grids the side maxima sit at |detuning| = 0.593, 0.706,
0.860 and 0.8660 times the amplitude at amplitudes of 0.1585, 0.1995, 1
and 10 Hz, tending to sqrt(3)/2 as the drive grows).  The test asserts the
stated clause anyway and reports the model's actual behavior in its
detail line rather than weakening the check to make it pass.
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from spinsync import (
    DriveConfig,
    build_liouvillian,
    calibrate_drive,
    completeness_check,
    devectorize,
    haar_quadrature,
    husimi_grid,
    husimi_normalization,
    imhd_scan,
    propagate,
    run_amplitude_sweep,
    run_arnold_tongue,
    run_drive_series,
    run_limit_cycle,
    steady_state,
    sync_measure_full,
    sync_measure_quadrature,
    thermal_state,
    vectorize,
    visibility,
)
from spinsync.phasespace import HUSIMI_PREFACTOR

from conftest import SEED, random_density


def announce(capsys, number: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {verdict}: {detail}")


@pytest.fixture(scope="module")
def scheme():
    return haar_quadrature()


@pytest.fixture(scope="module")
def driven_steady(config):
    return steady_state(build_liouvillian(config, DriveConfig()))


def test_criterion_01_limit_cycle(config, capsys):
    t0 = time.perf_counter()
    result = run_limit_cycle(config)
    elapsed = time.perf_counter() - t0
    off_diag = np.max(np.abs(result.state - np.diag(np.diag(result.state))))
    ok = (
        off_diag < 1e-10
        and result.visibility < 1e-8
        and result.max_sync < 1e-12
        and elapsed < 1.0
    )
    announce(
        capsys, 1, ok,
        f"off-diag {off_diag:.2e}, visibility {result.visibility:.2e}, "
        f"max-sync {result.max_sync:.2e}, runtime {elapsed:.2f}s",
    )
    assert ok


def test_criterion_02_optimum_drive_sweep(config, capsys):
    t0 = time.perf_counter()
    sweep = run_amplitude_sweep(config)  # 61 log points, 1e-3..1e3 Hz
    elapsed = time.perf_counter() - t0
    values = sweep.values
    omegas = sweep.axes["omega_hz"]
    k = int(np.argmax(values))
    unimodal = bool(
        np.all(np.diff(values[: k + 1]) > 0) and np.all(np.diff(values[k:]) < 0)
    )
    peak_in_band = 0.03 <= omegas[k] <= 0.3
    ends_low = values[0] < 0.05 and values[-1] < 0.05
    ok = unimodal and peak_in_band and ends_low and elapsed < 30.0
    announce(
        capsys, 2, ok,
        f"unimodal {unimodal}, argmax {omegas[k]:.3g} Hz, "
        f"endpoints ({values[0]:.2e}, {values[-1]:.2e}), runtime {elapsed:.1f}s",
    )
    assert ok


def test_criterion_03_phase_localization_onset(config, driven_steady, capsys):
    points = run_drive_series(config, 0.1)
    coherences = [p.coherence_abs for p in points]
    growing = all(a < b for a, b in zip(coherences, coherences[1:]))
    vis_final = points[-1].visibility
    vis_steady = visibility(husimi_grid(driven_steady))
    saturation = abs(vis_final - vis_steady) / vis_steady
    ok = growing and saturation < 1e-3
    announce(
        capsys, 3, ok,
        f"|rho42| strictly increasing {growing}, "
        f"visibility(100s) vs steady rel diff {saturation:.2e}",
    )
    assert ok


def half_max_width(detunings, row):
    """Width between the outermost half-maximum crossings of one row."""
    half = 0.5 * np.max(row)
    above = np.nonzero(row >= half)[0]
    left, right = above[0], above[-1]
    lo = detunings[left]
    if left > 0:
        x0, x1 = detunings[left - 1], detunings[left]
        y0, y1 = row[left - 1], row[left]
        lo = x0 + (half - y0) * (x1 - x0) / (y1 - y0)
    hi = detunings[right]
    if right < len(row) - 1:
        x0, x1 = detunings[right], detunings[right + 1]
        y0, y1 = row[right], row[right + 1]
        hi = x0 + (half - y0) * (x1 - x0) / (y1 - y0)
    return hi - lo


def test_criterion_04_arnold_tongue(config, capsys):
    t0 = time.perf_counter()
    tongue = run_arnold_tongue(config)  # 21 x 41 default grid
    elapsed = time.perf_counter() - t0
    values = tongue.values
    detunings = tongue.axes["detuning_hz"]
    center = int(np.argmin(np.abs(detunings)))

    rows_peaked = [int(np.argmax(row)) == center for row in values]
    resonance_maximal = all(rows_peaked)
    symmetry = float(np.max(np.abs(values - values[:, ::-1])) / values.max())
    symmetric = symmetry <= 1e-8
    widths = [half_max_width(detunings, row) for row in values]
    widths_monotone = bool(np.all(np.diff(widths) >= -1e-12))
    in_time = elapsed < 300.0

    ok = resonance_maximal and symmetric and widths_monotone and in_time
    announce(
        capsys, 4, ok,
        f"argmax at zero detuning on {sum(rows_peaked)}/{len(rows_peaked)} rows "
        f"(saturated rows peak off-resonance), symmetry {symmetry:.2e}, "
        f"width non-decreasing {widths_monotone}, runtime {elapsed:.1f}s",
    )
    assert ok


def test_criterion_05_imhd_theorem(driven_steady, capsys):
    direct = husimi_grid(driven_steady)  # 64 x 128
    exact = imhd_scan(driven_steady, variant="exact-populations")
    exact_dev = float(np.max(np.abs(exact.values - direct.values)))
    quarter = imhd_scan(driven_steady, variant="quarter-approximation")
    quarter_dev = float(np.max(np.abs(quarter.values - direct.values)))
    bound = HUSIMI_PREFACTOR * (
        abs(driven_steady[3, 3].real - 0.25)
        + abs(driven_steady[1, 1].real - 0.25)
    )
    ok = exact_dev < 1e-9 and quarter_dev <= bound
    announce(
        capsys, 5, ok,
        f"exact variant max dev {exact_dev:.2e}, "
        f"quarter variant {quarter_dev:.2e} within bound {bound:.2e}",
    )
    assert ok


def test_criterion_06_completeness_and_normalization(scheme, capsys):
    target = (np.pi**3 / 24.0) * np.eye(4)
    completeness_dev = float(np.max(np.abs(completeness_check(scheme) - target)))
    rng = np.random.default_rng(SEED)
    norm_dev = max(
        abs(husimi_normalization(random_density(rng), scheme) - 1.0)
        for _ in range(10)
    )
    ok = completeness_dev < 1e-6 and norm_dev < 1e-6
    announce(
        capsys, 6, ok,
        f"completeness entrywise dev {completeness_dev:.2e}, "
        f"normalization dev {norm_dev:.2e} over 10 random states",
    )
    assert ok


def test_criterion_07_measure_equivalence(scheme, capsys):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        rho = random_density(rng)
        for _ in range(10):
            phis = rng.uniform(0.0, 2.0 * np.pi, size=3)
            direct = sync_measure_full(rho, *phis)
            quadrature = sync_measure_quadrature(rho, *phis, scheme=scheme)
            worst = max(worst, abs(direct - quadrature))
    ok = worst < 1e-6
    announce(
        capsys, 7, ok,
        f"quadrature vs closed form, worst abs diff {worst:.2e} "
        f"over 10 states x 10 phase triples",
    )
    assert ok


def test_criterion_08_engine_correctness(config, capsys):
    rng = np.random.default_rng(SEED)
    rho0 = thermal_state(config)
    v0 = vectorize(rho0)

    prop_dev = 0.0
    residual = 0.0
    for _ in range(5):
        drive = DriveConfig(
            amplitude_hz=float(10.0 ** rng.uniform(-2.0, 0.0)),
            detuning_hz=float(rng.uniform(-3.0, 3.0)),
        )
        lv = build_liouvillian(config, drive)
        generator = lv
        ours = propagate(lv, rho0, 1.0)
        sol = solve_ivp(
            lambda _, v: generator @ v, (0.0, 1.0), v0,
            method="DOP853", rtol=1e-10, atol=1e-12,
        )
        oracle = devectorize(sol.y[:, -1])
        prop_dev = max(prop_dev, float(np.max(np.abs(ours - oracle))))
        ss = steady_state(lv)
        residual = max(residual, float(np.linalg.norm(generator @ vectorize(ss))))

    # preservation along the actual driven evolution: the engine sets rho11
    # to the trace minus the other populations, so the trace moves only by
    # the rounding of that sum (a few ulp), and a Hermitian state stays
    # exactly Hermitian
    lv = build_liouvillian(config, DriveConfig())
    trace_dev = herm_dev = 0.0
    min_eig = 1.0
    for t in np.logspace(-3.0, 3.0, 7):
        rho = propagate(lv, rho0, float(t))
        trace_dev = max(trace_dev, abs(rho.trace().real - 1.0))
        herm_dev = max(herm_dev, float(np.max(np.abs(rho - rho.conj().T))))
        min_eig = min(
            min_eig, float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
        )
    eps = np.finfo(float).eps
    preserved = trace_dev <= 4 * eps and herm_dev == 0.0 and min_eig > -1e-9

    ok = prop_dev < 1e-8 and residual < 1e-10 and preserved
    announce(
        capsys, 8, ok,
        f"propagate vs adaptive oracle {prop_dev:.2e} (5 random drives), "
        f"steady residual {residual:.2e}, trace dev {trace_dev:.2e}, "
        f"hermiticity dev {herm_dev:.2e}, min eigenvalue {min_eig:.2e} "
        f"to t=1e3 s",
    )
    assert ok


def test_criterion_09_detailed_balance(config, capsys):
    undriven = steady_state(
        build_liouvillian(config, DriveConfig(amplitude_hz=0.0))
    )
    deviation = float(
        np.max(np.abs(np.diag(undriven).real - np.diag(thermal_state(config))))
    )
    ok = deviation < 1e-8
    announce(
        capsys, 9, ok,
        f"undriven steady vs thermal populations, max abs dev {deviation:.2e}",
    )
    assert ok


def test_criterion_10_calibration_fit(capsys):
    times = np.linspace(0.02, 0.4, 20)
    clean = np.sin(2.0 * np.pi * 0.1 * times)

    noiseless = calibrate_drive(times, clean)
    noiseless_err = abs(noiseless.amplitude_hz - 0.1) / 0.1

    rng = np.random.default_rng(1234)  # the CLI's documented default seed
    noisy = calibrate_drive(times, clean + 0.01 * rng.standard_normal(times.size))
    noisy_err = abs(noisy.amplitude_hz - 0.1) / 0.1

    ok = noiseless_err < 0.01 and noisy_err < 0.03
    announce(
        capsys, 10, ok,
        f"noiseless recovery err {noiseless_err:.2%}, "
        f"1%-noise recovery err {noisy_err:.2%} (seed 1234)",
    )
    assert ok

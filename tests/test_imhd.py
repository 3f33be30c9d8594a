"""Interferometric readout: gates, signal closed form, Q reconstruction."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from spinsync import (
    HUSIMI_PREFACTOR,
    DriveConfig,
    Gate,
    SpinSystemConfig,
    build_controlled_phase,
    build_liouvillian,
    build_pseudo_hadamard,
    husimi_reduced,
    imhd_scan,
    leakage_bound,
    spin_operator,
    steady_state,
    thermal_state,
    visibility,
)
from spinsync import imhd
from spinsync.imhd import (
    VARIANTS,
    _readout,
    _require_unitary,
    deviation_bound,
)
from spinsync.phasespace import grid_axes

from conftest import doublet_coherent_density, random_density
from oracles import (
    build_j_evolution,
    build_u_theta_phi,
    mp_readout,
    readout_bound,
    readout_trailing_axes,
    run_imhd,
    signal_bound,
)

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
EPS = np.finfo(float).eps


def sparse_family(rng, count):
    """Random states whose only coherence sits on the driven pair."""
    out = []
    for _ in range(count):
        pops = rng.dirichlet(np.ones(4))
        limit = math.sqrt(pops[0] * pops[2])
        c = (rng.normal() + 1j * rng.normal()) * 0.2 * limit
        out.append(doublet_coherent_density(pops, c))
    return out


class TestGates:
    def test_gate_type_validation(self):
        with pytest.raises(ValueError):
            Gate(np.diag([1.0, 1.0, 1.0, 2.0]).astype(complex), "controlled-phase")
        with pytest.raises(ValueError):
            Gate(np.eye(4, dtype=complex), "swap")

    def test_gate_check_rejects_nan(self):
        with pytest.raises(ValueError):
            Gate(np.full((4, 4), np.nan, dtype=complex), "controlled-phase")
        stack = np.stack([np.eye(2, dtype=complex)] * 3, axis=-1)  # (2, 2, 3)
        stack[0, 0, 1] = np.nan
        with pytest.raises(ValueError):
            _require_unitary(stack)

    def test_grid_check_rejects_one_bad_cell(self, monkeypatch):
        """The readout checks every cell of both scan factors, the 64 real
        rotations and the 128 phases of a 64 x 128 scan: a 1e-9 error or a
        NaN in one entry of one cell of either fails it."""
        thetas, phis = grid_axes(64, 128)
        th, ph = thetas[:, None], phis[None, :]
        imhd._circuit_terms()  # the gates' own checks come first, once
        checked = []
        monkeypatch.setattr(
            imhd, "_require_unitary",
            lambda u: checked.append(u.shape) or _require_unitary(u),
        )
        rho = np.eye(4, dtype=complex) / 4.0
        _readout(rho, th, ph, "exact-populations")
        assert checked == [(2, 2, 64, 1), (1, 1, 1, 128)]
        factors = imhd._scan_factors(th, ph)
        for k, cell in ((0, (1, 0, 37, 0)), (1, (0, 0, 0, 101))):
            for bad in (1e-9, np.nan):
                perturbed = [factor.copy() for factor in factors]
                perturbed[k][cell] += bad
                monkeypatch.setattr(imhd, "_scan_factors", lambda *_: perturbed)
                with pytest.raises(ValueError, match="not unitary"):
                    _readout(rho, th, ph, "exact-populations")

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2, 4), (2,), (4, 2, 2)])
    def test_check_rejects_non_square_leading_axes(self, shape):
        u = np.zeros(shape, dtype=complex)
        with pytest.raises(ValueError, match="expected"):
            _require_unitary(u)

    def test_scan_rotation_identity(self):
        np.testing.assert_allclose(
            build_u_theta_phi(0.0, 0.0), np.eye(4), atol=1e-15
        )

    def test_scan_rotation_full_flip(self):
        u = np.abs(build_u_theta_phi(math.pi, 0.0))
        flip = np.abs(np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)))
        np.testing.assert_allclose(u, flip, atol=1e-15)

    def test_adjoint_is_reversed_exponentials(self, rng):
        for _ in range(5):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            gate = build_u_theta_phi(theta, phi)
            adj = build_u_theta_phi(theta, phi, adjoint=True)
            assert np.max(np.abs(adj - gate.conj().T)) <= 1e-14
            expected = np.kron(
                scipy.linalg.expm(1j * theta * SIGMA_Y / 2.0)
                @ scipy.linalg.expm(1j * phi * SIGMA_Z / 2.0),
                np.eye(2),
            )
            assert np.max(np.abs(adj - expected)) <= 1e-14

    def test_controlled_phase_entries_and_involution(self):
        cz = build_controlled_phase().matrix
        np.testing.assert_array_equal(cz, np.diag([1.0, 1.0, 1.0, -1.0]))
        np.testing.assert_allclose(cz @ cz, np.eye(4), atol=1e-15)

    def test_j_evolution_duration(self, config):
        """The gate is exp(-i 2pi J Iz^P Iz^F t) at t = 1/(2J)."""
        t = 1.0 / (2.0 * config.j_coupling_hz)
        izz = spin_operator("P", "z") @ spin_operator("F", "z")
        expected = scipy.linalg.expm(-2j * math.pi * config.j_coupling_hz * izz * t)
        assert np.max(np.abs(build_j_evolution(config) - expected)) <= 1e-15

    def test_j_evolution_is_controlled_phase_up_to_local_phases(self, config):
        """Least-squares phase stripping aligns the two diagonal gates."""
        uj = np.diag(build_j_evolution(config))
        cz = np.diag(build_controlled_phase().matrix)
        delta = np.angle(cz / uj)
        # model: delta_k = alpha + beta [m_P = +1/2] + gamma [m_F = +1/2]
        design = np.array(
            [[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]]
        )
        coeff, *_ = np.linalg.lstsq(design, delta, rcond=None)
        stripped = uj * np.exp(1j * design @ coeff)
        assert np.max(np.abs(stripped - cz)) < 1e-10

    def test_pseudo_hadamard_acts_on_f_only(self):
        h = build_pseudo_hadamard().matrix
        # block diagonal in P, same 2x2 block in both P sectors
        np.testing.assert_allclose(h[:2, 2:], np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(h[:2, :2], h[2:, 2:], atol=1e-15)


class TestRunImhd:
    def test_polar_signal_is_population_contrast(self, rng):
        for rho in sparse_family(rng, 5):
            reading = run_imhd(rho, 0.0, 0.7)
            expected = 0.5 * (
                rho[3, 3] - rho[2, 2] - rho[1, 1] + rho[0, 0]
            ).real
            assert reading.signal == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_state(self):
        rho = np.eye(4, dtype=complex) / 4.0
        for theta, phi in [(0.0, 0.0), (1.1, 2.2), (math.pi, 0.5)]:
            reading = run_imhd(rho, theta, phi)
            assert abs(reading.signal) < 1e-14
            assert reading.q_value == pytest.approx(6.0 / math.pi**3, rel=1e-12)

    def test_rejects_unknown_variant(self, rng):
        with pytest.raises(ValueError):
            run_imhd(random_density(rng), 0.1, 0.2, variant="thirds")

    @pytest.mark.parametrize(
        "theta, phi",
        [(math.nan, 0.3), (0.3, math.inf), (0.3, math.nan), (-math.inf, 0.3),
         (7.0, 0.1), (-0.1, 0.0), (math.pi + 1e-12, 0.0)],
    )
    def test_rejects_bad_angles(self, rng, theta, phi):
        with pytest.raises(ValueError):
            run_imhd(random_density(rng), theta, phi)

    def test_circuit_matches_closed_form_on_sparse_family(self, rng):
        """Gate simulation reproduces the closed-form signal."""
        for rho in sparse_family(rng, 20):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            reading = run_imhd(rho, theta, phi)
            assert abs(reading.signal - reading.closed_form_signal) < 1e-10

    def test_general_state_discrepancy_is_reported(self, rng):
        # with extra coherences present the closed form no longer holds;
        # both values stay accessible so the gap is visible
        rho = random_density(rng)
        reading = run_imhd(rho, 1.0, 1.0)
        assert reading.signal != reading.closed_form_signal
        assert abs(reading.signal - reading.closed_form_signal) > 1e-6

    def test_signal_bounded_by_half(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            assert abs(run_imhd(rho, theta, phi).signal) <= 0.5 + 1e-12

    def test_reconstruction_identity_on_sparse_family(self, rng):
        """Exact-population reconstruction equals the reduced Husimi."""
        for rho in sparse_family(rng, 10):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            reading = run_imhd(rho, theta, phi)
            assert abs(
                reading.q_value - husimi_reduced(rho, theta, phi)
            ) < 1e-12

    def test_quarter_variant_error_bound(self, rng):
        for rho in sparse_family(rng, 10):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            exact = run_imhd(rho, theta, phi, variant="exact-populations")
            quarter = run_imhd(rho, theta, phi, variant="quarter-approximation")
            bound = HUSIMI_PREFACTOR * (
                abs(rho[3, 3].real - 0.25) + abs(rho[1, 1].real - 0.25)
            )
            assert abs(exact.q_value - quarter.q_value) <= bound + 1e-12


@pytest.fixture(scope="module")
def driven_state():
    config = SpinSystemConfig()
    lv = build_liouvillian(config, DriveConfig())
    return steady_state(lv)


class TestDrivenSteadyStateReadout:
    def test_matches_direct_husimi(self, driven_state):
        grid = imhd_scan(driven_state, n_theta=16, n_phi=32)
        direct = husimi_reduced(
            driven_state, grid.thetas[:, None], grid.phis[None, :]
        )
        assert np.max(np.abs(grid.values - direct)) < 1e-9

    def test_quarter_variant_tracks_exact(self, driven_state):
        exact = imhd_scan(driven_state, n_theta=8, n_phi=16)
        quarter = imhd_scan(
            driven_state, n_theta=8, n_phi=16, variant="quarter-approximation"
        )
        bound = HUSIMI_PREFACTOR * (
            abs(driven_state[3, 3].real - 0.25)
            + abs(driven_state[1, 1].real - 0.25)
        )
        assert np.max(np.abs(exact.values - quarter.values)) <= bound + 1e-12


class TestReconstructionFloor:
    """The exact-populations reconstruction 1/2 (1 + 2 s) - spectator
    subtracts quantities of about 1/4 to read a signal of order |rho42|."""

    PROBES = ((0.0, 0.0), (0.3, 5.9), (1.1, 4.0), (math.pi / 2, 0.3), (2.5, 2.0),
              (math.pi, 1.0))

    @pytest.mark.parametrize("amplitude_hz", [1e-3, 0.1, 10.0])
    def test_floor_against_40_digits(self, config, amplitude_hz):
        """Each value is within its derived rounding bound of the 40-digit
        circuit, and that bound stays six decades under the signal scale
        (24/pi^3) |rho42| (measured floor: at most 0.75 units of 2^-53 of
        24/pi^3, 2e-9 of the signal scale at 1e-3 Hz)."""
        rho = steady_state(
            build_liouvillian(config, DriveConfig(amplitude_hz=amplitude_hz))
        )
        signal_scale = HUSIMI_PREFACTOR * abs(rho[0, 2])
        for theta, phi in self.PROBES:
            _, q = _readout(rho, theta, phi, "exact-populations")
            with mpmath.workdps(40):
                error = abs(q - HUSIMI_PREFACTOR * mp_readout(rho, theta, phi))
            bound = HUSIMI_PREFACTOR * readout_bound(rho, theta, phi)
            assert float(error) <= bound, (theta, phi)
            assert bound < 1e-6 * signal_scale


class TestImhdScan:
    def test_thermal_scan_is_flat(self, config):
        grid = imhd_scan(thermal_state(config), n_theta=16, n_phi=32)
        assert visibility(grid) == 0.0  # a diagonal rho makes T01 exactly 0

    def test_values_non_negative(self, rng):
        rho = sparse_family(rng, 1)[0]
        grid = imhd_scan(rho, n_theta=8, n_phi=16)
        assert grid.values.min() >= -1e-12

    @pytest.mark.parametrize("n_theta, n_phi", [(1, 8), (4, 1)])
    def test_rejects_single_point_axis(self, n_theta, n_phi):
        with pytest.raises(ValueError):
            imhd_scan(np.eye(4) / 4.0, n_theta=n_theta, n_phi=n_phi)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_deviation_bound_bounds_the_scan(self, rng, variant):
        """The leakage term, then the tolerance, then for the quarter
        approximation the population term, added in that order, and the
        scan's deviation from the direct grid stays below it."""
        rho = random_density(rng)
        expected = leakage_bound(rho) + 1e-9
        if variant == "quarter-approximation":
            expected += float(
                HUSIMI_PREFACTOR
                * (abs(rho[3, 3].real - 0.25) + abs(rho[1, 1].real - 0.25))
            )
        bound = deviation_bound(rho, variant)
        assert bound == expected
        scan = imhd_scan(rho, n_theta=8, n_phi=16, variant=variant)
        direct = husimi_reduced(rho, scan.thetas[:, None], scan.phis[None, :])
        assert np.max(np.abs(scan.values - direct)) < bound

    def test_deviation_bound_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            deviation_bound(np.eye(4) / 4.0, "bogus")

    def test_scan_equals_pointwise_calls(self, rng):
        rho = sparse_family(rng, 1)[0]
        grid = imhd_scan(rho, n_theta=4, n_phi=8)
        for i, theta in enumerate(grid.thetas):
            for j, phi in enumerate(grid.phis):
                assert grid.values[i, j] == run_imhd(rho, theta, phi).q_value


def reference_signal(rho, theta, phi):
    """Circuit signal from the explicit per-point 4x4 gate product."""
    g = (
        build_controlled_phase().matrix
        @ build_u_theta_phi(theta, phi, adjoint=True)
        @ build_pseudo_hadamard().matrix
    )
    return np.real(np.trace(g @ rho @ g.conj().T @ spin_operator("F", "x")))


class TestKernel:
    """The grid kernel against the gate-level reference, on general states."""

    def test_matches_gate_product(self, rng):
        for _ in range(5):
            rho = random_density(rng)
            grid = imhd_scan(rho, n_theta=5, n_phi=7)
            for i, theta in enumerate(grid.thetas):
                for j, phi in enumerate(grid.phis):
                    signal = reference_signal(rho, theta, phi)
                    assert abs(run_imhd(rho, theta, phi).signal - signal) <= 4 * EPS
                    spectator = (
                        rho[3, 3].real * math.cos(theta / 2.0) ** 2
                        + rho[1, 1].real * math.sin(theta / 2.0) ** 2
                    )
                    q = HUSIMI_PREFACTOR * (0.5 * (1.0 + 2.0 * signal) - spectator)
                    assert abs(grid.values[i, j] - q) <= 4 * EPS

    @pytest.mark.parametrize("variant", ["exact-populations", "quarter-approximation"])
    @pytest.mark.parametrize("n_theta, n_phi", [(9, 16), (64, 128)])
    def test_matches_trailing_axis_kernel(self, rng, variant, n_theta, n_phi):
        """The separable readout and the full (..., 2, 2) scan-rotation stack
        differ only in their order of operations: every signal and value of
        one lies within the sum of both kernels' derived rounding bounds of
        the other."""
        thetas, phis = grid_axes(n_theta, n_phi)
        th, ph = thetas[:, None], phis[None, :]
        for _ in range(10):
            rho = random_density(rng)
            grid = imhd_scan(rho, n_theta, n_phi, variant)
            signal, _ = _readout(rho, th, ph, variant)
            want_signal, want_q = readout_trailing_axes(rho, th, ph, variant)
            both = signal_bound(rho, th, ph) + signal_bound(rho, th, ph, trailing=True)
            assert np.all(np.abs(signal - want_signal) <= both)
            both = readout_bound(rho, th, ph, variant) + readout_bound(
                rho, th, ph, variant, trailing=True
            )
            assert np.all(np.abs(grid.values - want_q) <= HUSIMI_PREFACTOR * both)

    def test_rejects_a_non_hermitian_state(self, monkeypatch):
        """The separable form reads T01 and the real parts of T00 and T11,
        exact for a Hermitian rho only.  On a non-Hermitian matrix of trace
        1 it would return another signal than the full-rotation reference,
        so the readout refuses it by propagate's rule, naming the residue;
        its Hermitian part is read as before."""
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        rho[0, 2] = 0.1 + 0.05j  # rho[2, 0] left 0
        want = readout_trailing_axes(rho, 1.0, 0.5, "exact-populations")[0]
        for call in (
            lambda: _readout(rho, 1.0, 0.5, "exact-populations"),
            lambda: imhd_scan(rho, n_theta=4, n_phi=4),
        ):
            with pytest.raises(ValueError, match="state is not Hermitian: "
                               r"imaginary residue 5\.000e-02 in real"):
                call()
        with monkeypatch.context() as patch:  # the unchecked separable form
            patch.setattr(imhd, "_real_start", lambda *args: None)
            unchecked = _readout(rho, 1.0, 0.5, "exact-populations")[0]
        assert abs(unchecked - want) > 0.01
        hermitian = 0.5 * (rho + rho.conj().T)
        signal = _readout(hermitian, 1.0, 0.5, "exact-populations")[0]
        reference = readout_trailing_axes(hermitian, 1.0, 0.5, "exact-populations")[0]
        bound = signal_bound(hermitian, 1.0, 0.5) + signal_bound(
            hermitian, 1.0, 0.5, trailing=True
        )
        assert abs(signal - reference) <= bound

    def test_rho31_leakage_formula(self, rng):
        """Q_circuit - Q_direct = -(24/pi^3) sin(theta) Re(rho31 e^{i phi})."""
        for _ in range(10):
            rho = random_density(rng)
            grid = imhd_scan(rho, n_theta=9, n_phi=16)
            th, ph = grid.thetas[:, None], grid.phis[None, :]
            gap = grid.values - husimi_reduced(rho, th, ph)
            leak = -HUSIMI_PREFACTOR * np.sin(th) * np.real(rho[1, 3] * np.exp(1j * ph))
            assert np.max(np.abs(gap - leak)) <= 4 * EPS
            assert np.max(np.abs(gap)) <= leakage_bound(rho) + 4 * EPS


def test_circuit_gates_built_and_checked_once(monkeypatch):
    """The pseudo-Hadamard and controlled-phase gates, unitarity-checked on
    their build, and A = CP^dagger F_x CP are built once per process and
    shared read-only; the scans still agree with a fresh build."""
    builds = []
    for name in ("build_pseudo_hadamard", "build_controlled_phase"):
        original = getattr(imhd, name)
        monkeypatch.setattr(
            imhd, name, lambda original=original: builds.append(1) or original()
        )
    imhd._circuit_terms.cache_clear()
    rho = np.eye(4, dtype=complex) / 4.0
    first = imhd_scan(rho, n_theta=8, n_phi=8)
    second = imhd_scan(rho, n_theta=8, n_phi=8)
    assert len(builds) == 2
    assert first.values.tobytes() == second.values.tobytes()
    h, a = imhd._circuit_terms()
    for term in (h, a):
        with pytest.raises(ValueError, match="read-only"):
            term[(0,) * term.ndim] = 1.0
    np.testing.assert_array_equal(h, build_pseudo_hadamard().matrix)

    def broken():
        return Gate(np.diag([1.0, 1.0, 1.0, 1.1]).astype(complex), "controlled-phase")

    monkeypatch.setattr(imhd, "build_controlled_phase", broken)
    imhd._circuit_terms.cache_clear()
    with pytest.raises(ValueError, match="not unitary"):
        imhd_scan(rho, n_theta=8, n_phi=8)

"""Coherent states, Husimi distributions, sync measures, Haar quadrature."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from spinsync import (
    HUSIMI_PREFACTOR,
    SYNC_COEFFICIENT,
    HusimiGrid,
    SpinSystemConfig,
    completeness_check,
    haar_quadrature,
    husimi_grid,
    husimi_normalization,
    husimi_reduced,
    state_visibility,
    sync_measure_full,
    sync_measure_max,
    sync_measure_quadrature,
    thermal_state,
    visibility,
)

from conftest import doublet_coherent_density, random_density
from oracles import (
    HAAR_ULPS,
    U,
    CoherentStateSU4,
    coherent_state_sun,
    grid_visibility_bound,
    husimi_full,
    mp_visibility,
    state_visibility_bound,
)


@pytest.fixture(scope="module")
def scheme():
    return haar_quadrature()


def random_angles(rng, count):
    thetas = tuple(rng.uniform(0.0, math.pi, size=count))
    phis = tuple(rng.uniform(0.0, 2.0 * math.pi, size=count))
    return thetas, phis


class TestCoherentStateSU2:
    """The n = 2 base case of the SU(n) recursion."""

    def test_pole(self):
        v = coherent_state_sun(2, (0.0,), (1.23,))
        np.testing.assert_array_equal(v, [1.0, 0.0])

    def test_antipode(self):
        v = coherent_state_sun(2, (math.pi,), (0.0,))
        assert abs(v[0]) < 1e-15
        assert abs(v[1] - 1.0) < 1e-15

    def test_equator(self):
        v = coherent_state_sun(2, (math.pi / 2.0,), (math.pi / 2.0,))
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(v, [s, 1j * s], atol=1e-15)

    def test_unit_norm(self, rng):
        for _ in range(10):
            thetas, phis = random_angles(rng, 1)
            v = coherent_state_sun(2, thetas, phis)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-14


class TestCoherentStateSUN:
    def test_extremal(self):
        v = coherent_state_sun(4, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        np.testing.assert_array_equal(v, [1.0, 0.0, 0.0, 0.0])

    def test_recursion_tail(self, rng):
        # theta1 = pi empties the first component and leaves the SU(3)
        # state of the remaining angles
        thetas, phis = random_angles(rng, 2)
        v = coherent_state_sun(4, (math.pi,) + thetas, (0.0,) + phis)
        tail = coherent_state_sun(3, thetas, phis)
        assert abs(v[0]) < 1e-15
        np.testing.assert_allclose(v[1:], tail, atol=1e-15)

    def test_su3_hand_expansion(self, rng):
        for _ in range(10):
            (t1, t2), (p1, p2) = random_angles(rng, 2)
            v = coherent_state_sun(3, (t1, t2), (p1, p2))
            expected = np.array(
                [
                    math.cos(t1 / 2.0),
                    cmath.exp(1j * p1) * math.sin(t1 / 2.0) * math.cos(t2 / 2.0),
                    cmath.exp(1j * p2) * math.sin(t1 / 2.0) * math.sin(t2 / 2.0),
                ]
            )
            assert np.max(np.abs(v - expected)) < 1e-14

    def test_su4_hand_expansion(self, rng):
        for _ in range(10):
            thetas, phis = random_angles(rng, 3)
            state = CoherentStateSU4(thetas=thetas, phis=phis)
            t1, t2, t3 = thetas
            p1, p2, p3 = phis
            expected = np.array(
                [
                    math.cos(t1 / 2.0),
                    cmath.exp(1j * p1) * math.sin(t1 / 2.0) * math.cos(t2 / 2.0),
                    cmath.exp(1j * p2)
                    * math.sin(t1 / 2.0)
                    * math.sin(t2 / 2.0)
                    * math.cos(t3 / 2.0),
                    cmath.exp(1j * p3)
                    * math.sin(t1 / 2.0)
                    * math.sin(t2 / 2.0)
                    * math.sin(t3 / 2.0),
                ]
            )
            assert np.max(np.abs(state.vector - expected)) < 1e-14
            assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-14

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            coherent_state_sun(1, (), ())
        with pytest.raises(ValueError):
            coherent_state_sun(4, (0.1, 0.2), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            coherent_state_sun(3, (0.1, 3.5), (0.0, 0.0))
        with pytest.raises(ValueError):
            CoherentStateSU4(thetas=(0.1, 0.2), phis=(0.0, 0.0))


class TestHusimiFull:
    def test_maximally_mixed(self, rng):
        thetas, phis = random_angles(rng, 3)
        state = CoherentStateSU4(thetas=thetas, phis=phis)
        q = husimi_full(np.eye(4) / 4.0, state)
        assert q == pytest.approx(6.0 / math.pi**3, rel=1e-12)

    def test_perfect_overlap(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        state = CoherentStateSU4(thetas=(0.0, 2.0, 1.0), phis=(0.3, 0.2, 0.1))
        assert husimi_full(rho, state) == pytest.approx(HUSIMI_PREFACTOR, rel=1e-12)

    def test_normalization_over_measure(self, rng, scheme):
        """Q integrates to tr rho = 1 exactly; the quadrature misses by a
        measured 29 U (460 random states), allowed HAAR_ULPS U, 4.4x."""
        for _ in range(10):
            total = husimi_normalization(random_density(rng), scheme)
            assert abs(total - 1.0) <= HAAR_ULPS * U

    def test_bounded(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            thetas, phis = random_angles(rng, 3)
            q = husimi_full(rho, CoherentStateSU4(thetas=thetas, phis=phis))
            assert -1e-12 <= q <= HUSIMI_PREFACTOR + 1e-12


class TestHusimiReduced:
    def test_no_coherence_means_no_phase_structure(self):
        rho = np.diag([0.3, 0.2, 0.3, 0.2]).astype(complex)
        phis = np.linspace(0.0, 2.0 * math.pi, 50)
        for theta in (0.0, 0.7, math.pi / 2.0, math.pi):
            q = husimi_reduced(rho, theta, phis)
            assert np.ptp(q) == 0.0

    def test_bracket_substitution(self):
        rho = doublet_coherent_density([0.25, 0.25, 0.25, 0.25], 0.25)
        assert husimi_reduced(rho, math.pi / 2.0, 0.0) == pytest.approx(
            12.0 / math.pi**3, rel=1e-12
        )

    def test_phase_of_maximum(self):
        alpha = 2.2
        rho = doublet_coherent_density(
            [0.3, 0.2, 0.3, 0.2], 0.1 * cmath.exp(1j * alpha)
        )
        phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
        q = husimi_reduced(rho, math.pi / 2.0, phis)
        best = phis[np.argmax(q)]
        expected = (-alpha) % (2.0 * math.pi)
        assert abs(best - expected) < 2.0 * math.pi / 4096 + 1e-12

    def test_matches_full_distribution_on_section(self, rng):
        """The (theta, phi) section agrees with the six-angle form."""
        rho = doublet_coherent_density(
            [0.28, 0.22, 0.26, 0.24], 0.05 + 0.03j
        )
        for _ in range(10):
            theta = rng.uniform(0.0, math.pi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            state = CoherentStateSU4(
                thetas=(theta, math.pi, 0.0), phis=(0.0, phi, 0.0)
            )
            assert abs(
                husimi_reduced(rho, theta, phi) - husimi_full(rho, state)
            ) < 1e-12


class TestHusimiGrid:
    def test_axes_and_pointwise_values(self, config):
        rho = thermal_state(config)
        grid = husimi_grid(rho, n_theta=16, n_phi=32)
        assert grid.thetas[0] == 0.0 and grid.thetas[-1] == pytest.approx(math.pi)
        assert grid.phis[0] == 0.0 and grid.phis[-1] < 2.0 * math.pi
        q = husimi_reduced(rho, grid.thetas[3], grid.phis[7])
        assert grid.values[3, 7] == pytest.approx(q, rel=1e-15)

    def test_stack_gives_each_state_its_grid(self, config, rng):
        """A (..., 4, 4) stack of states gives a (..., n_theta, n_phi)
        stack of grids, each equal bit for bit to its state's own grid,
        and visibility then gives one value per grid."""
        states = np.stack([random_density(rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        grids = husimi_grid(states, n_theta=16, n_phi=32)
        assert grids.values.shape == (2, 3, 16, 32)
        contrasts = visibility(grids)
        assert contrasts.shape == (2, 3)
        for cell in np.ndindex(2, 3):
            single = husimi_grid(states[cell], n_theta=16, n_phi=32)
            np.testing.assert_array_equal(grids.values[cell], single.values)
            assert contrasts[cell] == visibility(single)
        assert isinstance(visibility(single), float)

    def test_rejects_tiny_grids(self, config):
        with pytest.raises(ValueError):
            husimi_grid(thermal_state(config), n_theta=1)

    def test_grid_type_validation(self):
        with pytest.raises(ValueError):
            HusimiGrid(
                thetas=np.array([0.0, 1.0]),
                phis=np.array([0.0, 1.0]),
                values=np.zeros((3, 2)),
            )
        with pytest.raises(ValueError):
            HusimiGrid(
                thetas=np.array([1.0, 0.0]),
                phis=np.array([0.0, 1.0]),
                values=np.zeros((2, 2)),
            )

    def test_phase_shift_covariance(self):
        # multiplying rho42 by e^{i beta} translates the phase profile
        # by -beta; pick beta commensurate with the grid and locate the
        # shift by circular cross-correlation
        n_phi = 128
        steps = 10
        beta = steps * 2.0 * math.pi / n_phi
        rho = doublet_coherent_density([0.3, 0.2, 0.3, 0.2], 0.08)
        shifted = doublet_coherent_density(
            [0.3, 0.2, 0.3, 0.2], 0.08 * cmath.exp(1j * beta)
        )
        base = husimi_grid(rho, n_phi=n_phi).values.sum(axis=0)
        moved = husimi_grid(shifted, n_phi=n_phi).values.sum(axis=0)
        correlation = [
            np.dot(moved, np.roll(base, -k)) for k in range(n_phi)
        ]
        # corr[k] pairs moved[j] with base[j + k], so its peak sits at
        # minus the translation; a -beta translation peaks at k = +steps
        translation = (-int(np.argmax(correlation))) % n_phi
        expected = (-steps) % n_phi
        distance = abs(translation - expected)
        assert min(distance, n_phi - distance) <= 1


class TestSyncMeasure:
    def test_thermal_state_vanishes(self, config, rng):
        rho = thermal_state(config)
        for _ in range(5):
            phis = rng.uniform(0.0, 2.0 * math.pi, size=3)
            assert sync_measure_full(rho, *phis) == 0.0

    def test_single_coherence_closed_form(self, rng):
        r, alpha = 0.07, 1.1
        rho = doublet_coherent_density(
            [0.3, 0.2, 0.3, 0.2], r * cmath.exp(1j * alpha)
        )
        for _ in range(10):
            phi2 = rng.uniform(0.0, 2.0 * math.pi)
            expected = r * math.cos(phi2 + alpha) / (16.0 * math.pi**2)
            assert sync_measure_full(rho, 0.3, phi2, 2.9) == pytest.approx(
                expected, abs=1e-15
            )

    def test_quadrature_matches_closed_form(self, rng, scheme):
        """Haar integral of the Q marginal equals the coherence sum, the
        closed form: a measured floor of 34.5 U of SYNC_COEFFICIENT (460
        random states), allowed HAAR_ULPS U of it, 3.7x."""
        for _ in range(10):
            rho = random_density(rng)
            phis = rng.uniform(0.0, 2.0 * math.pi, size=3)
            direct = sync_measure_full(rho, *phis)
            integrated = sync_measure_quadrature(rho, *phis, scheme=scheme)
            assert abs(integrated - direct) <= HAAR_ULPS * U * SYNC_COEFFICIENT

    def test_reduced_zero_coherence(self):
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        assert sync_measure_max(rho) == 0.0

    def test_reduced_reference_value(self):
        rho = doublet_coherent_density([0.3, 0.2, 0.3, 0.2], 0.1)
        assert sync_measure_max(rho) == pytest.approx(6.333e-4, abs=5e-7)
        assert sync_measure_max(rho) == pytest.approx(
            0.1 / (16.0 * math.pi**2), rel=1e-14
        )

    def test_grid_max_matches_closed_form(self, rng):
        phis = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        for _ in range(10):
            c = (rng.normal() + 1j * rng.normal()) * 0.05
            rho = doublet_coherent_density([0.3, 0.2, 0.3, 0.2], c)
            # S(phi) = Re(rho42 e^{i phi}) / (16 pi^2) on the reduced section
            s_phi = SYNC_COEFFICIENT * np.real(rho[0, 2] * np.exp(1j * phis))
            grid_max = s_phi.max()
            closed = sync_measure_max(rho)
            assert abs(grid_max - closed) / closed < 1e-4


class TestVisibility:
    def test_constant_grid(self):
        grid = HusimiGrid(
            thetas=np.linspace(0.0, math.pi, 8),
            phis=np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False),
            values=np.full((8, 16), 0.3),
        )
        assert visibility(grid) == 0.0

    def test_full_contrast(self):
        phis = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
        values = np.tile(1.0 + np.cos(phis), (8, 1)) / 8.0
        grid = HusimiGrid(
            thetas=np.linspace(0.0, math.pi, 8), phis=phis, values=values
        )
        assert visibility(grid) == pytest.approx(1.0, abs=1e-12)

    def test_thermal_grid_is_flat(self, config):
        grid = husimi_grid(thermal_state(config))
        assert visibility(grid) < 1e-10

    def test_degenerate_grid_rejected(self):
        grid = HusimiGrid(
            thetas=np.linspace(0.0, math.pi, 4),
            phis=np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False),
            values=np.zeros((4, 8)),
        )
        with pytest.raises(ValueError):
            visibility(grid)
        stacked = HusimiGrid(
            thetas=grid.thetas,
            phis=grid.phis,
            values=np.stack([np.full((4, 8), 0.3), grid.values]),
        )
        with pytest.raises(ValueError):
            visibility(stacked)


class TestStateVisibility:
    def test_stack_gives_per_state_bits(self, rng):
        states = np.stack([random_density(rng) for _ in range(6)])
        stacked = state_visibility(states.reshape(2, 3, 4, 4), n_theta=16, n_phi=32)
        assert stacked.shape == (2, 3)
        for value, rho in zip(stacked.ravel(), states):
            single = state_visibility(rho, n_theta=16, n_phi=32)
            assert isinstance(single, float)
            assert value == single

    def test_agrees_with_grid_route(self, rng):
        """Random states (contrast up to order one) on two grids, within
        both routes' derived rounding bounds."""
        for n_theta, n_phi in ((64, 128), (9, 13)):
            for _ in range(5):
                rho = random_density(rng)
                value = state_visibility(rho, n_theta, n_phi)
                grid = visibility(husimi_grid(rho, n_theta, n_phi))
                bound = grid_visibility_bound(rho, n_theta, value) + value * (
                    state_visibility_bound(rho, n_theta, n_phi)
                )
                assert abs(value - grid) <= bound

    def test_matches_40_digit_profile(self, rng):
        for _ in range(4):
            rho = random_density(rng)
            value = state_visibility(rho, 16, 32)
            with mpmath.workdps(40):
                exact = mp_visibility(rho, 16, 32)
                error = float(abs(value - exact) / exact)
            assert error <= state_visibility_bound(rho, 16, 32)

    def test_diagonal_state_is_exactly_flat(self, config):
        assert state_visibility(thermal_state(config)) == 0.0

    def test_degenerate_state_rejected(self):
        zero = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValueError, match="phase profile sums to zero"):
            state_visibility(zero)
        with pytest.raises(ValueError, match="phase profile sums to zero"):
            state_visibility(np.stack([np.eye(4) / 4.0, zero]))


class TestHaarQuadrature:
    def test_completeness_diagonal(self, scheme):
        """The quadrature of |n><n| against the exact Haar integral (pi^3 /
        24) I at 40 digits: at the default orders (32, 64) the Gauss nodes
        leave no truncation error above rounding (10.8 U at half the
        orders), and the worst entry misses by a measured 31.0 U of pi^3 /
        24 (4.4e-15), allowed HAAR_ULPS = 128 U, 4.1x that floor."""
        result = completeness_check(scheme)
        with mpmath.workdps(40):
            target = float(mpmath.pi**3 / 24)
        assert target == pytest.approx(1.29193, abs=1e-5)
        bound = HAAR_ULPS * U * target
        np.testing.assert_allclose(np.diag(result).real, target, rtol=0, atol=bound)
        assert np.max(np.abs(result - target * np.eye(4))) <= bound

    def test_completeness_off_diagonal(self, scheme):
        """The exact integral's off-diagonal entries are 0; the quadrature's
        reach a measured 0.124 U of pi^3 / 24, allowed 1 U of it, 8.1x."""
        result = completeness_check(scheme)
        off = result - np.diag(np.diag(result))
        assert np.max(np.abs(off)) <= U * math.pi**3 / 24

    def test_order_halving_convergence(self, scheme):
        """Both orders meet the 40-digit integral (31.0 and 10.8 U of pi^3 /
        24), and each other within a measured 38.7 U, allowed HAAR_ULPS U,
        3.3x."""
        coarse = completeness_check(haar_quadrature(16, 32))
        fine = completeness_check(scheme)
        assert np.max(np.abs(fine - coarse)) <= HAAR_ULPS * U * math.pi**3 / 24

    def test_rejects_tiny_orders(self):
        with pytest.raises(ValueError):
            haar_quadrature(1, 64)

    @pytest.mark.parametrize("n_alpha, n_phi", [(32, 64), (5, 7)])
    def test_pair_integrals_match_elementwise_loop(self, n_alpha, n_phi):
        """The array-shaped tables against one sum per entry and axis, from
        the components of the module docstring: component i carries phi_i
        (component 0 none) and, on axis k, cos(alpha_k) if k = i, sin if
        k < i, and 1 if k > i.  Only the order of the sums differs, so
        they agree to a few eps of the table's largest entry."""
        scheme = haar_quadrature(n_alpha, n_phi)
        a, w = scheme.alpha_nodes, scheme.alpha_weights
        phis = np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False)

        def factor(i, k):
            return np.cos(a) if k == i else np.sin(a) if k < i else np.ones_like(a)

        radial = np.ones((4, 4))
        phase = np.ones((4, 4), dtype=complex)
        for k, power in enumerate((5, 3, 1)):
            weight = w * np.cos(a) * np.sin(a) ** power
            for i in range(4):
                for j in range(4):
                    radial[i, j] *= np.sum(weight * factor(i, k) * factor(j, k))
                    m = (i == k + 1) - (j == k + 1)
                    phase[i, j] *= 2.0 * math.pi / n_phi * np.sum(np.exp(1j * m * phis))
        for table, reference in (
            (scheme._radial_pair_integrals(), radial),
            (scheme._phase_pair_integrals(), phase),
        ):
            bound = 8 * np.finfo(float).eps * np.max(np.abs(reference))
            assert np.max(np.abs(table - reference)) <= bound

    def test_default_scheme_used_when_omitted(self, rng):
        rho = random_density(rng)
        assert husimi_normalization(rho) == pytest.approx(1.0, abs=1e-6)

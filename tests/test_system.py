"""Basis conventions, spin operators, thermal state, purity factors."""

import math

import numpy as np
import pytest

from spinsync import (
    DEFAULT_BASIS,
    DriveConfig,
    SpinSystemConfig,
    build_lab_hamiltonian,
    build_liouvillian,
    check_density_matrix,
    default_purity_factors,
    larmor_frequencies,
    spin_operator,
    steady_state,
    thermal_state,
)
from spinsync.system import GAMMA_F_HZ_PER_TESLA, GAMMA_P_HZ_PER_TESLA


def commutator(a, b):
    return a @ b - b @ a


class TestSpinOperator:
    def test_z_is_traceless(self):
        assert spin_operator("P", "z").trace() == 0.0
        assert spin_operator("F", "z").trace() == 0.0

    def test_zz_product_eigenvalues(self):
        izz = spin_operator("P", "z") @ spin_operator("F", "z")
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(izz)), [-0.25, -0.25, 0.25, 0.25], atol=1e-15
        )

    def test_diagonal_operators_commute(self):
        izp = spin_operator("P", "z")
        izz = izp @ spin_operator("F", "z")
        assert np.max(np.abs(commutator(izp, izz))) == 0.0

    @pytest.mark.parametrize("species", ["P", "F"])
    def test_su2_algebra(self, species):
        ix, iy, iz = (spin_operator(species, ax) for ax in "xyz")
        for left, right, out in [(ix, iy, iz), (iy, iz, ix), (iz, ix, iy)]:
            assert np.max(np.abs(commutator(left, right) - 1j * out)) <= 1e-14

    def test_cross_species_operators_commute_exactly(self):
        for ax_p in "xyz":
            for ax_f in "xyz":
                c = commutator(spin_operator("P", ax_p), spin_operator("F", ax_f))
                assert np.max(np.abs(c)) == 0.0

    def test_component_eigenvalues_are_half_integer(self):
        for species in "PF":
            for axis in "xyz":
                vals = np.sort(np.linalg.eigvalsh(spin_operator(species, axis)))
                np.testing.assert_allclose(vals, [-0.5, -0.5, 0.5, 0.5], atol=1e-15)

    def test_rejects_unknown_species_and_axis(self):
        with pytest.raises(ValueError):
            spin_operator("H", "z")
        with pytest.raises(ValueError):
            spin_operator("P", "q")


class TestBasisOrdering:
    def test_level_labels_map_to_indices(self):
        assert DEFAULT_BASIS.index_of_level(4) == 0
        assert DEFAULT_BASIS.index_of_level(1) == 3

    def test_energy_extremes(self):
        assert DEFAULT_BASIS.quantum_numbers(4) == (-0.5, -0.5)
        assert DEFAULT_BASIS.quantum_numbers(1) == (+0.5, +0.5)

    def test_p_flip_pairs_share_f_orientation(self):
        # {|4>, |2>} and {|3>, |1>} differ only in m_P
        lv = DEFAULT_BASIS.levels
        assert lv[0][1] == lv[2][1] and lv[0][0] != lv[2][0]
        assert lv[1][1] == lv[3][1] and lv[1][0] != lv[3][0]


class TestThermalState:
    def test_infinite_temperature_limit(self):
        cfg = SpinSystemConfig(epsilon_p=0.0, epsilon_f=0.0)
        np.testing.assert_array_equal(thermal_state(cfg), np.eye(4) / 4.0)

    def test_diagonal(self, config):
        rho = thermal_state(config)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) == 0.0

    def test_matches_undriven_steady_state(self):
        """Populations agree with the zero-amplitude fixed point."""
        cfg = SpinSystemConfig(epsilon_p=8.2e-6, epsilon_f=1.9e-5)
        rho_eq = thermal_state(cfg)
        check_density_matrix(rho_eq)
        lv = build_liouvillian(cfg, DriveConfig(amplitude_hz=0.0))
        rho_ss = steady_state(lv)
        # exact product weights are the fixed point, so this is far
        # inside the O(epsilon^2) agreement the linearized form allows
        assert np.max(np.abs(rho_ss - rho_eq)) < 4.0 * 1.9e-5**2

    def test_populations_monotone_against_lab_energy(self):
        # sorted by decreasing lab-frame energy, populations never
        # decrease; holds whenever epsilon_f >= epsilon_p, which any
        # single-temperature config satisfies because gamma_f > gamma_p
        for cfg in [
            SpinSystemConfig(),
            SpinSystemConfig(field_tesla=2.0, temperature_k=77.0),
            SpinSystemConfig(epsilon_p=0.01, epsilon_f=0.05),
            SpinSystemConfig(epsilon_p=0.03, epsilon_f=0.03),
            SpinSystemConfig(epsilon_p=0.0, epsilon_f=0.09),
        ]:
            energies = np.diag(build_lab_hamiltonian(cfg).matrix).real
            pops = np.diag(thermal_state(cfg)).real
            ordered = pops[np.argsort(-energies)]
            assert np.all(np.diff(ordered) >= 0.0)

    def test_commutes_with_lab_hamiltonian(self, config):
        h = build_lab_hamiltonian(config).matrix
        rho = thermal_state(config)
        assert np.max(np.abs(h @ rho - rho @ h)) <= 1e-12

    def test_rejects_purity_outside_regime(self):
        with pytest.raises(ValueError):
            SpinSystemConfig(epsilon_p=0.1)
        with pytest.raises(ValueError):
            SpinSystemConfig(epsilon_f=-1e-6)


class TestPurityFactors:
    def test_reference_field_and_temperature(self):
        eps_p, eps_f = default_purity_factors(11.4, 298.0)
        assert abs(eps_f - 1.9e-5) < 1.0e-6
        assert 0.0 < eps_p < eps_f

    def test_high_temperature_limit(self):
        eps_p, eps_f = default_purity_factors(11.4, 1e12)
        assert 0.0 < eps_p < 1e-13
        assert 0.0 < eps_f < 1e-13

    def test_ratio_equals_gyromagnetic_ratio(self):
        eps_p, eps_f = default_purity_factors()
        assert eps_f / eps_p == pytest.approx(
            GAMMA_F_HZ_PER_TESLA / GAMMA_P_HZ_PER_TESLA, rel=1e-15
        )

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            default_purity_factors(0.0, 298.0)
        with pytest.raises(ValueError):
            default_purity_factors(11.4, -1.0)


class TestConfigValidation:
    def test_offset_defaults_to_half_coupling(self):
        cfg = SpinSystemConfig(j_coupling_hz=868.0)
        assert cfg.offset_p_hz == -434.0
        assert cfg.offset_f_hz == 0.0

    def test_epsilon_defaults_match_formula(self, config):
        eps_p, eps_f = default_purity_factors()
        assert config.epsilon_p == eps_p
        assert config.epsilon_f == eps_f

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"j_coupling_hz": 0.0},
            {"j_coupling_hz": -868.0},
            {"t1_p_s": 0.0},
            {"t1_f_s": -10.0},
            {"offset_p_hz": math.inf},
        ],
    )
    def test_rejects_invalid_system(self, kwargs):
        with pytest.raises(ValueError):
            SpinSystemConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"amplitude_hz": -0.1},
            {"duration_s": -1.0},
            {"detuning_hz": math.nan},
            {"amplitude_hz": math.nan},
            {"amplitude_hz": math.inf},
            {"duration_s": math.nan},
            {"duration_s": math.inf},
            {"detuning_hz": -math.inf},
        ],
    )
    def test_rejects_invalid_drive(self, kwargs):
        with pytest.raises(ValueError):
            DriveConfig(**kwargs)


class TestLarmorFrequencies:
    def test_signs_and_magnitudes(self, config):
        w_p, w_f = larmor_frequencies(config)
        assert w_f < w_p < 0.0
        assert w_p == pytest.approx(
            -2.0 * math.pi * GAMMA_P_HZ_PER_TESLA * 11.4, rel=1e-15
        )


class TestDensityMatrixChecker:
    def test_accepts_thermal(self, config):
        rho = thermal_state(config)
        assert check_density_matrix(rho) is rho

    def test_rejects_defects(self):
        good = np.eye(4, dtype=complex) / 4.0
        with pytest.raises(ValueError):
            check_density_matrix(good[:3, :3])
        bad = good.copy()
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError):
            check_density_matrix(bad)  # not Hermitian
        with pytest.raises(ValueError):
            check_density_matrix(good * 2.0)  # trace 2
        neg = np.diag([0.6, 0.5, -0.05, -0.05]).astype(complex)
        with pytest.raises(ValueError):
            check_density_matrix(neg)
        nan = good.copy()
        nan[2, 2] = math.nan
        with pytest.raises(ValueError):
            check_density_matrix(nan)

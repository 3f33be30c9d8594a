"""Frame Hamiltonians: lab, doubly rotating, four-level, drive-rotating."""

import math
from math import tau

import numpy as np
import pytest

from spinsync import (
    DriveConfig,
    SpinSystemConfig,
    drive_term,
    rotating_drift,
    spin_operator,
)

from oracles import (
    build_four_level_drive_hamiltonian,
    build_lab_hamiltonian,
    build_reduced_rotating_hamiltonian,
    build_rotating_hamiltonian,
    rotating_frame_unitary,
)


def diag_gap(h: np.ndarray, upper: int, lower: int) -> float:
    return float((h[upper, upper] - h[lower, lower]).real)


class TestLabHamiltonian:
    def test_vanishes_with_couplings(self):
        # J must stay positive, so take it to the bottom of the float range
        cfg = SpinSystemConfig(j_coupling_hz=1e-300)
        h = build_lab_hamiltonian(cfg, larmor_p=0.0, larmor_f=0.0)
        assert np.max(np.abs(h)) < 1e-299

    def test_commutes_with_both_z_operators(self, config):
        h = build_lab_hamiltonian(config)
        for species in "PF":
            iz = spin_operator(species, "z")
            assert np.max(np.abs(h @ iz - iz @ h)) == 0.0

    def test_j_splitting_of_p_doublet(self, config):
        h = build_lab_hamiltonian(config)
        gap_42 = diag_gap(h, 0, 2)
        gap_31 = diag_gap(h, 1, 3)
        assert gap_42 - gap_31 == pytest.approx(tau * config.j_coupling_hz, rel=1e-9)

    def test_hermitian_and_diagonal(self, config):
        h = build_lab_hamiltonian(config)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


class TestRotatingHamiltonian:
    def test_resonant_gap_closes(self, config):
        """At offset -J/2 the driven transition has zero frequency."""
        h = build_rotating_hamiltonian(config, DriveConfig(amplitude_hz=0.0))
        assert abs(diag_gap(h, 0, 2)) <= 1e-12
        assert abs(diag_gap(h, 1, 3)) == pytest.approx(
            tau * config.j_coupling_hz, rel=1e-12
        )

    def test_undriven_commutes_with_f_z(self, config):
        h = build_rotating_hamiltonian(config, DriveConfig(amplitude_hz=0.0))
        iz_f = spin_operator("F", "z")
        assert np.max(np.abs(h @ iz_f - iz_f @ h)) == 0.0

    def test_drive_entry_magnitude(self):
        v = drive_term(DriveConfig(amplitude_hz=0.1))
        assert np.max(np.abs(v)) == pytest.approx(math.pi * 0.1, rel=1e-15)
        assert np.max(np.abs(np.diag(v))) == 0.0

    def test_detuning_shifts_driven_gap(self, config):
        drive = DriveConfig(amplitude_hz=0.0, detuning_hz=0.5)
        h = rotating_drift(config, drive)
        assert diag_gap(h, 0, 2) == pytest.approx(tau * 0.5, rel=1e-12)

    def test_block_splitting_matches_reduced_form(self, config):
        # the {|4>, |2>} block of the two-spin Hamiltonian and the
        # reduced form H_R(2 pi Delta, pi Omega) split identically
        for delta, omega in [(0.7, 0.3), (0.0, 0.1), (-2.5, 1.0)]:
            h = build_rotating_hamiltonian(
                config, DriveConfig(amplitude_hz=omega, detuning_hz=delta)
            )
            block = h[np.ix_([0, 2], [0, 2])]
            split = np.diff(np.linalg.eigvalsh(block))[0]
            hr = build_reduced_rotating_hamiltonian(
                tau * delta, math.pi * omega
            )
            reduced_block = hr[np.ix_([0, 2], [0, 2])]
            reduced_split = np.diff(np.linalg.eigvalsh(reduced_block))[0]
            assert abs(split - reduced_split) <= 1e-10


class TestFourLevelDriveHamiltonian:
    FREQS = (0.0, 1.3, -0.7, 2.1)  # by level label 1..4, rad/s

    def test_zero_amplitude_is_static_diagonal(self):
        h0 = build_four_level_drive_hamiltonian(self.FREQS, 0.0, 0.5, 0.0)
        h1 = build_four_level_drive_hamiltonian(self.FREQS, 0.0, 0.5, 3.7)
        np.testing.assert_array_equal(h0, h1)
        assert np.max(np.abs(h0 - np.diag(np.diag(h0)))) == 0.0

    def test_initial_time_coupling_is_real(self):
        h = build_four_level_drive_hamiltonian(self.FREQS, 0.25, 0.5, 0.0)
        assert h[2, 0] == pytest.approx(0.25, abs=1e-15)
        assert h[0, 2] == pytest.approx(0.25, abs=1e-15)

    def test_hermitian_at_sampled_times(self):
        for t in (0.0, 0.1, 1.0, 12.34):
            h = build_four_level_drive_hamiltonian(self.FREQS, 0.25, 0.5, t)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_frame_transformation_yields_reduced_form(self):
        """U H U^dag + i dU/dt U^dag is the static drive-rotating form."""
        delta, omega = 0.3, 0.25
        w1, w2, w3, w4 = self.FREQS
        w_d = (w4 - w2) - delta
        # frame phases are exactly linear in t, so one small-t sample
        # recovers the generator without wrap-around
        t_ref = 0.05
        u_ref = rotating_frame_unitary(self.FREQS, w_d, t_ref)
        k = np.angle(np.diag(u_ref)) / t_ref
        expected = build_reduced_rotating_hamiltonian(delta, omega)
        for t in (0.0, 0.1, 1.0):
            h_t = build_four_level_drive_hamiltonian(self.FREQS, omega, w_d, t)
            u = rotating_frame_unitary(self.FREQS, w_d, t)
            transformed = u @ h_t @ u.conj().T - np.diag(k)
            assert np.max(np.abs(transformed - expected)) <= 1e-12

    def test_frame_unitary_shape(self):
        u0 = rotating_frame_unitary(self.FREQS, 0.5, 0.0)
        np.testing.assert_array_equal(u0, np.eye(4))
        u = rotating_frame_unitary(self.FREQS, 0.5, 2.2)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-14


class TestReducedRotatingHamiltonian:
    def test_zero_arguments_vanish(self):
        h = build_reduced_rotating_hamiltonian(0.0, 0.0)
        assert np.max(np.abs(h)) == 0.0

    def test_resonant_eigenvalues(self):
        h = build_reduced_rotating_hamiltonian(0.0, 0.4)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(h)), [-0.4, 0.0, 0.0, 0.4], atol=1e-13
        )

    def test_detuned_eigenvalues(self):
        h = build_reduced_rotating_hamiltonian(1.0, 1.0)
        root = math.sqrt(5.0)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(h)),
            [(1.0 - root) / 2.0, 0.0, 0.0, (1.0 + root) / 2.0],
            atol=1e-12,
        )

    def test_sparsity_pattern(self):
        h = build_reduced_rotating_hamiltonian(0.9, 0.2)
        off = h - np.diag(np.diag(h))
        assert np.count_nonzero(off) == 2
        assert np.count_nonzero(np.diag(h)) == 1

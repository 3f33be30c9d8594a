"""Vectorized master-equation engine: generator, propagation, steady state."""

import math
import re

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from spinsync import (
    SYNC_COEFFICIENT,
    AffineLiouvillian,
    DriveConfig,
    SpinSystemConfig,
    build_affine_liouvillian,
    build_jump_operators,
    build_l0,
    build_liouvillian,
    build_lv,
    devectorize,
    propagate,
    run_amplitude_sweep,
    run_arnold_tongue,
    run_limit_cycle,
    spectral_report,
    spin_operator,
    steady_state,
    thermal_state,
    vectorize,
)
from spinsync.system import JumpOperator
from spinsync.experiments import (
    AMPLITUDE_SWEEP_AXIS,
    ARNOLD_DETUNING_AXIS,
    ARNOLD_OMEGA_AXIS,
    linear_axis,
    log_axis,
)
from spinsync import liouville
from spinsync.system import drive_term, rotating_drift
from spinsync.liouville import (
    _AUGMENT,
    _FROM_REAL,
    _KEEP,
    _TO_REAL,
    DEGENERACY_RATIO,
    RESIDUAL_RTOL,
    _density,
    _expm,
    _generator_floor,
    _propagate,
    _real_generator,
    _residual,
    _steady_signal,
)

from conftest import random_density
from oracles import (
    PROPAGATE_BOUND,
    STEADY_BOUND,
    STEADY_TEST_SYSTEMS,
    STRONG_PROPAGATE_BOUND,
    TONGUE_TEST_GRIDS,
    WEAK_PROPAGATE_BOUND,
    build_reduced_rotating_hamiltonian,
    inverse_degeneracy_bound,
    kron_affine_liouvillian,
    kron_l0,
    mp_decay_floor,
    propagated_tongue_rows,
    singular_values,
)

EPS = np.finfo(float).eps
# The engine sets rho11 = tr(rho0) minus the other populations, so the
# trace moves only by the rounding of that sum and of tr(rho0) itself.
TRACE_ULPS = 4 * EPS


def master_equation_rhs(rho, h, jump_matrices):
    """Matrix-form right side, written independently of the vectorization."""
    out = -1j * (h @ rho - rho @ h)
    for o in jump_matrices:
        odo = o.conj().T @ o
        out += o @ rho @ o.conj().T - 0.5 * (odo @ rho + rho @ odo)
    return out


def hermitian_basis():
    mats = []
    for i in range(4):
        e = np.zeros((4, 4), dtype=complex)
        e[i, i] = 1.0
        mats.append(e)
    for i in range(4):
        for j in range(i + 1, 4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = e[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(e)
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = -1j / math.sqrt(2.0)
            e[j, i] = +1j / math.sqrt(2.0)
            mats.append(e)
    return mats


@pytest.fixture(scope="module")
def driven():
    """Default system under the reference drive, with its generator."""
    config = SpinSystemConfig()
    drive = DriveConfig(amplitude_hz=0.1, detuning_hz=0.0)
    return config, drive, build_liouvillian(config, drive)


class TestVectorization:
    def test_diagonal_positions(self):
        v = vectorize(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert list(v[[0, 5, 10, 15]].real) == [1.0, 2.0, 3.0, 4.0]
        mask = np.ones(16, dtype=bool)
        mask[[0, 5, 10, 15]] = False
        assert np.max(np.abs(v[mask])) == 0.0

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            np.testing.assert_array_equal(devectorize(vectorize(rho)), rho)

    def test_kronecker_identity(self, rng):
        # column stacking turns B rho C into (C^T kron B) vec(rho)
        for _ in range(20):
            b, rho, c = (
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                for _ in range(3)
            )
            direct = vectorize(b @ rho @ c)
            kron = np.kron(c.T, b) @ vectorize(rho)
            assert np.max(np.abs(direct - kron)) < 1e-13

    def test_trace_functional(self, rng):
        rho = random_density(rng)
        bra_identity = vectorize(np.eye(4)).conj()
        assert bra_identity @ vectorize(rho) == pytest.approx(rho.trace())

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            vectorize(np.eye(3))
        with pytest.raises(ValueError):
            devectorize(np.zeros(15, dtype=complex))


class TestBuildL0:
    def test_empty_generator_is_zero(self):
        l0 = build_l0(np.zeros((4, 4), dtype=complex), [])
        assert np.max(np.abs(l0)) == 0.0

    def test_thermal_state_is_stationary(self, config):
        h0 = rotating_drift(config, DriveConfig(amplitude_hz=0.0))
        l0 = build_l0(h0, build_jump_operators(config))
        drift = np.linalg.norm(l0 @ vectorize(thermal_state(config)))
        assert drift < 1e-10

    def test_matches_matrix_form_oracle(self, config, rng):
        h0 = rotating_drift(config, DriveConfig(amplitude_hz=0.0, detuning_hz=0.4))
        jumps = build_jump_operators(config)
        l0 = build_l0(h0, jumps)
        mats = [j.matrix for j in jumps]
        for _ in range(20):
            rho = random_density(rng)
            direct = master_equation_rhs(rho, h0, mats)
            assert np.max(np.abs(devectorize(l0 @ vectorize(rho)) - direct)) < 1e-12

    def test_equals_kron_assembly_bit_for_bit(self, rng):
        """One broadcast product per term family over the stacked jump
        operators makes the np.kron products, added in the same order:
        random dense Hermitian drifts with 0 to 9 dense jump operators."""
        for count in list(range(10)) * 3:
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = h + h.conj().T
            mats = [
                rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                for _ in range(count)
            ]
            jumps = [JumpOperator(m, "P", "up", 1, 3) for m in mats]
            l0 = build_l0(h, jumps)
            assert l0.tobytes() == kron_l0(h, mats).tobytes()

    def test_rejects_non_hermitian_drift(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(ValueError):
            build_l0(h, [])

    def test_tolerated_asymmetry_is_symmetrized(self, config, rng):
        """A drift within the Hermiticity tolerance builds from its exact
        Hermitian part, so propagate's exact checks accept the generator."""
        h = rotating_drift(config, DriveConfig(amplitude_hz=0.0))
        h[0, 2] += 1e-14
        jumps = build_jump_operators(config)
        l0 = build_l0(h, jumps)
        np.testing.assert_array_equal(l0, build_l0(0.5 * (h + h.conj().T), jumps))
        propagate(l0, random_density(rng), 1.0)


class TestBuildLV:
    def test_zero_drive_is_zero(self):
        assert np.max(np.abs(build_lv(np.zeros((4, 4), dtype=complex)))) == 0.0

    def test_identity_state_is_annihilated(self):
        v = build_reduced_rotating_hamiltonian(0.0, 0.4)
        lv = build_lv(v)
        assert np.max(np.abs(lv @ vectorize(np.eye(4) / 4.0))) < 1e-15

    def test_matches_commutator_oracle(self, rng):
        v = drive_term(DriveConfig(amplitude_hz=0.37))
        lv = build_lv(v)
        for _ in range(20):
            rho = random_density(rng)
            residual = devectorize(lv @ vectorize(rho)) + 1j * (v @ rho - rho @ v)
            assert np.max(np.abs(residual)) < 1e-13

    def test_rejects_non_hermitian_drive(self):
        v = np.zeros((4, 4), dtype=complex)
        v[2, 0] = 1j
        with pytest.raises(ValueError):
            build_lv(v)


class TestAffineLiouvillian:
    def test_agrees_with_direct_assembly(self, config):
        """base + delta L_delta + Omega L_Omega differs from building each
        generator from its own Hamiltonians only by rounding."""
        omegas = (0.0, 0.01, 0.126, 1.0, 1e3)
        deltas = (-3.0, -0.35, 0.0, 0.7, 3.0)
        stack = build_affine_liouvillian(config).at(
            np.array(omegas)[:, None], np.array(deltas)
        )
        assert stack.shape == (5, 5, 16, 16)
        jumps = build_jump_operators(config)
        eps = np.finfo(float).eps
        for i, omega in enumerate(omegas):
            for j, delta in enumerate(deltas):
                drive = DriveConfig(amplitude_hz=omega, detuning_hz=delta)
                direct = build_l0(rotating_drift(config, drive), jumps) + build_lv(
                    drive_term(drive)
                )
                bound = 4.0 * eps * np.linalg.norm(direct, 1)
                assert np.max(np.abs(stack[i, j] - direct)) <= bound

    def test_terms_equal_kron_assembly_bit_for_bit(self, rng):
        """All three terms equal the np.kron assembly, bit for bit, on the
        default system and 100 random ones."""
        configs = [SpinSystemConfig()] + [
            SpinSystemConfig(
                j_coupling_hz=rng.uniform(1.0, 2000.0),
                offset_f_hz=rng.uniform(-50.0, 50.0),
                t1_p_s=10.0 ** rng.uniform(-1.0, 2.0),
                t1_f_s=10.0 ** rng.uniform(-1.0, 2.0),
                epsilon_p=rng.uniform(0.0, 1e-3),
                epsilon_f=rng.uniform(0.0, 1e-3),
            )
            for _ in range(100)
        ]
        for config in configs:
            terms = build_affine_liouvillian(config)
            expected = kron_affine_liouvillian(config)
            for name in ("base", "per_detuning", "per_amplitude"):
                got, want = getattr(terms, name), getattr(expected, name)
                assert got.tobytes() == want.tobytes(), name

    def test_real_terms_sum_to_the_mapped_generator(self, config, rng):
        """The map to real coordinates is linear and each of its entries
        takes the real or imaginary part of one sum of conjugate entries,
        so the mapped terms summed in ``at``'s order equal the mapped sum
        bit for bit: on both default sweeps and on 500 random drives."""
        terms = build_affine_liouvillian(config)
        omegas = log_axis(*ARNOLD_OMEGA_AXIS)
        detunings = linear_axis(*ARNOLD_DETUNING_AXIS)
        random = 10.0 ** rng.uniform(-3.5, 3.0, 500), rng.uniform(-5.0, 5.0, 500)
        amplitudes = log_axis(*AMPLITUDE_SWEEP_AXIS)
        for drive in ((omegas[:, None], detunings), (amplitudes, 0.0), random):
            mapped = _real_generator(terms.at(*drive))
            for got, want in zip(blocks_at(terms, *drive), mapped):
                np.testing.assert_array_equal(got, want)

    def test_real_terms_are_checked(self, config):
        """The real terms are mapped with the generator's checks, once per
        system: a term that breaks Hermiticity is rejected there."""
        terms = build_affine_liouvillian(config)
        broken = terms.per_detuning.copy()
        broken[8, 8] += 1e-12j
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            AffineLiouvillian(terms.base, broken, terms.per_amplitude)._blocks


def blocks_at(terms: AffineLiouvillian, *drive) -> tuple[np.ndarray, np.ndarray]:
    """The real blocks (g0, b) of a system's generator at a drive."""
    return tuple(block.at(*drive) for block in terms._blocks)


def _terms_and_blocks(terms: AffineLiouvillian) -> dict:
    names = ("base", "per_detuning", "per_amplitude")
    return {
        **{name: getattr(terms, name) for name in names},
        **{
            f"_blocks[{k}].{name}": getattr(block, name)
            for k, block in enumerate(terms._blocks)
            for name in names
        },
    }


class TestSharedTerms:
    """build_affine_liouvillian builds a system's terms once per process
    and shares them read-only."""

    def test_equal_configs_share_one_build(self):
        first = build_affine_liouvillian(SpinSystemConfig(t1_f_s=3.0))
        assert build_affine_liouvillian(SpinSystemConfig(t1_f_s=3.0)) is first
        assert build_affine_liouvillian(SpinSystemConfig(t1_f_s=4.0)) is not first
        again = build_affine_liouvillian(SpinSystemConfig(t1_f_s=3.0))
        assert first._blocks is again._blocks

    def test_every_shared_array_is_read_only(self, config):
        for name, term in _terms_and_blocks(build_affine_liouvillian(config)).items():
            with pytest.raises(ValueError, match="read-only"):
                term[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                term += 0.0
            with pytest.raises(ValueError, match="read-only"):
                np.multiply(term, 1.0, out=term)

    @pytest.mark.parametrize(
        "pair",
        [
            ({"offset_f_hz": 0.0}, {"offset_f_hz": -0.0}),
            ({"j_coupling_hz": 868}, {"j_coupling_hz": 868.0}),
            # equal configs whose builds differ in the last bits
            ({"j_coupling_hz": np.float32(868.1)},
             {"j_coupling_hz": float(np.float32(868.1))}),
        ],
    )
    def test_shared_terms_equal_an_uncached_build(self, pair):
        """Configs that compare equal still get the bits of their own build,
        sign bits included, whichever of them was built first."""
        configs = [SpinSystemConfig(**kwargs) for kwargs in pair]
        assert configs[0] == configs[1]
        for order in (configs, configs[::-1]):
            liouville._affine_terms.cache_clear()
            for system in order:
                shared = _terms_and_blocks(build_affine_liouvillian(system))
                fresh = _terms_and_blocks(
                    liouville._affine_terms.__wrapped__(repr(system), system)
                )
                for name, term in shared.items():
                    assert term.tobytes() == fresh[name].tobytes(), name


class TestPropagate:
    def test_zero_time_is_identity(self, driven, rng):
        _, _, lv = driven
        rho = random_density(rng)
        np.testing.assert_array_equal(propagate(lv, rho, 0.0), rho)

    def test_zero_time_on_overflowing_blocks_is_identity(self, config, rng):
        """Cells with t = 0 hold a rho0 with support on both coherence-order
        blocks, with no warning, even where both blocks overflow: e^0 = I."""
        g0, b = (block.at(1e308) for block in build_affine_liouvillian(config)._blocks)
        assert not (np.isfinite(g0).all() or np.isfinite(b).all())
        rho = random_density(rng)
        np.testing.assert_array_equal(_propagate(g0, b, rho, [0.0, 0.0]), [rho, rho])
        with pytest.raises(ValueError, match="overflows"):
            _propagate(g0, b, rho, [0.0, 1.0])

    def test_thermal_state_stays_put(self, config):
        """The thermal state is the undriven fixed point; only rebuilding
        the populations as 1/4 + deviation rounds, at any time."""
        lv = build_liouvillian(config, DriveConfig(amplitude_hz=0.0))
        rho_eq = thermal_state(config)
        for t in (100.0, 1e7):
            assert np.max(np.abs(propagate(lv, rho_eq, t) - rho_eq)) <= 4 * EPS

    def test_against_adaptive_integrator(self, driven, rng):
        """One second of driven evolution vs an independent ODE solve, to
        the oracle's measured floor times 2.

        The right side is linear, so it is integrated as the matrix whose
        columns are the matrix-form right side of the 16 basis matrices:
        the same oracle, built without the library's Kronecker assembly,
        at one matmul per evaluation.  The oracle is SciPy's DOP853 at
        rtol 1e-13, atol 1e-15.  It misses by 7.3e-13, all on rho31
        (|rho31| = 1.7e-9, turning at J), and the miss follows atol
        (5.7e-10 at rtol 1e-10, atol 1e-12; 7.3e-15 at 2.3e-14, 1e-17), so
        it is the integrator's.  rho42 (1.6e-6) agrees to 1.3e-16.
        """
        config, _, _ = driven
        drive = DriveConfig(amplitude_hz=0.3, detuning_hz=0.7)
        lv = build_liouvillian(config, drive)
        h = rotating_drift(config, drive) + drive_term(drive)
        mats = [j.matrix for j in build_jump_operators(config)]
        rho0 = thermal_state(config)
        m = np.stack(
            [master_equation_rhs(e.reshape(4, 4), h, mats).reshape(-1)
             for e in np.eye(16, dtype=complex)],
            axis=1,
        )
        rho = random_density(rng)
        direct = master_equation_rhs(rho, h, mats)
        # |entries| <= ||m||_inf for a density, and each side rounds a few
        # times (worst seen 0.39 eps ||m||_inf over 2000 densities)
        bound = 4 * EPS * np.abs(m).sum(axis=1).max()
        assert np.max(np.abs((m @ rho.reshape(-1)).reshape(4, 4) - direct)) <= bound

        sol = scipy.integrate.solve_ivp(
            lambda _, y: m @ y,
            (0.0, 1.0),
            rho0.reshape(-1),
            method="DOP853",
            rtol=1e-13,
            atol=1e-15,
        )
        assert sol.success
        oracle = sol.y[:, -1].reshape(4, 4)
        assert np.max(np.abs(propagate(lv, rho0, 1.0) - oracle)) < 2 * 7.3e-13

    def test_semigroup_property(self, driven, rng):
        """e^{2.3 L} e^{0.7 L} rho = e^{3 L} rho, to a measured floor times 9:
        the largest entry error is 5.1e-14 on this density and at most
        1.13e-13 over 200 Wishart densities (random_density with
        default_rng(1)) under the same drive."""
        _, _, lv = driven
        rho = random_density(rng)
        two_step = propagate(lv, propagate(lv, rho, 0.7), 2.3)
        one_step = propagate(lv, rho, 3.0)
        assert np.max(np.abs(two_step - one_step)) < 9 * 1.13e-13

    def test_rejects_negative_time_and_bad_shape(self, driven, rng):
        _, _, lv = driven
        rho = random_density(rng)
        with pytest.raises(ValueError):
            propagate(lv, rho, -1e-9)
        for bad in (-1e-9, math.nan, math.inf):
            with pytest.raises(ValueError, match="non-negative"):
                propagate(lv, rho, [1.0, bad, 0.0])
        with pytest.raises(ValueError):
            propagate(lv, rho[:3, :3], 1.0)

    def test_duration_array_matches_scalar_calls(self, driven, rng):
        """Durations broadcast against the generator stack; each cell equals
        its own scalar call bit for bit, and cells with t = 0 hold rho0
        exactly.  A random density evolves on both coherence-order blocks."""
        _, _, lv = driven
        rho = random_density(rng)
        ts = np.array([0.05, 0.0, 1.0, 100.0, 1e4, 1e7, 0.0])
        states = propagate(lv, rho, ts)
        assert states.shape == (7, 4, 4)
        for t, state in zip(ts, states):
            np.testing.assert_array_equal(state, propagate(lv, rho, t))
        np.testing.assert_array_equal(states[ts == 0.0], [rho, rho])
        stack = np.stack([lv, 0.5 * lv])
        grid = propagate(stack, rho, np.array([[0.0], [3.0]]))
        assert grid.shape == (2, 2, 4, 4)
        np.testing.assert_array_equal(grid[0], [rho, rho])
        for k, generator in enumerate(stack):
            np.testing.assert_array_equal(grid[1, k], propagate(generator, rho, 3.0))

    def test_both_blocks_match_full_expm(self, config, rng):
        """Random densities have support on both coherence-order blocks;
        the engine matches expm of the 16x16 generator.  Each side's expm
        has backward error below eps (Al-Mohy & Higham 2009), carried
        forward by about ||L t||_1; the worst seen is 1.5 eps ||L t||_1."""
        for _ in range(5):
            rho0 = random_density(rng)
            assert abs(rho0[0, 1]) > 0.0 and abs(rho0[0, 2]) > 0.0
            for amplitude, detuning in ((0.1, 0.0), (0.3, 0.7), (1.0, -2.0)):
                lv = build_liouvillian(
                    config, DriveConfig(amplitude_hz=amplitude, detuning_hz=detuning)
                )
                for t in (0.1, 1.0, 10.0):
                    full = devectorize(scipy.linalg.expm(lv * t) @ vectorize(rho0))
                    bound = 16 * EPS * np.linalg.norm(lv * t, 1)
                    assert np.max(np.abs(propagate(lv, rho0, t) - full)) <= bound

    def test_rejects_non_hermitian_state(self, driven, rng):
        """A state is one real coordinate vector, so a matrix that is not
        exactly Hermitian is refused, at any t and for a stack too, naming
        its imaginary residue: for i h that is the largest |real
        coordinate| of h, exactly."""
        _, _, lv = driven
        for _ in range(3):
            h = random_density(rng)
            residue = np.abs((_TO_REAL @ vectorize(h)).real).max()
            message = re.escape(f"imaginary residue {residue:.3e}")
            with pytest.raises(ValueError, match=message):
                propagate(lv, 1j * h, 2.0)
            general = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for t in (0.0, [1.0, 2.0]):
                with pytest.raises(ValueError, match="not Hermitian: imaginary"):
                    propagate(np.stack([lv, lv]), general, t)

    def test_rejects_generator_coupling_the_blocks(self, driven, rng):
        """A drive on the F spin changes F-spin coherence order; the
        engine names the coupling and, for a stack, the cell."""
        _, _, lv = driven
        rho = random_density(rng)
        flip = build_lv(2.0 * math.pi * 0.01 * spin_operator("F", "x"))
        with pytest.raises(ValueError, match="couples the F-spin coherence-order"):
            propagate(lv + flip, rho, 1.0)
        stack = np.stack([lv, lv + flip, lv])
        with pytest.raises(ValueError, match=r"worst cell \(1,\)"):
            propagate(stack, rho, 1.0)

    def test_rejects_generator_breaking_hermiticity(self, driven, rng):
        _, _, lv = driven
        rho = random_density(rng)
        broken = lv.copy()
        broken[8, 8] += 1e-12j  # rho42's own rate, without its conjugate's
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            propagate(broken, rho, 1.0)
        with pytest.raises(ValueError, match=r"worst cell \(0, 2\)"):
            propagate(np.stack([[lv, lv, broken]]), rho, 0.0)


def dissipative_generator(rng, norm: float) -> np.ndarray:
    """Random real 8x8 generator of 1-norm ``norm``: a rotation plus a
    damping of rate at most 10, so exp(A) stays of order 1 at any norm."""
    b, c = rng.normal(size=(8, 8)), rng.normal(size=(8, 8))
    rotation = b - b.T
    damping = c @ c.T
    a = rotation * (norm / np.linalg.norm(rotation, 1))
    a -= rng.uniform(0.01, 1.0) * min(norm, 10.0) * damping / np.linalg.norm(damping, 1)
    return a * (norm / np.linalg.norm(a, 1))


def high_precision_expm(a: np.ndarray) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


class TestExpm:
    def test_against_high_precision(self, rng):
        """1-norms from 1e-3 to 1e6 take s = 0 to 18 squarings.  The error
        against a 40-digit expm is at most 0.5 eps max(1, ||A||_1) over
        100 such matrices (the condition of exp grows with ||A||)."""
        norms = np.logspace(-3.0, 6.0, 10)
        for _ in range(2):
            stack = np.stack([dissipative_generator(rng, n) for n in norms])
            result = _expm(stack)
            for a, e, norm in zip(stack, result, norms):
                error = np.max(np.abs(e - high_precision_expm(a)))
                assert error <= 5 * EPS * max(1.0, norm)

    def test_rejects_non_finite_matrix(self):
        """Its 1-norm check is the one finiteness check on A: a non-finite
        entry makes the norm non-finite too."""
        for bad in (np.inf, np.nan):
            a = np.zeros((2, 8, 8))
            a[1, 3, 4] = bad
            with pytest.raises(ValueError, match="^propagation overflows: "):
                _expm(a)

    def test_zero_matrix_is_identity(self):
        np.testing.assert_array_equal(_expm(np.zeros((8, 8))), np.eye(8))
        np.testing.assert_array_equal(
            _expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4))
        )

    def test_mixed_scalings_match_single_calls(self, rng):
        """Cells needing 0 to 18 squarings share the common ones and take
        the rest under a mask; each equals its own call bit for bit."""
        norms = rng.permutation(np.logspace(-3.0, 6.0, 12))
        stack = np.stack([dissipative_generator(rng, n) for n in norms]).reshape(
            3, 4, 8, 8
        )
        result = _expm(stack)
        for cell in np.ndindex(3, 4):
            np.testing.assert_array_equal(result[cell], _expm(stack[cell]))

    def test_trace_row_is_exact_on_default_tongue(self, config):
        """The augmented generator's trace row is 0, so D = R - I keeps it
        exactly 0 through every squaring, and exp keeps tr fixed: the row
        is exactly e_7 on all 861 default-tongue cells up to 1e7 s (squaring
        R itself moves its (7, 7) entry by up to 1.5e-11 at 100 s)."""
        g0, _ = _real_generator(build_affine_liouvillian(config).at(
            np.logspace(-2.0, 0.0, 21)[:, None], np.linspace(-3.0, 3.0, 41)
        ))
        aug = np.zeros(g0.shape[:-2] + (8, 8))
        aug[..., :7, :] = g0[..., _KEEP, :] @ _AUGMENT
        e7 = np.eye(8)[7]
        for t in (0.05, 1.0, 100.0, 1e4, 1e7):
            rows = _expm(aug * t)[..., 7, :]
            np.testing.assert_array_equal(rows, np.broadcast_to(e7, rows.shape))


class TestSteadyState:
    def test_driven_matches_long_time_limit(self, driven):
        config, _, lv = driven
        rho_ss = steady_state(lv)
        rho_long = propagate(lv, thermal_state(config), 1000.0)
        # both solvers sit within a few ulp of the exact state (see the
        # oracle tests); the worst entry seen over 16 drives is 0.9 eps
        assert np.max(np.abs(rho_ss - rho_long)) <= 4 * EPS

    def test_residual_is_defining_property(self, driven):
        _, _, lv = driven
        rho_ss = steady_state(lv)
        residual = np.linalg.norm(lv @ vectorize(rho_ss))
        assert RESIDUAL_RTOL == 16 * np.finfo(float).eps
        assert residual < RESIDUAL_RTOL * np.linalg.norm(lv, 2)

    def test_driven_coherence_dominates(self, driven):
        # the driven pair holds the only sizable coherence; a faint
        # spectator coherence rho31 of order 4e-10 survives at this
        # drive, three orders of magnitude below rho42
        _, _, lv = driven
        rho_ss = steady_state(lv)
        coherence = abs(rho_ss[0, 2])
        others = [
            abs(rho_ss[i, j])
            for i in range(4)
            for j in range(i + 1, 4)
            if (i, j) != (0, 2)
        ]
        assert coherence > 1e-6
        assert max(others) < 1e-9
        assert coherence > 1e3 * max(others)

    def test_degenerate_kernel_is_rejected(self):
        # pure diagonal Hamiltonian with no jumps leaves every diagonal
        # state stationary
        h = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            steady_state(build_l0(h, []))

    def test_degenerate_order_one_block_is_rejected(self, driven):
        """Zeroing the columns of rho12 and rho21, an order +-1 pair, makes
        Re and Im of rho12 stationary beside the unique order-0 state.
        Only the order +-1 block's singular values show the degeneracy;
        the solve itself would still meet its residual bound."""
        _, _, lv = driven
        degenerate = lv.copy()
        degenerate[:, [4, 1]] = 0.0  # vec indices of rho[0, 1] and rho[1, 0]
        with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
            steady_state(degenerate)
        with pytest.raises(np.linalg.LinAlgError, match=r"worst cell \(2,\)"):
            steady_state(np.stack([lv, lv, degenerate]))

    def test_rejects_generator_coupling_the_blocks(self, driven):
        """The solve takes the generator to propagate's real coordinates and
        rejects what propagate rejects, naming a stack's worst cell."""
        _, _, lv = driven
        flip = build_lv(2.0 * math.pi * 0.01 * spin_operator("F", "x"))
        with pytest.raises(ValueError, match="couples the F-spin coherence-order"):
            steady_state(lv + flip)
        with pytest.raises(ValueError, match=r"worst cell \(1,\)"):
            steady_state(np.stack([lv, lv + flip, lv]))

    def test_rejects_generator_breaking_hermiticity(self, driven):
        _, _, lv = driven
        broken = lv.copy()
        broken[8, 8] += 1e-12j  # rho42's own rate, without its conjugate's
        with pytest.raises(ValueError, match="does not preserve Hermiticity"):
            steady_state(broken)
        with pytest.raises(ValueError, match=r"worst cell \(0, 2\)"):
            steady_state(np.stack([[lv, lv, broken]]))

    def test_block_singular_values_match_full_svd(self, config, rng):
        """The scaled real blocks are unitarily similar to L, so their
        singular values are L's.  Each LAPACK SVD has backward error about
        n eps ||A||_F <= n^1.5 eps ||A||_2 (64 eps for L, 23 for a block),
        and forming the scaled blocks rounds each entry up to three times
        (||.||_2 <= ||.||_F <= 4 sigma_0, so 12 eps): 100 eps sigma_0 in
        all; the worst seen over 5000 random drives is 51 eps sigma_0."""
        omegas = np.concatenate([[0.0], 10.0 ** rng.uniform(-3.0, 3.0, 400)])
        detunings = rng.uniform(-5.0, 5.0, omegas.size)
        stack = build_affine_liouvillian(config).at(omegas, detunings)
        full = np.linalg.svd(stack, compute_uv=False)
        blocks = singular_values(*_real_generator(stack))
        gap = np.max(np.abs(blocks - full), axis=-1)
        assert np.all(gap <= 100 * EPS * full[..., 0])

    def test_certified_bound_never_exceeds_svd_ratio(self, config, rng):
        """The degeneracy check's bound, the system's floor on sigma_-2 over
        ||L||_F, is a lower bound on sigma_-2 / sigma_0, so DEGENERACY_RATIO
        rejects at least what the SVD ratio would.  Over 5000 random drives
        it is 0.40-0.50 of the SVD ratio: the floor is within 2e-5 of
        sigma_-2, and ||L||_F >= 2 sigma_0 here."""
        omegas = np.concatenate([[0.0], 10.0 ** rng.uniform(-3.5, 3.0, 4999)])
        detunings = rng.uniform(-5.0, 5.0, omegas.size)
        terms = build_affine_liouvillian(config)
        blocks = blocks_at(terms, omegas, detunings)
        _, bound, _ = _steady_signal(*blocks, terms._floor.at(omegas, detunings))
        s = singular_values(*blocks)
        assert np.all(bound <= s[..., -2] / s[..., 0])

    def test_near_degenerate_family_is_rejected(self, config):
        """Scaling every jump rate by e -> 0 leaves the Hamiltonian part,
        whose stationary subspace is degenerate: wherever the SVD ratio
        falls below DEGENERACY_RATIO the solve raises, naming the cell."""
        jumps = build_jump_operators(config)
        dissipator = build_l0(np.zeros((4, 4)), jumps)
        scales = np.logspace(-12.0, 0.0, 49)
        for amplitude, detuning in ((0.0, 0.0), (0.1, 0.0), (1.0, -2.0), (30.0, 3.0)):
            drive = DriveConfig(amplitude_hz=amplitude, detuning_hz=detuning)
            coherent = build_l0(rotating_drift(config, drive) + drive_term(drive), [])
            stack = coherent + scales[:, None, None] * dissipator
            s = singular_values(*_real_generator(stack))
            ratio = s[..., -2] / s[..., 0]
            assert ratio[0] < DEGENERACY_RATIO <= ratio[-1]
            for lv, r in zip(stack, ratio):
                if r < DEGENERACY_RATIO:
                    with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
                        steady_state(lv)
            steady_state(stack[-1])
            with pytest.raises(np.linalg.LinAlgError, match=r"worst cell \(0,\)"):
                steady_state(stack)

    def test_check_margins_on_sweeps_and_bench_ranges(self, config):
        """Every cell of both default sweeps and of the box the benchmark
        draws its inputs from (amplitude 0 and 3e-4 to 1e3 Hz, detuning
        +-4 Hz) clears DEGENERACY_RATIO by more than two decades (the
        least bound is 3.0e-5), and ||L||_F / 4 <= ||L||_2 there (the ratio
        ||L||_F / ||L||_2 is 2.0-2.5), so neither check is looser than the
        SVD's.  One row at a time keeps the 16x16 stacks small."""
        omegas = log_axis(*ARNOLD_OMEGA_AXIS)
        detunings = linear_axis(*ARNOLD_DETUNING_AXIS)
        box = np.concatenate([[0.0], np.logspace(np.log10(3e-4), 3.0, 150)])
        terms = build_affine_liouvillian(config)
        rows = [(omega, detunings) for omega in omegas]
        rows += [(log_axis(*AMPLITUDE_SWEEP_AXIS), 0.0)]
        rows += [(omega, np.linspace(-4.0, 4.0, 81)) for omega in box]
        for drive in rows:
            blocks = blocks_at(terms, *drive)
            _, bound, _ = _steady_signal(*blocks, terms._floor.at(*drive))
            s = singular_values(*blocks)
            assert bound.min() >= 100 * DEGENERACY_RATIO
            assert np.all(bound <= s[..., -2] / s[..., 0])
            frobenius = np.linalg.norm(terms.at(*drive), axis=(-2, -1))
            assert np.all(frobenius / 4.0 <= s[..., 0])

    def test_real_residual_equals_16x16_residual(self, config, rng):
        """Scaling the Re/Im coordinates by sqrt(2) makes the real map
        unitary, so ``_residual`` (||S G x||) is ||L vec(rho)|| for any
        order-0 x.  Each side's matrix-vector product rounds by at most
        (n + 2) eps |L| |v| with n = 16 (8 for the real block, plus one
        rounding of mapping L), so they differ by at most 32 eps ||L||_F
        ||vec(rho)||; the worst seen is 0.05 eps ||L||_F for steady states.
        On states far from stationary, dropping the scaling would be off by
        up to sqrt(2)."""
        omegas = np.concatenate([[0.0], 10.0 ** rng.uniform(-3.0, 3.0, 200)])
        stack = build_affine_liouvillian(config).at(
            omegas, rng.uniform(-5.0, 5.0, omegas.size)
        )
        g0, b = _real_generator(stack)
        frobenius = np.linalg.norm(stack, axis=(-2, -1))
        x, _, residual = _steady_signal(g0, b, _generator_floor(g0, b))
        vec = vectorize(_density(x))
        # the kernel's residual is the helper's, bit for bit
        np.testing.assert_array_equal(residual, _residual(g0, x))
        direct = np.linalg.norm((stack @ vec[..., None])[..., 0], axis=-1)
        size = np.linalg.norm(vec, axis=-1)
        assert np.all(np.abs(residual - direct) <= 32 * EPS * frobenius * size)
        # random, far from stationary, order-0 states: the same identity
        x = np.zeros(omegas.shape + (16,))
        x[..., :8] = rng.normal(size=omegas.shape + (8,))
        vec = x @ _FROM_REAL.T
        real = _residual(g0, x[..., :8])
        direct = np.linalg.norm((stack @ vec[..., None])[..., 0], axis=-1)
        size = np.linalg.norm(vec, axis=-1)
        assert np.all(np.abs(real - direct) <= 32 * EPS * frobenius * size)
        assert np.all(direct > 1e-3 * frobenius * size)

    def test_stack_has_unit_trace_and_is_exactly_hermitian(self, config):
        """rho11 is 1 minus the other populations, so the trace is 1 up to
        the rounding of that sum; each coherence and its conjugate come from
        one real pair, so rho is exactly its adjoint; and the order +-1
        coherences, whose block is regular, are exactly 0."""
        omegas = np.concatenate([[0.0], np.logspace(-3.0, 3.0, 13)])
        detunings = np.array([-2.5, 0.0, 0.7])
        states = steady_state(
            build_affine_liouvillian(config).at(omegas[:, None], detunings)
        )
        assert states.shape == (14, 3, 4, 4)
        traces = np.trace(states, axis1=-2, axis2=-1)
        assert np.max(np.abs(traces - 1.0)) <= TRACE_ULPS
        np.testing.assert_array_equal(states, states.conj().swapaxes(-1, -2))
        for i, j in ((0, 1), (0, 3), (1, 2), (2, 3)):
            assert not states[..., i, j].any()


# Systems the steady-state floor is tested on: the default, other couplings
# and offsets, fast and slow relaxation on either spin, large purities.
FLOOR_SYSTEMS = [
    SpinSystemConfig(**kwargs)
    for kwargs in (
        {},
        {"j_coupling_hz": 217.0},
        {"t1_p_s": 7.0},
        {"t1_p_s": 1e3, "t1_f_s": 0.1},
        {"t1_p_s": 0.1, "t1_f_s": 1e3},
        {"j_coupling_hz": 2000.0},
        {"j_coupling_hz": 50.0, "offset_f_hz": 20.0},
        {"epsilon_p": 0.01, "epsilon_f": 0.05},
        {"t1_f_s": 3.0},
        {"j_coupling_hz": 500.0, "t1_p_s": 100.0, "t1_f_s": 100.0},
    )
]


def weighted_frobenius(g0: np.ndarray, b: np.ndarray) -> float:
    """||.||_F of a real 16x16 matrix, given as its two blocks, in the
    unitarily scaled coordinates (the order +-1 block is scaled uniformly)."""
    scaled = g0 * (liouville._SCALE[:8, None] / liouville._SCALE[:8])
    return float(np.sqrt(np.sum(scaled**2) + np.sum(b**2)))


class TestSteadyFloor:
    """The floor on sigma_-2 that certifies a steady state unique: the least
    eigenvalue of -sym(L) on the traceless subspace, in the unitarily scaled
    coordinates, computed once per system from the dissipator."""

    def test_norm_weights_are_exact_powers_of_two(self):
        """||L||_F's weights (S_i / S_j)^2 are 1/2, 1 and 2 exactly: the
        reciprocals of the symmetric part's squares, entry by entry.  The
        residual's weights S_i^2 are 1 and 2 exactly, so ||S x|| of x = e_0 +
        e_4 is sqrt(3) to the bit (sqrt(2)^2 rounds to 2 + 1 ulp)."""
        weight, square = liouville._NORM_WEIGHT, liouville._SYM_SQUARE
        assert np.all(weight * square == 1.0)
        for weights, exact in (
            (weight, {0.5, 1.0, 2.0}), (liouville._SCALE_SQUARED, {1.0, 2.0})
        ):
            assert set(np.unique(weights)) == exact
        x = np.zeros(8)
        x[[0, 4]] = 1.0
        assert liouville._residual(np.eye(8), x) == math.sqrt(3.0)

    def test_drive_terms_are_exactly_skew(self):
        """With S^2 in {1, 2}, S_i^2 G_ij = -S_j^2 G_ji is an exact test:
        both drive terms pass it on every system, so their symmetric parts
        are exact zeros and the floor's drive allowance is rounding alone."""
        square = np.where(np.arange(8) < 4, 1.0, 2.0)[:, None]
        for config in FLOOR_SYSTEMS:
            terms = build_affine_liouvillian(config)
            order_zero, order_one = terms._blocks
            for g0, b in zip(order_zero[1:], order_one[1:]):
                np.testing.assert_array_equal(square * g0, -(square * g0).T)
                np.testing.assert_array_equal(b, -b.T)  # scaled uniformly
            _, spread, frobenius = liouville._decay_spectra(
                np.stack(order_zero[1:]), np.stack(order_one[1:])
            )
            assert not spread.any() and not frobenius.any()
            # the allowance for the sum's rounding alone, up to the norm's own
            _, per_detuning, per_amplitude = terms._floor
            for k, per_hz in ((1, per_detuning), (2, per_amplitude)):
                expected = 2 * EPS * weighted_frobenius(order_zero[k], order_one[k])
                assert per_hz == pytest.approx(expected, rel=16 * EPS, abs=0.0)

    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_eigenvalues_against_high_precision(self, index):
        """lambda_V and lambda_B of the base term against 40-digit
        mpmath.eigsy of the exact scaled blocks, on another traceless basis:
        within the eigvalsh allowance (the worst seen is 4.1e-15 against an
        allowance of 4.0e-12)."""
        order_zero, order_one = build_affine_liouvillian(FLOOR_SYSTEMS[index])._blocks
        g0, b = order_zero.base, order_one.base
        least, _, frobenius = liouville._decay_spectra(g0, b)
        for got, exact in zip(least, mp_decay_floor(g0, b)):
            allowance = liouville._EIGEN_SLACK * frobenius
            assert abs(mpmath.mpf(float(got)) - exact) <= allowance

    @pytest.mark.parametrize("index", [0, 3, 9])
    def test_floor_allows_for_rounding(self, index):
        """The cached floor sits below the exact least eigenvalue by at
        least gamma_3 ||  |base| + |delta D| + |Omega A|  ||_F, the rounding
        of the cell sum, at every drive, weak or strong; the public floor of
        one generator sits below its own exact value.  A floor without its
        allowances fails the first check."""
        terms = build_affine_liouvillian(FLOOR_SYSTEMS[index])
        base = tuple(block.base for block in terms._blocks)
        exact = min(mp_decay_floor(*base))
        gamma3 = 3 * EPS / 2 / (1 - 3 * EPS / 2)
        for omega in (0.0, 1.0, 1e3):
            for delta in (-50.0, 0.0, 4.0):
                total = [
                    np.abs(block.base) + abs(delta) * np.abs(block.per_detuning)
                    + omega * np.abs(block.per_amplitude)
                    for block in terms._blocks
                ]
                rounding = gamma3 * weighted_frobenius(*total)
                floor = terms._floor.at(omega, delta)
                assert mpmath.mpf(float(floor)) <= exact - rounding
        own = liouville._generator_floor(*base)
        assert mpmath.mpf(float(own)) <= exact

    def test_symmetric_drive_term_lowers_floor(self, config):
        """A detuning term with a symmetric part kappa I lowers the floor by
        |delta| kappa, and that floor stays under sigma_-2 where the floor of
        skew terms, which ignores the part, does not."""
        terms = build_affine_liouvillian(config)
        kappa = 0.1
        shifted = AffineLiouvillian(
            terms.base, terms.per_detuning + kappa * np.eye(16), terms.per_amplitude
        )
        floor = shifted._floor
        assert floor.base == terms._floor.base
        allowance = liouville._EIGEN_SLACK * kappa * math.sqrt(15.0) + 2 * EPS * (
            weighted_frobenius(*(block.per_detuning for block in shifted._blocks))
        )
        assert kappa <= floor.per_detuning <= kappa + allowance
        detunings = np.linspace(-5.0, 5.0, 21)
        sigma = singular_values(*blocks_at(shifted, 0.1, detunings))[..., -2]
        assert np.all(floor.at(0.1, detunings) <= sigma)
        assert np.any(terms._floor.at(0.1, detunings) > sigma)

    def test_floor_never_exceeds_gap(self):
        """Every eigenvector of a non-zero eigenvalue is traceless, so its
        decay rate -Re(mu) is at least the floor: the floor never exceeds
        spectral_report's gap, allowing that computed eigenvalue its own
        backward error, 16 eps ||L||_F.  The undriven default gap is
        lambda_V itself, 4.9e-12 above the floor."""
        for config in FLOOR_SYSTEMS:
            terms = build_affine_liouvillian(config)
            for omega in (0.0, 0.01, 0.3, 10.0, 1e3):
                for delta in (-3.0, 0.0, 2.0):
                    lv = terms.at(omega, delta)
                    gap = spectral_report(lv).gap
                    tolerance = 16 * EPS * np.linalg.norm(lv)
                    assert terms._floor.at(omega, delta) <= gap + tolerance

    def test_certifies_no_less_than_inverse_bound(self):
        """On each test system, over the default amplitude axis and 0 Hz,
        the least certified ratio is no lower than that of the block-inverse
        bound it replaced (lowest 3.0e-7 against 2.35e-7, for T1P = 1e3 s
        and T1F = 0.1 s)."""
        omegas = np.concatenate([[0.0], log_axis(*AMPLITUDE_SWEEP_AXIS)])
        for config in FLOOR_SYSTEMS:
            terms = build_affine_liouvillian(config)
            blocks = blocks_at(terms, omegas)
            ratio = _steady_signal(*blocks, terms._floor.at(omegas))[1]
            assert ratio.min() >= inverse_degeneracy_bound(*blocks).min()

    def test_inverse_bound_certifies_where_the_floor_cannot(self, monkeypatch):
        """The floor is 2 pi / max(T1P, T1F) to 2e-5, whatever the drive, so
        with the limits of the steady_state docstring (default J) it alone
        certifies every amplitude up to 1 kHz for max T1 = 3.0e4 s, and no
        drive past 5.76e4 s.  There each cell falls back to the block-inverse
        bound, so a cell is certified exactly where that bound certifies it:
        58 of 62 amplitudes for T1P = 5.8e4 s and for T1P = 1e5 s with T1F =
        10 s, all but the weakest drives, as before the floor."""
        omegas = np.concatenate([[0.0], log_axis(*AMPLITUDE_SWEEP_AXIS)])
        inside = build_affine_liouvillian(SpinSystemConfig(t1_p_s=3.0e4))
        inside._floor  # cached before patching

        def refuse(*args, **kwargs):
            raise AssertionError("a certified cell inverted a block")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "inv", refuse)
            _steady_signal(*blocks_at(inside, omegas), inside._floor.at(omegas))
        for slow in (
            SpinSystemConfig(t1_p_s=5.8e4), SpinSystemConfig(t1_p_s=1e5, t1_f_s=10.0)
        ):
            terms = build_affine_liouvillian(slow)
            g0, b = blocks_at(terms, omegas)
            norms = np.array([weighted_frobenius(*cell) for cell in zip(g0, b)])
            assert np.all(terms._floor.at(omegas) / norms < DEGENERACY_RATIO)
            inverse = inverse_degeneracy_bound(g0, b)
            assert np.sum(inverse >= DEGENERACY_RATIO) == 58
            for k, omega in enumerate(omegas):
                if inverse[k] >= DEGENERACY_RATIO:
                    ratio = _steady_signal(g0[k], b[k], terms._floor.at(omega))[1]
                    assert ratio == pytest.approx(inverse[k], rel=1e-12)
                else:
                    with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
                        _steady_signal(g0[k], b[k], terms._floor.at(omega))

    def test_rejected_where_both_bounds_fail(self):
        """With T1P = T1F = 1e5 s neither the floor nor the block-inverse
        bound certifies any amplitude, so every route raises, naming the
        worst cell of a stack or of the first failing tongue stack."""
        omegas = np.concatenate([[0.0], log_axis(*AMPLITUDE_SWEEP_AXIS)])
        slow = SpinSystemConfig(t1_p_s=1e5, t1_f_s=1e5)
        terms = build_affine_liouvillian(slow)
        g0, b = blocks_at(terms, omegas)
        assert np.all(inverse_degeneracy_bound(g0, b) < DEGENERACY_RATIO)
        for k, omega in enumerate(omegas):
            with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
                _steady_signal(g0[k], b[k], terms._floor.at(omega))
        with pytest.raises(np.linalg.LinAlgError, match=r"worst cell \(61,\)"):
            _steady_signal(g0, b, terms._floor.at(omegas))
        with pytest.raises(np.linalg.LinAlgError, match=r"worst cell \(1, 0\)"):
            run_arnold_tongue(slow, duration_s=None)
        with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
            steady_state(build_liouvillian(slow, DriveConfig(amplitude_hz=0.0)))
        with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
            run_limit_cycle(slow)

    @pytest.mark.parametrize(
        "t1, error, message",
        [
            (1e-200, ValueError, "generator overflows: the drive is too large"),
            (1e200, np.linalg.LinAlgError,
             "stationary subspace is degenerate; steady state ambiguous"),
        ],
        ids=["T1-1e-200", "T1-1e200"],
    )
    def test_extreme_relaxation_times_raise_without_a_warning(self, t1, error, message):
        """At T1P = T1F = 1e-200 s the symmetric parts' Frobenius norm
        overflows, so the floor reads non-finite and every steady route
        raises the overflow; at 1e200 s the floor certifies nothing and the
        block inverses' norms overflow, so the inverse bound reads 0 and
        every route raises the degeneracy.  No RuntimeWarning comes first
        (the suite would raise it): the steady state, the amplitude sweep
        (the first to read the cached floor) and the steady tongue."""
        config = SpinSystemConfig(t1_p_s=t1, t1_f_s=t1)
        grid = [0.1, 1.0], [-1.0, 0.0, 1.0]
        for call, cell in (
            (lambda: steady_state(build_liouvillian(config, DriveConfig())), ""),
            (lambda: run_amplitude_sweep(config, [0.1, 1.0]), " (worst cell (0,))"),
            (lambda: run_arnold_tongue(config, *grid, duration_s=None),
             " (worst cell (0, 0))"),
        ):
            with pytest.raises(error, match=f"^{re.escape(message + cell)}$"):
                call()


@pytest.fixture(scope="module")
def steady_tongue(config):
    return run_arnold_tongue(config, duration_s=None)


def oracle_cells(values: np.ndarray) -> list[tuple[int, int]]:
    """Corners (both detuning edges), resonance at the weakest and the
    middle drive, the strong-drive side peak and the tongue's argmax."""
    top, mid = values.shape[0] - 1, values.shape[1] // 2
    side = int(np.argmax(values[top]))
    assert side != mid
    peak = tuple(int(k) for k in np.unravel_index(np.argmax(values), values.shape))
    cells = [(0, 0), (0, -1), (top, 0), (top, -1), (0, mid), (top // 2, mid)]
    return list(dict.fromkeys(cells + [(top, side), peak]))


def high_precision_max_sync(generator: np.ndarray) -> float:
    """|rho42| / (16 pi^2) from a 40-digit solve of L vec(rho) = 0, with the
    rho44 population row (index 15) replaced by the trace row, a different
    equation from the one the engine replaces."""
    with mpmath.workdps(40):
        a = mpmath.matrix(
            [[mpmath.mpc(z.real, z.imag) for z in row] for row in generator]
        )
        b = mpmath.matrix(16, 1)
        for k in range(16):
            a[15, k] = 1 if k in (0, 5, 10, 15) else 0
        b[15] = 1
        x = mpmath.lu_solve(a, b)
        return float(abs(x[8]) / (16 * mpmath.pi**2))  # vec index of rho[0, 2]


# (i, j, part) of the coherence-order-0 coordinates: rho44, rho33, rho22,
# rho11, then Re and Im of rho42 and of rho31.
ORDER_ZERO = [(i, i, "re") for i in range(4)] + [
    (i, j, part) for i, j in ((0, 2), (1, 3)) for part in ("re", "im")
]


def high_precision_propagated_max_sync(
    generator: np.ndarray, rho0: np.ndarray, t: float
) -> float:
    """|rho42| / (16 pi^2) after time t from a 40-digit mpmath expm of the
    generator's coherence-order-0 real block.  Column b of the block is L
    applied to the Hermitian basis matrix of coordinate b, summed exactly
    at 40 digits; rho0 must have no support outside the block."""
    with mpmath.workdps(40):
        lv = [[mpmath.mpc(z.real, z.imag) for z in row] for row in generator]
        block = mpmath.matrix(8, 8)
        for col, (k, m, part) in enumerate(ORDER_ZERO):
            if k == m:
                basis = {k + 4 * m: 1}
            elif part == "re":
                basis = {k + 4 * m: 1, m + 4 * k: 1}
            else:
                basis = {k + 4 * m: 1j, m + 4 * k: -1j}
            image = [
                mpmath.fsum(lv[u][v] * c for v, c in basis.items()) for u in range(16)
            ]
            for row, (i, j, part_out) in enumerate(ORDER_ZERO):
                z = image[i + 4 * j]
                block[row, col] = z.real if part_out == "re" else z.imag
        x0 = mpmath.matrix(
            [getattr(complex(rho0[i, j]), "real" if p == "re" else "imag")
             for i, j, p in ORDER_ZERO]
        )
        x = mpmath.expm(block * t) * x0
        return float(mpmath.hypot(x[4], x[5]) / (16 * mpmath.pi**2))


class TestSteadyStateOracle:
    def test_tongue_cells_against_high_precision_solve(self, config, steady_tongue):
        """Steady max-sync on the default tongue grid against a 40-digit
        solve of the same float64 generators.  The tongue's pole form lands
        at most 8.0e-16 of the tongue maximum away here (1.15e-15 over all
        861 cells); the per-cell order-0 solve, 3.4e-16 (4.6e-16), and the
        16x16 trace-row solve before it, 1.2e-11."""
        values = steady_tongue.values
        omegas = steady_tongue.axes["omega_hz"]
        deltas = steady_tongue.axes["detuning_hz"]
        assert deltas[values.shape[1] // 2] == 0.0
        for i, j in oracle_cells(values):
            generator = build_liouvillian(
                config, DriveConfig(amplitude_hz=omegas[i], detuning_hz=deltas[j])
            )
            exact = high_precision_max_sync(generator)
            assert abs(values[i, j] - exact) <= STEADY_BOUND * values.max()

    @pytest.mark.parametrize(
        "system", STEADY_TEST_SYSTEMS.values(), ids=STEADY_TEST_SYSTEMS
    )
    @pytest.mark.parametrize(
        "omegas, detunings", TONGUE_TEST_GRIDS.values(), ids=TONGUE_TEST_GRIDS
    )
    def test_pole_form_against_high_precision_solve(self, system, omegas, detunings):
        """The steady tongue in pole form against 40-digit solves of each
        cell's float64 generator, on the oracle cells of each test system
        and grid (the one-cell grid's cell): within STEADY_BOUND of the
        tongue maximum, as the single-drive solve is (at most 1.1e-15 of it
        over all 861 cells of the default tongue, 4.6e-16 for the solve)."""
        config = SpinSystemConfig(**system)
        values = run_arnold_tongue(
            config, omegas_hz=omegas, detunings_hz=detunings, duration_s=None
        ).values
        cells = oracle_cells(values) if values.size > 1 else [(0, 0)]
        for i, j in cells:
            drive = DriveConfig(amplitude_hz=omegas[i], detuning_hz=detunings[j])
            exact = high_precision_max_sync(build_liouvillian(config, drive))
            assert abs(values[i, j] - exact) <= STEADY_BOUND * values.max()


def assert_state_entry_meets_expm(system, bounds, cells):
    """``liouville._state`` driven from the thermal state for each duration
    of ``bounds``, at its cell (i, j) of the strong-wide grid, misses a
    40-digit expm by at most the duration's bound times the maximum of the
    strong-wide tongue at that duration."""
    config = SpinSystemConfig(**system)
    omegas, deltas = TONGUE_TEST_GRIDS["strong-wide"]
    rho0 = thermal_state(config)
    for (t, bound), (i, j) in zip(bounds.items(), cells, strict=True):
        drive = DriveConfig(amplitude_hz=omegas[i], detuning_hz=deltas[j])
        rho = liouville._state(config, omegas[i], deltas[j], t)
        value = SYNC_COEFFICIENT * abs(rho[0, 2])
        exact = high_precision_propagated_max_sync(
            build_liouvillian(config, drive), rho0, t
        )
        scale = run_arnold_tongue(config, omegas, deltas, duration_s=t).values.max()
        assert abs(value - exact) <= bound * scale


class TestPropagateOracle:
    def test_tongue_cells_against_high_precision_expm(self, config):
        """The propagated default tongue (100 s per cell, by the row loop:
        the tongue entry settles these cells on the steady state) against a
        40-digit expm of each cell's exact real block, on the oracle cells
        and on (14, 18), where the 16x16 expm erred most (1.1e-8 of the
        maximum).  The propagator lands at most 1.7e-15 of the tongue
        maximum away here and 4.1e-15 over all 861 cells (SciPy's expm,
        2.3e-13 and 4.2e-13); the settled tongue within STEADY_BOUND."""
        omegas = log_axis(*ARNOLD_OMEGA_AXIS)
        deltas = linear_axis(*ARNOLD_DETUNING_AXIS)
        values = propagated_tongue_rows(config, omegas, deltas, 100.0)
        settled = run_arnold_tongue(config, omegas, deltas, duration_s=100.0).values
        rho0 = thermal_state(config)
        for i, j in oracle_cells(values) + [(14, 18)]:
            generator = build_liouvillian(
                config, DriveConfig(amplitude_hz=omegas[i], detuning_hz=deltas[j])
            )
            exact = high_precision_propagated_max_sync(generator, rho0, 100.0)
            assert abs(values[i, j] - exact) <= PROPAGATE_BOUND * values.max()
            assert abs(settled[i, j] - exact) <= STEADY_BOUND * values.max()

    @pytest.mark.parametrize(
        "system", STEADY_TEST_SYSTEMS.values(), ids=STEADY_TEST_SYSTEMS
    )
    def test_settled_strong_drives_against_high_precision_solve(self, system):
        """At 147 Hz and 1 kHz (the strong-wide grid) the propagator is off
        by up to 4.1e-13 of the maximum, beyond PROPAGATE_BOUND, which was
        measured on drives to 1 Hz.  At 100 s, exp(-floor t) ~ 5e-28, so
        the exact driven cell is the exact steady one: the settled tongue
        meets a 40-digit solve within STEADY_BOUND at the cell where it and
        the row loop differ most (measured 1.3e-16 of the maximum on the
        default system, where the row loop misses by 2.3e-13)."""
        config = SpinSystemConfig(**system)
        omegas, deltas = TONGUE_TEST_GRIDS["strong-wide"]
        values = run_arnold_tongue(config, omegas, deltas, duration_s=100.0).values
        gap = np.abs(values - propagated_tongue_rows(config, omegas, deltas, 100.0))
        i, j = np.unravel_index(np.argmax(gap), gap.shape)
        drive = DriveConfig(amplitude_hz=omegas[i], detuning_hz=deltas[j])
        exact = high_precision_max_sync(build_liouvillian(config, drive))
        assert abs(values[i, j] - exact) <= STEADY_BOUND * values.max()

    @pytest.mark.parametrize(
        "system, cells",
        [
            (STEADY_TEST_SYSTEMS["default"], [(6, 9), (5, 10), (6, 1)]),
            (STEADY_TEST_SYSTEMS["J217"], [(6, 7), (5, 10), (5, 1)]),
            (STEADY_TEST_SYSTEMS["T1P7"], [(6, 1), (5, 10), (5, 0)]),
        ],
        ids=STEADY_TEST_SYSTEMS,
    )
    def test_strong_drives_against_high_precision_expm(self, system, cells):
        """The state entry's driven route at 1, 10 and 100 s against a
        40-digit expm, each at the cell of the strong-wide grid's 147 Hz and
        1 kHz rows where it misses most (``cells``, in that order): within
        STRONG_PROPAGATE_BOUND of the maximum of the tongue at that
        duration.  PROPAGATE_BOUND, measured at 100 s on drives to 1 Hz,
        does not hold here (up to 4.1e-13 at 100 s)."""
        assert_state_entry_meets_expm(system, STRONG_PROPAGATE_BOUND, cells)

    @pytest.mark.parametrize(
        "system, cells",
        [
            (STEADY_TEST_SYSTEMS["default"], [(3, 5), (0, 5)]),
            (STEADY_TEST_SYSTEMS["J217"], [(3, 5), (0, 5)]),
            (STEADY_TEST_SYSTEMS["T1P7"], [(3, 5), (3, 7)]),
        ],
        ids=STEADY_TEST_SYSTEMS,
    )
    def test_weak_drives_against_high_precision_expm(self, system, cells):
        """The state entry's driven route at 1 and 10 s against a 40-digit
        expm on the strong-wide grid's 0.01 to 3.16 Hz rows, each at the
        cell where it misses most (``cells``, in that order): within
        WEAK_PROPAGATE_BOUND of the maximum of the tongue at that duration.
        The miss follows U ||A t||_1 times the populations' deviation from
        I / 4, so at 1 s it is already 1.75e-12 at 3.16 Hz, 35 times
        PROPAGATE_BOUND, which was measured at 100 s."""
        assert_state_entry_meets_expm(system, WEAK_PROPAGATE_BOUND, cells)

    def test_long_time_limit_against_steady_state(self, config, driven, steady_tongue):
        """Past 1e4 s, exp(-gap t) < 1e-1000, so the exact propagated state
        is the exact steady state: propagate meets the 40-digit solve within
        PROPAGATE_BOUND, steady_state within STEADY_BOUND, and so each
        other within their sum (the 16x16 expm missed by 3.1e-7 at 1e7 s;
        the engine misses by 9.2e-16 at 1e4 s and 4.6e-16 at 1e7 s).  The
        trace stays within a few ulp."""
        _, _, lv = driven
        rho0 = thermal_state(config)
        unit = steady_tongue.values.max()
        exact = high_precision_max_sync(lv)
        solved = SYNC_COEFFICIENT * abs(steady_state(lv)[0, 2])
        assert abs(solved - exact) <= STEADY_BOUND * unit
        for t in (1e4, 1e7):
            rho = propagate(lv, rho0, t)
            value = SYNC_COEFFICIENT * abs(rho[0, 2])
            assert abs(value - exact) <= PROPAGATE_BOUND * unit
            assert abs(value - solved) <= (PROPAGATE_BOUND + STEADY_BOUND) * unit
            assert abs(rho.trace() - rho0.trace()) <= TRACE_ULPS


class TestSpectralReport:
    def test_undriven_gap_window(self, config):
        lv = build_liouvillian(config, DriveConfig(amplitude_hz=0.0))
        report = spectral_report(lv)
        assert 0.3 <= report.gap <= 0.7

    def test_unique_stationary_eigenvalue(self, driven):
        _, _, lv = driven
        report = spectral_report(lv)
        assert sum(1 for lam in report.eigenvalues if abs(lam) < 1e-10) == 1

    def test_dissipativity_and_ordering(self, driven):
        _, _, lv = driven
        report = spectral_report(lv)
        reals = np.real(report.eigenvalues)
        assert np.all(reals <= 1e-10)
        assert np.all(np.diff(reals) <= 1e-12)  # sorted descending
        assert abs(report.eigenvalues[0]) < 1e-10

    @pytest.mark.parametrize(
        "amplitude, detuning",
        [(0.0, 0.0), (0.1, 0.0), (0.3, 0.7), (1.0, -2.0), (1e-3, -3.0), (100.0, 3.0)],
    )
    def test_block_eigenvalues_match_full_eigvals(self, config, amplitude, detuning):
        """The two real 8x8 blocks are similar to the 16x16 generator, so
        their eigenvalues are its.  Each side is backward stable: the
        complex QR moves L by at most p(16) eps ||L||_F, and the blocks by
        the mapping's one rounding per entry plus p(8) eps ||L||_F, taken
        sqrt(2) larger since the unscaled blocks' coordinates stretch norms
        by at most sqrt(2), with p(n) = n.  To first order each eigenvalue
        moves by its condition number kappa (from the 16x16 left and right
        eigenvectors, invariant under the unitary scaling) times that:
        |block - full| <= kappa (16 + 9 sqrt(2)) eps ||L||_F.  The
        eigenvalues are paired by an optimal assignment; the worst seen is
        5.44 kappa eps ||L||_F."""
        lv = build_liouvillian(
            config, DriveConfig(amplitude_hz=amplitude, detuning_hz=detuning)
        )
        full = np.linalg.eigvals(lv)
        blocks = spectral_report(lv).eigenvalues
        assert blocks.dtype == complex and blocks.shape == (16,)
        values, left, right = scipy.linalg.eig(lv, left=True, right=True)
        kappa = (
            np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
            / np.abs(np.einsum("ij,ij->j", left.conj(), right))
        )
        kappa = kappa[linear_sum_assignment(np.abs(full[:, None] - values))[1]]
        pairs = linear_sum_assignment(np.abs(full[:, None] - blocks))[1]
        bound = kappa * (16 + 9 * math.sqrt(2)) * EPS * np.linalg.norm(lv)
        assert np.all(np.abs(full - blocks[pairs]) <= bound)

    def test_rejects_generator_coupling_the_blocks(self, driven):
        """A drive on the F spin couples the blocks, so there is no real
        block spectrum to report; propagate's message names it."""
        _, _, lv = driven
        flip = build_lv(2.0 * math.pi * 0.01 * spin_operator("F", "x"))
        with pytest.raises(ValueError, match="couples the F-spin coherence-order"):
            spectral_report(lv + flip)


class TestGeneratorInvariants:
    def test_trace_preserving_null_row(self, driven):
        _, _, lv = driven
        row = vectorize(np.eye(4)).conj() @ lv
        assert np.max(np.abs(row)) < 1e-10

    def test_hermiticity_preservation(self, driven):
        _, _, lv = driven
        for e in hermitian_basis():
            image = devectorize(lv @ vectorize(e))
            assert np.max(np.abs(image - image.conj().T)) < 1e-12

    def test_positivity_and_trace_over_log_times(self, driven, rng):
        _, _, lv = driven
        times = np.logspace(-3, 3, 7)
        for _ in range(20):
            rho0 = random_density(rng)
            for t in times:
                rho = propagate(lv, rho0, float(t))
                assert abs(rho.trace() - rho0.trace()) <= TRACE_ULPS
                np.testing.assert_array_equal(rho, rho.conj().T)
                assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_linearity(self, driven, rng):
        _, _, lv = driven
        alpha = 0.3
        rho1, rho2 = random_density(rng), random_density(rng)
        mixed = propagate(lv, alpha * rho1 + (1.0 - alpha) * rho2, 2.0)
        split = alpha * propagate(lv, rho1, 2.0) + (1.0 - alpha) * propagate(
            lv, rho2, 2.0
        )
        assert np.max(np.abs(mixed - split)) < 1e-11

    def test_exponential_equilibration(self, driven):
        """Distance to the steady state decays log-linearly in time."""
        config, _, lv = driven
        rho_ss = steady_state(lv)
        times = np.array([1.0, 5.0, 10.0, 20.0])
        dist = np.array(
            [
                np.linalg.norm(propagate(lv, thermal_state(config), t) - rho_ss)
                for t in times
            ]
        )
        assert np.all(dist > 0.0)
        log_d = np.log(dist)
        slope, intercept = np.polyfit(times, log_d, 1)
        fitted = slope * times + intercept
        ss_res = np.sum((log_d - fitted) ** 2)
        ss_tot = np.sum((log_d - log_d.mean()) ** 2)
        assert 1.0 - ss_res / ss_tot > 0.99
        assert slope < 0.0

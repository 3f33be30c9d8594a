"""Jump operators, rates, fermionic probabilities, detailed balance."""

import math

import numpy as np
import pytest
import scipy.linalg

from spinsync import (
    DriveConfig,
    SpinSystemConfig,
    build_jump_operators,
    build_liouvillian,
    fermionic_probabilities,
    steady_state,
    thermal_state,
    transition_rate,
)
from spinsync.system import LEVEL_LABELS, LEVELS

from oracles import STEADY_TEST_SYSTEMS


class TestFermionicProbabilities:
    def test_infinite_temperature(self):
        assert fermionic_probabilities(0.0) == (0.5, 0.5)

    def test_reference_purity(self):
        p_up, _ = fermionic_probabilities(1.9e-5)
        assert p_up == pytest.approx(0.499981, abs=1e-6)

    @pytest.mark.parametrize("epsilon", [1e-5, 1e-2, 0.05])
    def test_normalization_and_ordering(self, epsilon):
        p_up, p_down = fermionic_probabilities(epsilon)
        assert p_up + p_down == 1.0
        assert p_up <= 0.5 <= p_down

    @pytest.mark.parametrize("epsilon", [1e-5, 1e-2])
    def test_ratio_is_boltzmann_factor(self, epsilon):
        p_up, p_down = fermionic_probabilities(epsilon)
        assert p_up / p_down == pytest.approx(math.exp(-4.0 * epsilon), rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fermionic_probabilities(-1e-6)


class TestTransitionRate:
    def test_ten_seconds(self):
        g = transition_rate(10.0)
        assert g == pytest.approx(0.6283, abs=1e-4)
        assert g == pytest.approx(2.0 * math.pi / 10.0, rel=1e-15)

    def test_one_second(self):
        assert transition_rate(1.0) == pytest.approx(2.0 * math.pi, rel=1e-15)

    def test_closed_system_limit(self):
        assert transition_rate(1e12) < 1e-11

    @pytest.mark.parametrize("t1", [0.0, -3.0])
    def test_rejects_nonpositive(self, t1):
        with pytest.raises(ValueError):
            transition_rate(t1)


def escape_rates(ops):
    total = sum(op.matrix.conj().T @ op.matrix for op in ops)
    off = total - np.diag(np.diag(total))
    assert np.max(np.abs(off)) == 0.0
    return np.diag(total).real


# (species, direction, source, target) of every jump, in builder order.
JUMPS = [
    ("P", "up", 2, 4), ("P", "down", 4, 2), ("P", "up", 1, 3), ("P", "down", 3, 1),
    ("F", "up", 3, 4), ("F", "down", 4, 3), ("F", "up", 1, 2), ("F", "down", 2, 1),
]


class TestJumpOperators:
    @pytest.mark.parametrize(
        "system",
        [{}, {"t1_p_s": 5.0, "t1_f_s": 20.0, "epsilon_p": 0.01, "epsilon_f": 0.03}],
        ids=["default", "asymmetric"],
    )
    def test_jump_list_is_pinned(self, system):
        """Exactly the eight jumps of JUMPS, in that order, each a single
        entry |target><source| of weight sqrt(2 pi p / T1), p the flipping
        spin's weight for its target orientation: p_plus going up to
        m = -1/2, p_minus going down.  build_affine_liouvillian adds the
        dissipators to its base term in list order, and so does the kron
        oracle, so only this test sees a reorder, which moves every output's
        last bits."""
        cfg = SpinSystemConfig(**system)
        ops = build_jump_operators(cfg)
        assert [(op.species, op.direction, op.source, op.target) for op in ops] == JUMPS
        t1 = {"P": cfg.t1_p_s, "F": cfg.t1_f_s}
        probs = {
            "P": fermionic_probabilities(cfg.epsilon_p),
            "F": fermionic_probabilities(cfg.epsilon_f),
        }
        for op in ops:
            p = probs[op.species][0 if op.direction == "up" else 1]
            expected = np.zeros((4, 4), dtype=complex)
            expected[LEVEL_LABELS.index(op.target), LEVEL_LABELS.index(op.source)] = (
                math.sqrt(2.0 * math.pi / t1[op.species] * p)
            )
            assert op.matrix.tobytes() == expected.tobytes()

    def test_count_and_sparsity(self, config):
        ops = build_jump_operators(config)
        assert len(ops) == 8
        for op in ops:
            assert np.count_nonzero(op.matrix) == 1

    def test_symmetric_infinite_temperature_weights(self):
        cfg = SpinSystemConfig(epsilon_p=0.0, epsilon_f=0.0)
        expected = math.sqrt((2.0 * math.pi / 10.0) * 0.5)
        for op in build_jump_operators(cfg):
            weight = np.max(np.abs(op.matrix))
            assert weight == pytest.approx(expected, rel=1e-15)

    def test_up_down_adjoint_pairing(self, config):
        ops = build_jump_operators(config)
        ups = {(op.source, op.target) for op in ops if op.direction == "up"}
        downs = {(op.target, op.source) for op in ops if op.direction == "down"}
        assert ups == downs and len(ups) == 4

    def test_transitions_flip_exactly_one_spin_upward(self, config):
        for op in build_jump_operators(config):
            if op.direction != "up":
                continue
            src = LEVELS[LEVEL_LABELS.index(op.source)]
            tgt = LEVELS[LEVEL_LABELS.index(op.target)]
            slot = 0 if op.species == "P" else 1
            assert src[slot] == +0.5 and tgt[slot] == -0.5
            assert src[1 - slot] == tgt[1 - slot]  # spectator untouched

    def test_escape_rate_enumeration(self):
        """Each level loses population at the sum of its two exit rates."""
        cfg = SpinSystemConfig(
            t1_p_s=5.0, t1_f_s=20.0, epsilon_p=0.01, epsilon_f=0.03
        )
        rates = escape_rates(build_jump_operators(cfg))
        g_p, g_f = transition_rate(5.0), transition_rate(20.0)
        pp = fermionic_probabilities(0.01)
        pf = fermionic_probabilities(0.03)
        for idx, (m_p, m_f) in enumerate(LEVELS):
            # a spin at m = +1/2 exits upward, at m = -1/2 downward
            expected = g_p * pp[0 if m_p > 0 else 1] + g_f * pf[0 if m_f > 0 else 1]
            assert rates[idx] == pytest.approx(expected, rel=1e-12)

    def test_weights_bounded_by_base_rate(self, config):
        g_max = max(transition_rate(config.t1_p_s), transition_rate(config.t1_f_s))
        for op in build_jump_operators(config):
            w = np.max(np.abs(op.matrix))
            assert 0.0 < w**2 <= g_max


class TestDetailedBalance:
    def test_rate_matrix_stationary_ratios(self):
        """Population ratio across each link equals p_up/p_down."""
        cfg = SpinSystemConfig(
            t1_p_s=5.0, t1_f_s=20.0, epsilon_p=0.01, epsilon_f=0.03
        )
        ops = build_jump_operators(cfg)
        rates = np.zeros((4, 4))
        for op in ops:
            weight = np.max(np.abs(op.matrix)) ** 2
            i_src = LEVEL_LABELS.index(op.source)
            i_tgt = LEVEL_LABELS.index(op.target)
            rates[i_tgt, i_src] += weight
        rates -= np.diag(rates.sum(axis=0))
        null = scipy.linalg.null_space(rates)
        assert null.shape[1] == 1
        pops = null[:, 0] / null[:, 0].sum()
        probs = {
            "P": fermionic_probabilities(0.01),
            "F": fermionic_probabilities(0.03),
        }
        for op in ops:
            if op.direction != "up":
                continue
            upper = pops[LEVEL_LABELS.index(op.target)]
            lower = pops[LEVEL_LABELS.index(op.source)]
            p_up, p_down = probs[op.species]
            assert upper / lower == pytest.approx(p_up / p_down, rel=1e-12)

    def test_undriven_steady_state_is_thermal(self):
        """On each of STEADY_TEST_SYSTEMS.  Oracle: ``thermal_state``, the
        closed-form products of per-spin Boltzmann weights, which the jumps
        balance in detail, so it spans the undriven generator's kernel in
        exact arithmetic.  Against 40-digit products of the weights the
        solve misses by 1.68 ulps of 1/4 and thermal_state by 0.68 on each
        system; the two differ by one ulp of 1/4 (5.55e-17).  Bound: 3 ulps
        of 1/4, the two misses summed and rounded up.  Criterion 9 keeps its
        specified 1e-8."""
        for system in STEADY_TEST_SYSTEMS.values():
            cfg = SpinSystemConfig(**system)
            rho = steady_state(build_liouvillian(cfg, DriveConfig(amplitude_hz=0.0)))
            assert np.max(np.abs(rho - thermal_state(cfg))) <= 3 * np.spacing(0.25)

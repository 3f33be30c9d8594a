"""Jump operators for single-quantum relaxation against a thermal bath.

Each spin exchanges quanta with its own bath; the partner spin is a
spectator, so every allowed transition flips exactly one spin while the
other keeps its orientation.  That gives eight jump operators: two spins
x two directions x two spectator orientations, each with a single
non-zero matrix element.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .system import LEVEL_LABELS, LEVELS, SpinSystemConfig, fermionic_probabilities


def transition_rate(t1_s: float) -> float:
    """Base rate g = 2 pi / T1 in rad/s."""
    if t1_s <= 0.0:
        raise ValueError("T1 must be positive")
    return 2.0 * math.pi / t1_s


class JumpOperator(
    namedtuple("JumpOperator", "matrix species direction source target")
):
    """One weighted transition |target><source| in the four-level basis.

    ``species`` is "P" or "F", ``direction`` "up" (energy-gaining) or
    "down", and ``source`` and ``target`` are level labels 1..4.
    """

    __slots__ = ()


def build_jump_operators(config: SpinSystemConfig) -> list[JumpOperator]:
    """All eight single-quantum jump operators for the configured system.

    Weights are sqrt(g * p) with g = 2 pi / T1 of the flipping spin and p
    the fermionic probability for the jump direction.  Upward means the
    flipping spin moves from m = +1/2 to m = -1/2 (its higher-energy
    orientation for the positive gyromagnetic ratios used here).
    """
    params = {
        "P": (transition_rate(config.t1_p_s), fermionic_probabilities(config.epsilon_p)),
        "F": (transition_rate(config.t1_f_s), fermionic_probabilities(config.epsilon_f)),
    }
    index_of = {qn: i for i, qn in enumerate(LEVELS)}

    ops = []
    for species, flip_slot in (("P", 0), ("F", 1)):
        g, (p_up, p_down) = params[species]
        for spectator_m in (-0.5, +0.5):
            lower = [0.0, 0.0]
            lower[flip_slot] = +0.5  # m = +1/2 is the lower-energy orientation
            lower[1 - flip_slot] = spectator_m
            upper = list(lower)
            upper[flip_slot] = -0.5
            i_lower, i_upper = index_of[tuple(lower)], index_of[tuple(upper)]
            for direction, p, i_src, i_tgt in (
                ("up", p_up, i_lower, i_upper),
                ("down", p_down, i_upper, i_lower),
            ):
                m = np.zeros((4, 4), dtype=complex)
                m[i_tgt, i_src] = math.sqrt(g * p)
                ops.append(
                    JumpOperator(
                        matrix=m,
                        species=species,
                        direction=direction,
                        source=LEVEL_LABELS[i_src],
                        target=LEVEL_LABELS[i_tgt],
                    )
                )
    return ops

"""Vectorized master-equation engine.

Density matrices are flattened by column stacking, so a triple product
B rho C maps to (C^T kron B) vec(rho).  The generator is a dense 16x16
array, affine in the drive: L(Omega, delta) = base + delta per_detuning
+ Omega per_amplitude, so those three terms are built once per system
and every generator is assembled from them.  Array drives give a
(..., 16, 16) stack, which propagation and the steady state take alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dissipation import JumpOperator, build_jump_operators
from .hamiltonians import detuning_term, drive_term, rotating_drift
from .system import DriveConfig, SpinSystemConfig

# Ratio of second-smallest to largest singular value below which the
# stationary subspace is treated as degenerate.
DEGENERACY_RATIO = 1e-8
# Residual bound for an accepted steady state, relative to ||L||_2.  A
# backward-stable solve of the 16-dimensional system leaves a residual of
# about 16 eps ||L||_2 ||vec(rho)||, and ||vec(rho)|| <= 1 for a state.
RESIDUAL_RTOL = 16 * np.finfo(float).eps


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Stack the columns of a 4x4 matrix (or of each in a stack) into a 16-vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.swapaxes(-1, -2).reshape(rho.shape[:-2] + (16,))


def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize` for 16-element vectors (or a stack of them)."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape[-1:] != (16,):
        raise ValueError(f"expected a 16-vector, got shape {vec.shape}")
    return vec.reshape(vec.shape[:-1] + (4, 4)).swapaxes(-1, -2)


def _commutator_superoperator(h: np.ndarray) -> np.ndarray:
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def _dissipator_superoperator(o: np.ndarray) -> np.ndarray:
    eye = np.eye(o.shape[0], dtype=complex)
    odo = o.conj().T @ o
    return (
        np.kron(o.conj(), o)
        - 0.5 * np.kron(eye, odo)
        - 0.5 * np.kron(odo.T, eye)
    )


def _hermitian_part(h0: np.ndarray, name: str) -> np.ndarray:
    h = np.asarray(h0, dtype=complex)
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > 1e-12:
        raise ValueError(f"{name} must be Hermitian, deviation {dev:.3e}")
    return h


def build_l0(h0: np.ndarray, jumps: list[JumpOperator]) -> np.ndarray:
    """Drift generator: -i[H0, .] plus the sum of all dissipators."""
    l0 = _commutator_superoperator(_hermitian_part(h0, "drift Hamiltonian"))
    for jump in jumps:
        l0 += _dissipator_superoperator(jump.matrix)
    return l0


def build_lv(v: np.ndarray) -> np.ndarray:
    """Drive generator -i[V, .]."""
    return _commutator_superoperator(_hermitian_part(v, "drive term"))


@dataclass(frozen=True)
class AffineLiouvillian:
    """Drive-independent terms of L = base + delta per_detuning + Omega per_amplitude.

    ``base`` is the undriven, undetuned drift plus all dissipators;
    ``per_detuning`` and ``per_amplitude`` are the generator per Hz of
    detuning and of drive amplitude.
    """

    base: np.ndarray
    per_detuning: np.ndarray
    per_amplitude: np.ndarray

    def at(self, amplitude_hz, detuning_hz=0.0) -> np.ndarray:
        """The generator for a drive in Hz (unchecked); array drives give a stack."""
        amplitude = np.asarray(amplitude_hz, dtype=float)[..., None, None]
        detuning = np.asarray(detuning_hz, dtype=float)[..., None, None]
        return (
            self.base
            + detuning * self.per_detuning
            + amplitude * self.per_amplitude
        )


def build_affine_liouvillian(config: SpinSystemConfig) -> AffineLiouvillian:
    """Build the generator's affine terms once for a configured system."""
    return AffineLiouvillian(
        base=build_l0(
            rotating_drift(config, DriveConfig(amplitude_hz=0.0)),
            build_jump_operators(config),
        ),
        per_detuning=build_lv(detuning_term(1.0)),
        per_amplitude=build_lv(drive_term(DriveConfig(amplitude_hz=1.0))),
    )


def build_liouvillian(config: SpinSystemConfig, drive: DriveConfig) -> np.ndarray:
    """Assemble the full generator for a configured system and drive."""
    return build_affine_liouvillian(config).at(drive.amplitude_hz, drive.detuning_hz)


def propagate(liouvillian: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve rho0 for a time t >= 0 via expm(L t).

    Scaling-and-squaring Pade approximation, per generator of a stack.
    L preserves trace and Hermiticity exactly, but the computed map does
    so only up to rounding that grows with ||L|| t through the squaring
    steps, so the trace drift is largest at long times (criterion 8
    widens its trace window above 100 s for this reason).
    """
    if t < 0.0:
        raise ValueError("propagation time must be non-negative")
    l_total = np.asarray(liouvillian, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"initial state must be 4x4, got {rho0.shape}")
    return devectorize(scipy.linalg.expm(l_total * t) @ vectorize(rho0))


def _worst_cell(severity: np.ndarray) -> tuple[tuple[int, ...], str]:
    """A stack's most severe cell (() for one generator) and its error note."""
    cell = tuple(int(i) for i in np.unravel_index(np.argmax(severity), severity.shape))
    return cell, f" (worst cell {cell})" if cell else ""


def steady_state(liouvillian: np.ndarray) -> np.ndarray:
    """Stationary density matrix of a generator, or of each in a stack.

    Solves L vec(rho) = 0 with row 0 (redundant, as L preserves the trace)
    replaced by tr(rho) = 1, then Hermitizes.  Raises, naming a stack's
    worst cell, if the null space is (numerically) more than one-dimensional
    or if the residual is not small.
    """
    l_total = np.asarray(liouvillian, dtype=complex)
    s = np.linalg.svd(l_total, compute_uv=False)
    norm = s[..., 0]  # the largest singular value is ||L||_2
    ratio = np.divide(s[..., -2], norm, out=np.zeros(norm.shape), where=norm > 0.0)
    if np.any(ratio < DEGENERACY_RATIO):
        _, note = _worst_cell(-ratio)
        raise np.linalg.LinAlgError(
            "stationary subspace is degenerate; steady state ambiguous" + note
        )
    system = l_total.copy()
    system[..., 0, :] = vectorize(np.eye(4))  # tr(rho) = 1, the right side e_0
    rho = devectorize(np.linalg.solve(system, np.eye(16)[0]))
    rho = 0.5 * (rho + rho.conj().swapaxes(-1, -2))
    residual = np.linalg.norm((l_total @ vectorize(rho)[..., None])[..., 0], axis=-1)
    bound = RESIDUAL_RTOL * norm
    if np.any(residual > bound):
        cell, note = _worst_cell(residual / bound)
        raise np.linalg.LinAlgError(
            f"steady-state residual {residual[cell]:.3e} exceeds {bound[cell]:.3e}"
            + note
        )
    return rho


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of the generator, sorted by descending real part."""

    eigenvalues: np.ndarray
    gap: float  # |Re| of the slowest decaying mode


def spectral_report(liouvillian: np.ndarray) -> SpectralReport:
    """Eigenvalue summary; the gap sets the equilibration time scale.

    All real parts are non-positive for a valid generator (one eigenvalue
    is zero up to rounding).
    """
    eigs = np.linalg.eigvals(np.asarray(liouvillian, dtype=complex))
    order = np.argsort(-eigs.real)
    eigs = eigs[order]
    return SpectralReport(eigenvalues=eigs, gap=float(-eigs[1].real))

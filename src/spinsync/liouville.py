"""Vectorized master-equation engine.

Density matrices are flattened by column stacking, so a triple product
B rho C maps to (C^T kron B) vec(rho).  The generator is a dense 16x16
array, affine in the drive: L(Omega, delta) = base + delta per_detuning
+ Omega per_amplitude, so those three terms are built once per system
and every generator is assembled from them.  Propagation uses the
matrix exponential.
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
# Residual bound for an accepted steady state, relative to ||L||.
RESIDUAL_RTOL = 1e-10


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Stack the columns of a 4x4 matrix into a 16-vector."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    return rho.reshape(-1, order="F")

def devectorize(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize` for 16-element vectors."""
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (16,):
        raise ValueError(f"expected a 16-vector, got shape {vec.shape}")
    return vec.reshape((4, 4), order="F")


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


def build_l0(
    h0: np.ndarray,
    jumps: list[JumpOperator] | list[np.ndarray],
) -> np.ndarray:
    """Drift generator: -i[H0, .] plus the sum of all dissipators."""
    l0 = _commutator_superoperator(_hermitian_part(h0, "drift Hamiltonian"))
    for jump in jumps:
        l0 += _dissipator_superoperator(getattr(jump, "matrix", jump))
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

    def at(self, drive: DriveConfig) -> np.ndarray:
        """The 16x16 generator for one drive."""
        return (
            self.base
            + drive.detuning_hz * self.per_detuning
            + drive.amplitude_hz * self.per_amplitude
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
    return build_affine_liouvillian(config).at(drive)


def propagate(liouvillian: np.ndarray, rho0: np.ndarray, t: float) -> np.ndarray:
    """Evolve rho0 for a time t >= 0 via expm(L t).

    Scaling-and-squaring Pade approximation.  L preserves trace and
    Hermiticity exactly, but the computed map does so only up to
    rounding that grows with ||L|| t through the squaring steps, so the
    trace drift is largest at long times (criterion 8 widens its trace
    window above 100 s for this reason).
    """
    if t < 0.0:
        raise ValueError("propagation time must be non-negative")
    l_total = np.asarray(liouvillian, dtype=complex)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"initial state must be 4x4, got {rho0.shape}")
    return devectorize(scipy.linalg.expm(l_total * t) @ vectorize(rho0))


def steady_state(liouvillian: np.ndarray) -> np.ndarray:
    """Stationary density matrix from the null space of the generator.

    Found as the singular vector of the smallest singular value, then
    Hermitized and trace-normalized.  Raises if the null space is
    (numerically) more than one-dimensional or if the residual after
    normalization is not small.
    """
    l_total = np.asarray(liouvillian, dtype=complex)
    _, s, vh = np.linalg.svd(l_total)
    if s[0] == 0.0 or s[-2] < DEGENERACY_RATIO * s[0]:
        raise np.linalg.LinAlgError(
            "stationary subspace is degenerate; steady state ambiguous"
        )
    rho = devectorize(vh[-1].conj())
    trace = rho.trace()
    if abs(trace) < 1e-12:
        raise np.linalg.LinAlgError("null vector has vanishing trace")
    rho = rho / trace
    rho = 0.5 * (rho + rho.conj().T)
    residual = np.linalg.norm(l_total @ vectorize(rho))
    bound = RESIDUAL_RTOL * s[0]  # the largest singular value is ||L||_2
    if residual > bound:
        raise np.linalg.LinAlgError(
            f"steady-state residual {residual:.3e} exceeds {bound:.3e}"
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

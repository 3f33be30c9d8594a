"""Interferometric Husimi readout: gate circuit and reconstruction.

The circuit measures the reduced Husimi distribution of the P-spin
doublet that shares the F-down orientation ({|4>, |2>}): a pseudo-
Hadamard pulse puts F in a superposition, the inverse scan rotation maps
the probed coherent state of P back to the pole, a controlled phase
correlates the two spins, and the F transverse magnetization is read
out.  Axis conventions are fixed so that the scan pole coincides with
level |4>.

With these conventions the exact-populations reconstruction differs from
the reduced Husimi value by one exact leakage term, for any state:

    Q_circuit - Q_direct = -(24/pi^3) sin(theta) Re(rho31 e^{i phi}),

with rho31 = ``rho[1, 3]``; no other coherence leaks.  The readout is
exact when rho31 = 0 and its deviation never exceeds (24/pi^3) |rho31|
(``leakage_bound``; ``deviation_bound`` gives either variant's bound).

The circuit factorizes as G = CP (R^dagger x I)(I x H), so the signal is
Tr[(R^dagger x I) rho_H (R x I) A] with rho_H = (I x H) rho (I x H)^dagger
and A = CP^dagger F_x CP, the gates built and checked once per process;
only the 2x2 scan rotation R varies over the probe grid.  R separates,
R[p, s] = w_p(phi) u[p, s](theta), with u the real rotation by theta/2 and
w = (e^{-i phi/2}, e^{i phi/2}), so the signal is
T00 + T11 + 2 Re(T01 e^{i phi}) with one 2x2 table
T[p, q](theta) = sum_rs u[p, s] u[q, r] t[p, q, r, s] per polar angle and
one phase per azimuth: the same a(theta) + Re(b(theta) e^{i phi}) form as
the direct section.  The unitarity check runs on the n_theta rotations
and the n_phi phases, and the signal is summed in real arithmetic in a
fixed order, so a grid equals its pointwise calls bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .liouville import _real_start
from .phasespace import HUSIMI_PREFACTOR, HusimiGrid, grid_axes
from .system import _checked_make, spin_operator

GATE_LABELS = ("pseudo-hadamard-F", "controlled-phase")

VARIANTS = ("exact-populations", "quarter-approximation")
# Rounding allowance of the scan and the direct grid in every deviation bound
DEVIATION_TOLERANCE = 1e-9

_EYE2 = np.eye(2, dtype=complex)


class Gate(namedtuple("Gate", "matrix label")):
    """A fixed 4x4 unitary of the readout circuit, with its label."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, matrix: np.ndarray, label: str):
        if label not in GATE_LABELS:
            raise ValueError(f"unknown gate label {label!r}")
        _require_unitary(matrix)
        return super().__new__(cls, matrix, label)


def _require_unitary(u: np.ndarray) -> None:
    """Raise unless each matrix u[:, :, ...] of an (n, n, ...) array is unitary.

    A NaN deviation fails the check.
    """
    if u.ndim < 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected (n, n, ...) matrices, got shape {u.shape}")
    n = u.shape[0]
    gram = np.einsum("ik...,jk...->ij...", u, u.conj())
    gram[range(n), range(n)] -= 1.0
    dev = np.max(np.abs(gram))
    if not dev <= 1e-12:
        raise ValueError(f"gate not unitary: deviation {dev:.3e}")


def _scan_factors(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    # The 2x2 scan rotation takes the P part of |4> to the (theta, phi)
    # coherent state, up to global phase: exp(-i phi Sz') exp(-i theta Sy')
    # with the scan axes oriented so the pole is the m_P = -1/2 state.  Its
    # factors over broadcast angles, matrix axes first: the real rotations
    # u (2, 2, ...) by theta/2 and the phases e^{i phi} (1, 1, ...), from
    # real cos and sin so that each cell equals its own call bit for bit.
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]]), np.array([[np.cos(phi) + 1j * np.sin(phi)]])


def build_pseudo_hadamard() -> Gate:
    """90-degree scan-frame y rotation on F (identity on P)."""
    h = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / math.sqrt(2.0)
    return Gate(np.kron(_EYE2, h), "pseudo-hadamard-F")


def build_controlled_phase() -> Gate:
    """Controlled phase diag(1, 1, 1, -1) in the energy-ordered basis.

    Identity on the F orientation shared by the driven pair; the other F
    orientation picks up the P scan-frame sign.
    """
    return Gate(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), "controlled-phase")


def leakage_bound(rho: np.ndarray) -> float:
    """Largest |Q_circuit - Q_direct| of the exact variant: (24/pi^3) |rho31|."""
    return float(HUSIMI_PREFACTOR * abs(np.asarray(rho)[1, 3]))


def deviation_bound(rho: np.ndarray, variant: str) -> float:
    """Largest |Q_circuit - Q_direct| of a variant, plus DEVIATION_TOLERANCE: the
    leakage bound, and for the quarter approximation, exact only when the
    populations rho33 and rho11 sit at 1/4, (24/pi^3) times their offsets."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    bound = leakage_bound(rho) + DEVIATION_TOLERANCE
    if variant == "quarter-approximation":
        rho = np.asarray(rho)
        bound += float(
            HUSIMI_PREFACTOR
            * (abs(rho[3, 3].real - 0.25) + abs(rho[1, 1].real - 0.25))
        )
    return bound


@lru_cache(maxsize=1)
def _circuit_terms() -> tuple[np.ndarray, np.ndarray]:
    """The checked pseudo-Hadamard H and A = CP^dagger F_x CP, read-only."""
    h = build_pseudo_hadamard().matrix
    cp = build_controlled_phase().matrix
    a = (cp.conj().T @ spin_operator("F", "x") @ cp).reshape(2, 2, 2, 2)
    h.flags.writeable = a.flags.writeable = False
    return h, a


def _readout(
    rho: np.ndarray, theta, phi, variant: str
) -> tuple[np.ndarray, np.ndarray]:
    """Circuit signal and reconstructed Q at broadcast probe angles;
    ValueError unless rho is an exactly Hermitian 4x4 matrix."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise ValueError("probe angles must be finite")
    if ((theta < 0.0) | (theta > math.pi)).any():
        raise ValueError("polar angle must lie in [0, pi]")
    _real_start(rho, "state")  # the separable form holds for Hermitian rho only
    rho = np.asarray(rho, dtype=complex)
    h, a = _circuit_terms()
    # index order (P, F, P, F): rho_h[p, i, q, j], a[r, j, s, i]
    rho_h = (h @ rho @ h.conj().T).reshape(2, 2, 2, 2)
    t = np.einsum("piqj,rjsi->pqrs", rho_h, a)
    u, phase = _scan_factors(theta, phi)
    _require_unitary(u)
    _require_unitary(phase)

    def table(p, q, part):  # one part of T[p, q], its four terms in order
        return sum(u[p, s] * u[q, r] * part[p, q, r, s] for r in (0, 1) for s in (0, 1))

    # T00 and T11 are real and T10 = conj(T01), for Hermitian rho and A
    signal = table(0, 0, t.real) + table(1, 1, t.real) + 2.0 * (
        table(0, 1, t.real) * phase[0, 0].real - table(0, 1, t.imag) * phase[0, 0].imag
    )
    if variant == "exact-populations":
        spectator = rho[3, 3].real * u[0, 0] ** 2 + rho[1, 1].real * u[1, 0] ** 2
        q = HUSIMI_PREFACTOR * (0.5 * (1.0 + 2.0 * signal) - spectator)
    else:
        q = HUSIMI_PREFACTOR * (signal + 0.25)
    return signal, q


def imhd_scan(
    rho: np.ndarray,
    n_theta: int = 64,
    n_phi: int = 128,
    variant: str = "exact-populations",
) -> HusimiGrid:
    """Circuit scan over the standard theta x phi grid, in one kernel call."""
    thetas, phis = grid_axes(n_theta, n_phi)
    _, values = _readout(rho, thetas[:, None], phis[None, :], variant)
    return HusimiGrid(thetas=thetas, phis=phis, values=values)

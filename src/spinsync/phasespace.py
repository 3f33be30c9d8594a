"""Husimi distribution and synchronization measures of the four-level state.

The four-level Husimi function is Q = (24/pi^3) <n|rho|n> over SU(4)
coherent states |n(theta_1..3, phi_1..3)>.  With full angles alpha_i =
theta_i / 2 in [0, pi/2] the components are cos(a1), e^{i phi_1} sin(a1)
cos(a2), e^{i phi_2} sin(a1) sin(a2) cos(a3) and e^{i phi_3} sin(a1)
sin(a2) sin(a3); component 1 overlaps the highest level |4> and
component 4 the lowest |1>.  The group measure has weights
cos(a1) sin^5(a1) cos(a2) sin^3(a2) cos(a3) sin(a3), the unique
normalization for which the states resolve the identity as
integral |n><n| dmu = (pi^3 / 24) * I; see ``completeness_check``.
Q is sampled on the (theta, phi) section through |4> and |2>
(``husimi_reduced``); the full distribution enters only through its
group integrals (``HaarQuadrature``).

Synchronization is measured by S(phi_1..3) = integral Q dTheta -
1/(2 pi)^3, which reduces to a closed form linear in the upper-triangle
coherences with coefficient 1/(16 pi^2).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .system import _checked_make

# Q prefactor and max value; the flat state has Q = 6/pi^3 everywhere.
HUSIMI_PREFACTOR = 24.0 / math.pi**3
# phi-space density of a fully delocalized phase distribution.
UNIFORM_PHASE_DENSITY = 1.0 / (2.0 * math.pi) ** 3
# Closed-form coefficient of each coherence in the sync measure.
SYNC_COEFFICIENT = 1.0 / (16.0 * math.pi**2)


def husimi_reduced(rho, theta, phi):
    """Husimi distribution on the |4>,|2> section of phase space.

    Equals the full distribution at (theta_1 = theta, theta_2 = pi,
    theta_3 = 0, phi_2 = phi): rho44 cos^2(theta/2) + Re(rho42 e^{i phi})
    sin(theta) + rho22 sin^2(theta/2), times 24/pi^3.  Broadcasts over
    array angles; a (..., 4, 4) stack of states puts its axes in front of
    the angles'.
    """
    rho = np.asarray(rho)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    angles = (None,) * max(theta.ndim, phi.ndim)  # a unit axis per angle axis
    # the full-shape term first, so the rest is added in place and a
    # stack's grid is allocated once
    bracket = np.real(rho[(..., 0, 2) + angles] * np.exp(1j * phi)) * np.sin(theta)
    bracket += (
        rho[(..., 0, 0) + angles].real * np.cos(theta / 2.0) ** 2
        + rho[(..., 2, 2) + angles].real * np.sin(theta / 2.0) ** 2
    )
    bracket *= HUSIMI_PREFACTOR
    return bracket


class HusimiGrid(namedtuple("HusimiGrid", "thetas phis values")):
    """Sampled reduced Husimi distribution over a theta x phi grid, or one
    grid per state of a stack: ``values`` has shape (..., len(thetas),
    len(phis))."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, thetas: np.ndarray, phis: np.ndarray, values: np.ndarray):
        if values.shape[-2:] != (thetas.size, phis.size):
            raise ValueError("grid values do not match the axes")
        if np.any(np.diff(thetas) <= 0.0) or np.any(np.diff(phis) <= 0.0):
            raise ValueError("grid axes must be strictly increasing")
        return super().__new__(cls, thetas, phis, values)


def grid_axes(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard grid axes: theta over [0, pi] inclusive, phi over [0, 2 pi)."""
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid needs at least two points per axis")
    return (
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
    )


def husimi_grid(rho: np.ndarray, n_theta: int = 64, n_phi: int = 128) -> HusimiGrid:
    """Reduced Husimi distribution on the ``grid_axes`` grid, of one state
    or of each in a (..., 4, 4) stack."""
    thetas, phis = grid_axes(n_theta, n_phi)
    values = husimi_reduced(rho, thetas[:, None], phis[None, :])
    return HusimiGrid(thetas=thetas, phis=phis, values=values)


def visibility(grid: HusimiGrid) -> float | np.ndarray:
    """Contrast of the phase profile Q_phi = sum over theta of Q.

    Returns (max - min) / (max + min) of the profile, one value per grid
    of a stack; raises on a grid whose profile sums to zero (no
    meaningful contrast).
    """
    profile = grid.values.sum(axis=-2)
    top, bottom = profile.max(axis=-1), profile.min(axis=-1)
    if (top + bottom == 0.0).any():
        raise ValueError("degenerate grid: phase profile sums to zero")
    contrast = (top - bottom) / (top + bottom)
    return float(contrast) if contrast.ndim == 0 else contrast


def state_visibility(
    rho: np.ndarray, n_theta: int = 64, n_phi: int = 128
) -> float | np.ndarray:
    """``visibility(husimi_grid(rho, n_theta, n_phi))`` from rho, no grid.

    The theta-summed profile is P (b + d(phi)): b = rho44 C + rho22 S and
    d = W Re(rho42 e^{i phi}), with C, S, W the correctly rounded sums of
    cos^2(theta/2), sin^2(theta/2), sin(theta) over the grid.  Its contrast
    (d_max - d_min) / (2 b + d_max + d_min) never adds d to b, so it keeps
    the accuracy of rho.  Takes one state or a (..., 4, 4) stack.
    """
    thetas, phis = grid_axes(n_theta, n_phi)
    cos2 = math.fsum(np.cos(thetas / 2.0) ** 2)
    sin2 = math.fsum(np.sin(thetas / 2.0) ** 2)
    rho = np.asarray(rho)
    d = math.fsum(np.sin(thetas)) * np.real(rho[..., 0, 2, None] * np.exp(1j * phis))
    top, bottom = d.max(axis=-1), d.min(axis=-1)
    base = rho[..., 0, 0].real * cos2 + rho[..., 2, 2].real * sin2
    total = 2.0 * base + top + bottom
    if (total == 0.0).any():
        raise ValueError("degenerate state: phase profile sums to zero")
    contrast = (top - bottom) / total
    return float(contrast) if contrast.ndim == 0 else contrast


def sync_measure_full(rho: np.ndarray, phi1: float, phi2: float, phi3: float) -> float:
    """Closed-form phase-space synchronization measure S(phi1, phi2, phi3).

    Linear in the six upper-triangle coherences; the relative phase of
    each level pair enters through the matching azimuthal combination.
    """
    rho = np.asarray(rho)
    e1, e2, e3 = np.exp(1j * phi1), np.exp(1j * phi2), np.exp(1j * phi3)
    total = (
        rho[0, 1] * e1
        + rho[0, 2] * e2
        + rho[0, 3] * e3
        + rho[1, 2] * e2 * np.conj(e1)
        + rho[1, 3] * e3 * np.conj(e1)
        + rho[2, 3] * e3 * np.conj(e2)
    )
    return float(SYNC_COEFFICIENT * total.real)


def sync_measure_max(rho: np.ndarray) -> float | np.ndarray:
    """Peak of the reduced measure over phi: |rho42| / (16 pi^2).

    Takes one state or a (..., 4, 4) stack.  The modulus is np.hypot of
    the parts, which agrees bit for bit with the scalar ``abs`` of one
    state, where np.abs on an array can differ in the last bit.
    """
    z = np.asarray(rho)[..., 0, 2]
    return SYNC_COEFFICIENT * np.hypot(z.real, z.imag)


# --- group-measure quadrature ------------------------------------------------

# Per-axis radial factors of the components: axis k contributes cos, sin or
# 1 (index 0, 1, 2) of alpha_k to component i; see the module docstring.
_RADIAL_FACTOR = np.array([[0, 2, 2], [1, 0, 2], [1, 1, 0], [1, 1, 1]])
# Measure weight exponents per axis: cos(a) sin^m(a) with m = 5, 3, 1.
_WEIGHT_SINE_POWER = np.array([5, 3, 1])


class HaarQuadrature(
    namedtuple("HaarQuadrature", "alpha_nodes alpha_weights n_phi")
):
    """Product quadrature for the SU(4) coherent-state measure.

    Gauss-Legendre nodes in each full angle alpha_i = theta_i / 2 on
    [0, pi/2] and a uniform periodic grid in each azimuthal angle.  The
    integrand of every measure integral used here factorizes per axis, so
    the 6-D product rule is evaluated exactly in factorized form.
    """

    __slots__ = ()

    def _radial_pair_integrals(self) -> np.ndarray:
        """R[i, j] = integral over alphas of r_i r_j times the weight."""
        a, w = self.alpha_nodes, self.alpha_weights
        cos_a, sin_a = np.cos(a), np.sin(a)
        weight = w * cos_a * sin_a ** _WEIGHT_SINE_POWER[:, None]  # (axis, node)
        # factors[i, k] is component i's factor on axis k, at every node
        factors = np.stack([cos_a, sin_a, np.ones_like(a)])[_RADIAL_FACTOR]
        return np.einsum("kn,ikn,jkn->kij", weight, factors, factors).prod(axis=0)

    def _phase_pair_integrals(self) -> np.ndarray:
        """P[i, j] = integral over phis of e_i(phi) conj(e_j(phi)): component
        i carries the azimuthal angle phi_i (component 0 none), so on axis k
        the integrand is e^{i m phi} with m = [i = k] - [j = k]."""
        phis = np.linspace(0.0, 2.0 * math.pi, self.n_phi, endpoint=False)
        dphi = 2.0 * math.pi / self.n_phi
        slot = np.eye(4, dtype=int)[1:]  # slot[k - 1, i] = [i = k]
        m = slot[:, :, None] - slot[:, None, :]  # (axis, i, j)
        axis_int = dphi * np.exp(1j * m[..., None] * phis).sum(axis=-1)
        return axis_int.prod(axis=0)


def haar_quadrature(n_alpha: int = 32, n_phi: int = 64) -> HaarQuadrature:
    """Quadrature scheme of the given orders (defaults are ample)."""
    if n_alpha < 2 or n_phi < 4:
        raise ValueError("quadrature orders too small")
    x, w = np.polynomial.legendre.leggauss(n_alpha)
    # map [-1, 1] -> [0, pi/2]
    nodes = 0.25 * math.pi * (x + 1.0)
    weights = 0.25 * math.pi * w
    return HaarQuadrature(alpha_nodes=nodes, alpha_weights=weights, n_phi=n_phi)


def completeness_check(scheme: HaarQuadrature | None = None) -> np.ndarray:
    """Quadrature of integral |n><n| dmu; exact value is (pi^3/24) I."""
    scheme = scheme or haar_quadrature()
    return scheme._radial_pair_integrals() * scheme._phase_pair_integrals()


def husimi_normalization(rho: np.ndarray, scheme: HaarQuadrature | None = None) -> float:
    """Quadrature of integral Q dmu; equals 1 for any unit-trace state."""
    scheme = scheme or haar_quadrature()
    overlap = completeness_check(scheme)
    return float(HUSIMI_PREFACTOR * np.real(np.trace(np.asarray(rho) @ overlap)))


def sync_measure_quadrature(
    rho: np.ndarray,
    phi1: float,
    phi2: float,
    phi3: float,
    scheme: HaarQuadrature | None = None,
) -> float:
    """S(phi1..3) evaluated as a polar-sector quadrature of Q.

    Integrates Q over the three polar angles at fixed azimuthal angles
    and subtracts the uniform phase density; agrees with the closed form
    ``sync_measure_full`` to quadrature accuracy.
    """
    scheme = scheme or haar_quadrature()
    rho = np.asarray(rho)
    radial = scheme._radial_pair_integrals()
    phases = np.array([1.0, np.exp(1j * phi1), np.exp(1j * phi2), np.exp(1j * phi3)])
    # integral over alphas of <n|rho|n> at fixed azimuths
    sector = np.real(
        np.einsum("ij,i,j,ij->", rho, phases.conj(), phases, radial)
    )
    return float(HUSIMI_PREFACTOR * sector - UNIFORM_PHASE_DENSITY)

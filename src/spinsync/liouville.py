"""Vectorized master-equation engine.

Density matrices are flattened by column stacking, and column k of a
16x16 generator is vec(L(E_k)), the master equation's right side at the
matrix unit E_k = devectorize(e_k).  The generator is affine in the drive,
L(Omega, delta) = base + delta per_detuning + Omega per_amplitude; the
terms are built once per system and process and shared read-only.

The engine works in real Hermitian-basis coordinates, where a generator
splits exactly into two real 8x8 blocks by F-spin coherence order, g0 (the
populations with rho42 and rho31) and b (the other coherences); a state is
one real vector and the spectrum is the blocks'.  ``_real_generator`` maps
and checks a generator; a system's terms are mapped once and summed at a
drive (``AffineLiouvillian._blocks_at``).  The order-0 block carries the
signal, evolved (``_evolve_signal``, under ``_evolved``'s time rule for
both blocks) or solved for (``_steady_signal``) as the deviation from
tr(rho) I/4 with rho11 eliminated, so the trace is exact.  Callers take two
entries on a configured system, each steady at t = None and else driven
from the thermal state for t: ``_state``, density matrices, and
``_tongue``, |rho42| over an Arnold tongue's grid, with no 16x16 generator
and no density matrix per cell: one pole-form pass over its rows
(``_pole_form``) keeps each cell it certifies, a driven one only where the
floor, a contraction rate, proves it within half an ulp (``_contracted``),
and leaves the rest to the single-drive kernels in ``_slices``.

The steady state needs no SVD to be certified unique.  In unitarily scaled
real coordinates M, ||M x|| >= -x^T sym(M) x for a unit x, and every
eigenvector of a non-zero eigenvalue is traceless, so Courant-Fischer on
the traceless subspace gives sigma_-2 >= the least eigenvalue of -sym(M)
there.  The drive terms are exactly skew there, so a system's floor comes
from its dissipator once, with a derived rounding allowance, and holds at
every drive; only a cell it cannot certify inverts its blocks.  ``_expm``,
a stacked Pade-13, leaves NumPy the only dependency.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .system import (
    LEVEL_LABELS, LEVELS, DriveConfig, SpinSystemConfig, _worst_cell,
    build_jump_operators, detuning_term, drive_term, rotating_drift, thermal_state,
)

# Ratio of second-smallest to largest singular value below which the
# stationary subspace is treated as degenerate; checked on a lower bound.
DEGENERACY_RATIO = 1e-8
# Residual bound for an accepted steady state, relative to ||L||_2.  A
# backward-stable solve of the 16-dimensional system leaves a residual of
# about 16 eps ||L||_2 ||vec(rho)||, and ||vec(rho)|| <= 1 for a state.
# Checked against ||L||_F / 4 <= ||L||_2 (rank <= 16).  A backward error,
# it passes by over four decades on the default tongue and cannot see rho42
# off by 1e-6 relative (_pole_form); only the tests' 40-digit checks can.
RESIDUAL_RTOL = 16 * np.finfo(float).eps
# Cells per stack of the propagated tongue and of the steady cells the pole
# form leaves: a multiple of 8 whose traced peak stays within the recorded
# one of a real row loop (PROPAGATED_ROW_LOOP_PEAK_BYTES in the tests).
TONGUE_STACK_CELLS = 56


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


class AffineLiouvillian(
    namedtuple("AffineLiouvillian", "base per_detuning per_amplitude")
):
    """Drive-independent terms of L = base + delta per_detuning + Omega per_amplitude.

    ``base`` is the undriven drift plus all dissipators; the other two are
    the generator per Hz of detuning and of amplitude.  No ``__slots__``:
    the cached ``_blocks`` and ``_floor`` live in the instance dict.
    """

    def at(self, amplitude_hz, detuning_hz=0.0) -> np.ndarray:
        """The generator for a drive in Hz (unchecked: where it overflows,
        with no warning, the kernels raise); array drives give a stack."""
        omega = np.asarray(amplitude_hz, dtype=float)[..., None, None]
        delta = np.asarray(detuning_hz, dtype=float)[..., None, None]
        with np.errstate(over="ignore", invalid="ignore"):
            return self.base + delta * self.per_detuning + omega * self.per_amplitude

    @cached_property
    def _blocks(self) -> tuple[AffineLiouvillian, AffineLiouvillian]:
        """The terms' order-0 and order +-1 blocks in real coordinates, mapped
        and checked once; ``.at`` of each is that block of ``at``, bit for bit."""
        order_zero, order_one = zip(*map(_real_generator, self))
        return _read_only(*order_zero), _read_only(*order_one)

    def _blocks_at(self, amplitude_hz, detuning_hz=0.0) -> tuple:
        """``_blocks`` summed at a drive: (g0, b), the blocks of ``at``."""
        return tuple(block.at(amplitude_hz, detuning_hz) for block in self._blocks)

    @cached_property
    def _floor(self) -> SteadyFloor:
        """A floor on sigma_-2 at every drive, from the terms' symmetric parts:
        the base term's least eigenvalue of -sym on the traceless coordinates,
        less each drive term's ||sym||_2 per Hz (0 here: both are exactly
        skew), less the allowances for eigvalsh and ``at``'s rounding."""
        g0, b = (np.stack(block) for block in self._blocks)
        least, spread, frobenius = _decay_spectra(g0, b)
        slack = _EIGEN_SLACK * frobenius + _SUM_SLACK * _frobenius(g0, b)
        return SteadyFloor(
            float(least[0].min() - slack[0]),
            float(spread[1] + slack[1]),
            float(spread[2] + slack[2]),
        )


class SteadyFloor(namedtuple("SteadyFloor", "base per_detuning per_amplitude")):
    """A lower bound on sigma_-2 of L(Omega, delta) at every drive:
    base - |delta| per_detuning - |Omega| per_amplitude, in s^-1."""

    __slots__ = ()

    def at(self, amplitude_hz, detuning_hz=0.0):
        """The floor for a drive in Hz (its rounding, a few ulp of base, sits
        far inside the eigvalsh allowance); array drives give an array."""
        return (
            self.base
            - np.abs(detuning_hz) * self.per_detuning
            - np.abs(amplitude_hz) * self.per_amplitude
        )


def _read_only(*terms: np.ndarray) -> AffineLiouvillian:
    for term in terms:
        term.flags.writeable = False
    return AffineLiouvillian(*terms)


def build_affine_liouvillian(config: SpinSystemConfig) -> AffineLiouvillian:
    """A configured system's affine terms, built once per process (for the 8
    systems used last) and shared read-only, ``_blocks`` too.  Keyed on the
    config's repr: equal configs of other field types never share terms."""
    return _affine_terms(repr(config), config)


@lru_cache(maxsize=8)
def _affine_terms(key: str, config: SpinSystemConfig) -> AffineLiouvillian:
    """Column k of each term is vec of the master equation's right side at
    the matrix unit E_k: -i[H, E_k] for the drift, detuning and drive
    Hamiltonians, plus, for the base term, each jump's O E_k O^+ - {O^+ O,
    E_k} / 2, added in list order."""
    units = devectorize(np.eye(16))
    h = np.stack([
        rotating_drift(config, DriveConfig(amplitude_hz=0.0)),
        detuning_term(1.0),
        drive_term(DriveConfig(amplitude_hz=1.0)),
    ])[:, None]
    images = -1j * (h @ units - units @ h)
    o = np.array([jump.matrix for jump in build_jump_operators(config)])[:, None]
    o_dag = o.conj().swapaxes(-1, -2)
    odo = o_dag @ o
    for dissipator in o @ units @ o_dag - 0.5 * (odo @ units) - 0.5 * (units @ odo):
        images[0] += dissipator  # in list order
    return _read_only(*np.ascontiguousarray(vectorize(images).swapaxes(-1, -2)))


def build_liouvillian(config: SpinSystemConfig, drive: DriveConfig) -> np.ndarray:
    """Assemble the full generator for a configured system and drive."""
    return build_affine_liouvillian(config).at(drive.amplitude_hz, drive.detuning_hz)


def _real_coordinates() -> tuple[np.ndarray, np.ndarray]:
    """Maps between vec(rho) and 16 real Hermitian-basis coordinates: the
    populations, rho11 last, then Re and Im of rho_ij (i < j) for the pairs
    sharing m_F (coherence order 0), then the others.  Each row of either
    map has at most two entries, from {1, 1/2, +-i, +-i/2}, so mapping
    rounds once per entry, an entry and its transpose alike."""
    levels = sorted(range(4), key=lambda i: LEVEL_LABELS[i] == 1)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    order_zero = [(i, j) for i, j in pairs if LEVELS[i][1] == LEVELS[j][1]]
    order_one = [pair for pair in pairs if pair not in order_zero]
    to_real = np.zeros((16, 16), dtype=complex)
    from_real = np.zeros((16, 16), dtype=complex)
    for c, i in enumerate(levels):
        to_real[c, 5 * i] = from_real[5 * i, c] = 1.0
    for k, (i, j) in enumerate(order_zero + order_one):
        re, im, ij, ji = 4 + 2 * k, 5 + 2 * k, i + 4 * j, j + 4 * i
        # Re rho_ij = (rho_ij + rho_ji)/2, Im rho_ij = (rho_ij - rho_ji)/2i
        to_real[re, [ij, ji]] = 0.5
        to_real[im, [ij, ji]] = -0.5j, 0.5j
        from_real[[ij, ji], re] = 1.0
        from_real[[ij, ji], im] = 1.0j, -1.0j
    return to_real, from_real


_TO_REAL, _FROM_REAL = _real_coordinates()
# The order-0 block evolves as the deviation y = x - tr I/4 without rho11
# (coordinate 3, tr minus the other populations), augmented by tr:
# d/dt (y, tr) = [[G K, G e/4], [0, 0]] (y, tr), where x = K y + tr e/4.
# The populations sit near 1/4 and differ by ~1e-5, so expm's rounding
# then scales with the deviation, not with 1/4, and tr never moves.
_KEEP = np.array([0, 1, 2, 4, 5, 6, 7])
_AUGMENT = np.zeros((8, 8))  # columns K, then e/4
_AUGMENT[_KEEP, np.arange(7)] = 1.0
_AUGMENT[3, :3] = -1.0
_AUGMENT[:4, 7] = 0.25
_DEVIATION = np.zeros((8, 8))  # x -> (y, tr)
_DEVIATION[np.arange(7), _KEEP] = 1.0
_DEVIATION[:3, :4] -= 0.25
_DEVIATION[7, :4] = 1.0
# Scaling each Re/Im coordinate by sqrt(2) (each stands for two entries of
# vec(rho)) makes the map unitary: L's singular values and Frobenius norm
# are those of the blocks scaled by s_i / s_j.  The order +-1 block is
# scaled uniformly, so only the order-0 block's entries are weighted.
_SCALE = np.where(np.arange(16) < 4, 1.0, np.sqrt(2.0))
_SYM_RATIO = (_SCALE[:, None] / _SCALE)[:8, :8]
# sym(M) of the scaled order-0 block M = S G S^-1, entry by entry, is
# _SYM_RATIO (G + _SYM_SQUARE G^T) / 2 with _SYM_SQUARE = (S_j / S_i)^2, a
# power of 2: a term exactly skew in the scaled coordinates (S_i^2 G_ij =
# -S_j^2 G_ji) has a symmetric part of exact zeros.  sym(B) is (B + B^T) / 2.
_SCALE_SQUARED = np.where(np.arange(8) < 4, 1.0, 2.0)  # exactly
_SYM_SQUARE = _SCALE_SQUARED / _SCALE_SQUARED[:, None]
# ||L||_F^2 = sum W g0^2 + sum b^2 with W = _SYM_RATIO^2, exactly
_NORM_WEIGHT = _SYM_SQUARE.T
# The columns other than 3 of the reflection I - 2 w w^T, w = (1, 1, 1, -1,
# 0, 0, 0, 0) / 2, which maps the unit trace direction (1, 1, 1, 1, 0, 0, 0,
# 0) / 2 to coordinate 3: an orthonormal basis of the traceless order-0
# coordinates, with exact entries 0, +-1/2 and 1.
_REFLECT = np.array([1.0, 1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0])  # 2 w
_TRACELESS = np.delete(np.eye(8) - 0.5 * np.outer(_REFLECT, _REFLECT), 3, axis=1)
_EPS = np.finfo(float).eps
# Rounding allowances of the floor, per unit of a Frobenius norm.  Forming
# -sym and projecting it (basis columns of |entries| summing to 2) moves each
# eigenvalue by at most 4 (3 + 2 8) u ||H||_F = 76 u, and eigvalsh by p(n) u
# ||H||_2, p(n) = n^2 = 64: 140 u = 70 eps in all, 128 eps allowed.
_EIGEN_SLACK = 128 * _EPS
# ``at``'s sum rounds each entry by gamma_3 < 2 eps of |base| + |delta D| +
# |Omega A|, so by Weyl sigma_-2 moves by at most 2 eps (||base|| + |delta|
# ||D|| + |Omega| ||A||), in the scaled Frobenius norm.
_SUM_SLACK = 2 * _EPS
# ||L||_F^2 from the terms' Gram matrix G rounds by at most 71 eps sum |c_k
# c_l G_kl| <= 71 eps (sum |c_k| ||T_k||)^2 (an entry sums 128 exactly
# weighted products, gamma_128 < 65 eps; the form 9, gamma_11 < 6 eps).
_GRAM_SLACK = 128 * _EPS


def _real_generator(l_total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A generator's (or stack's) blocks (g0, b) in real coordinates;
    ValueError unless it preserves Hermiticity and keeps the blocks apart,
    both exactly (conjugate entries are summed in one rounding)."""
    g = _TO_REAL @ l_total @ _FROM_REAL
    if g.imag.any():
        residue = np.abs(g.imag).max(axis=(-2, -1))
        cell, note = _worst_cell(residue)
        raise ValueError(
            "generator does not preserve Hermiticity: imaginary residue "
            f"{residue[cell]:.3e} in real coordinates" + note
        )
    g = g.real
    if g[..., :8, 8:].any() or g[..., 8:, :8].any():
        coupling = np.maximum(
            np.abs(g[..., :8, 8:]).max(axis=(-2, -1)),
            np.abs(g[..., 8:, :8]).max(axis=(-2, -1)),
        )
        cell, note = _worst_cell(coupling)
        raise ValueError(
            "generator couples the F-spin coherence-order blocks: entry "
            f"{coupling[cell]:.3e}" + note
        )
    return g[..., :8, :8].copy(), g[..., 8:, 8:].copy()


def _frobenius(g0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||L||_F of each generator of a stack from its blocks: the blocks
    between are exactly 0, and the scaled coordinates are unitary."""
    return np.sqrt(
        np.einsum("...ij,ij,...ij->...", g0, _NORM_WEIGHT, g0)
        + np.einsum("...ij,...ij->...", b, b)
    )


def _augmented(g0: np.ndarray) -> np.ndarray:
    """The deviation form's rows of each order-0 block of a stack, (..., 7,
    8): d/dt y = rows (y, tr)."""
    return g0[..., _KEEP, :] @ _AUGMENT


def _from_deviation(y: np.ndarray, trace: float) -> np.ndarray:
    """The order-0 coordinates (..., 8) of deviations y (..., 7) that share
    one trace: rho11 is the trace less the other populations, so the trace
    is exact up to one rounding."""
    x = np.empty(y.shape[:-1] + (8,))
    x[..., _KEEP] = y
    x[..., :3] += 0.25 * trace
    x[..., 3] = trace - ((x[..., 0] + x[..., 1]) + x[..., 2])
    return x


def _density(x: np.ndarray) -> np.ndarray:
    """The Hermitian 4x4 matrices of real coordinates x (..., 16), or of
    order-0 coordinates x (..., 8), whose order +-1 coordinates are 0."""
    return devectorize(x @ _FROM_REAL[:, : x.shape[-1]].T)


# Pade-13 numerator coefficients b_0..b_13, and theta_13, the 1-norm up to
# which the approximant's backward error is below the unit roundoff
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a real (..., n, n) stack: scaling and squaring
    with the degree-13 Pade approximant R = (V - U)^-1 (V + U) of each cell
    scaled by 2^-s, the least s >= 0 with ||A 2^-s||_1 <= theta_13.  R is
    kept as D = R - I = (V - U)^-1 2U and squared as D <- D (D + 2I), so a
    zero row of A stays zero and R's rounding near 1 is not raised to the
    power 2^s.  All cells share min(s) squarings, a mask takes the rest;
    each cell equals its own call bit for bit."""
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norm).all():  # a non-finite entry makes it so too
        raise ValueError("propagation overflows: the drive or duration is too large")
    with np.errstate(divide="ignore"):  # a zero matrix has log2(0) = -inf
        s = np.maximum(np.ceil(np.log2(norm / _THETA13)), 0.0).astype(int)
    a = np.ldexp(a, -s[..., None, None])
    eye = np.eye(a.shape[-1])
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    )
    d = np.linalg.solve(v - u, 2.0 * u)
    two = 2.0 * eye
    shared = int(s.min())
    for _ in range(shared):
        d = d @ (d + two)
    for k in range(shared, int(s.max())):
        more = s > k
        rest = d[more]
        d[more] = rest @ (rest + two)
    return eye + d


def propagate(liouvillian: np.ndarray, rho0: np.ndarray, t) -> np.ndarray:
    """Evolve rho0 for a time t >= 0 under a generator, or under each in a stack.

    ``t`` is a duration or an array of them broadcasting against the
    stack; cells with t = 0 hold rho0 exactly.  ValueError unless rho0 is
    exactly Hermitian and the generator splits exactly into real blocks; the
    order-0 block evolves in deviation form by the exponential of the
    augmented 8x8 generator, the order +-1 block (where rho0 has support on
    it) by its own: the trace is exact up to one rounding and rho exactly
    Hermitian.  ValueError, with no warning, if the result overflows.
    """
    blocks = _real_generator(np.asarray(liouvillian, dtype=complex))
    return _propagate(*blocks, rho0, t)


def _propagate(g0: np.ndarray, b: np.ndarray, rho0: np.ndarray, t) -> np.ndarray:
    """:func:`propagate` under a generator (or stack) given as its real blocks."""
    t = np.asarray(t, dtype=float)
    x0, u0 = _real_start(rho0)
    cells = np.broadcast_shapes(g0.shape[:-2], t.shape)
    x = np.zeros(cells + (16,))
    x[..., :8] = _from_deviation(_evolve_signal(g0, u0, t), u0[7])
    if x0[8:].any():
        x[..., 8:] = _evolved(np.broadcast_to(b, cells + (8, 8)).copy(), t, x0[8:])
    rho = _density(x)
    # cells kept at rho0 itself, which the deviation form would round
    rho[np.broadcast_to(t == 0.0, cells)] = rho0
    return rho


def _real_start(rho0, name: str = "initial state") -> tuple[np.ndarray, np.ndarray]:
    """A 4x4 rho0's real coordinates x0 (16,) and the order-0 block's start
    u0 = (y, tr) (8,) in deviation form; ValueError, naming ``name`` and the
    imaginary residue, unless rho0 is exactly Hermitian (which leaves none)."""
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (4, 4):
        raise ValueError(f"{name} must be 4x4, got {rho0.shape}")
    x0 = _TO_REAL @ vectorize(rho0)
    if x0.imag.any():
        raise ValueError(
            f"{name} is not Hermitian: imaginary residue "
            f"{np.abs(x0.imag).max():.3e} in real coordinates"
        )
    x0 = x0.real
    return x0, _DEVIATION @ x0[:8]


def _evolved(a: np.ndarray, t, u0: np.ndarray) -> np.ndarray:
    """e^{A t} u0 for each generator A of a real stack, scaled by t in place
    (t = 0 gives u0 however A overflows).  ValueError unless every t is finite
    and >= 0, and, with no warning, where ||A t||_1 or the result overflows."""
    t = np.asarray(t, dtype=float)[..., None, None]
    if not np.all((t >= 0.0) & (t < np.inf)):  # NaN fails too
        raise ValueError("propagation time must be finite and non-negative")
    with np.errstate(over="ignore", invalid="ignore"):
        a *= t
        if not t.all():  # e^0 = I however the generator overflows
            np.copyto(a, 0.0, where=t == 0.0)
        u = _expm(a) @ u0
    if not np.isfinite(u).all():
        raise ValueError("propagation overflows: the drive or duration is too large")
    return u


def _evolve_signal(g0: np.ndarray, u0: np.ndarray, t) -> np.ndarray:
    """The deviations y (..., 7) after time t (broadcast) of each order-0
    block g0 from u0 = (y, tr) of :func:`_real_start`: the first 7 rows of
    e^{At} u0 for the augmented 8x8 generator A (tr stays u0's), as
    :func:`_from_deviation` takes them; :func:`_evolved`'s ValueErrors."""
    aug = np.zeros(np.broadcast_shapes(g0.shape[:-2], np.shape(t)) + (8, 8))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite: _evolved raises
        aug[..., :7, :] = _augmented(g0)
    return _evolved(aug, t, u0)[..., :7]


def steady_state(liouvillian: np.ndarray) -> np.ndarray:
    """Stationary density matrix of a generator, or of each in a stack.

    On propagate's real blocks in deviation form, with tr(rho) = 1, the
    order-0 block gives 7 equations (the rho11 row dropped): the trace is
    exact up to one rounding, rho exactly Hermitian, its order +-1
    coherences 0.  LinAlgError, naming a stack's worst cell, unless
    sigma_-2 / sigma_0 >= DEGENERACY_RATIO and ||L vec(rho)|| <=
    RESIDUAL_RTOL ||L||_2, checked without an SVD on bounds never looser:
    the floor (module docstring) on sigma_-2, ||L||_F >= sigma_0 and
    ||L||_F / 4 <= ||L||_2.  The floor, 2 pi / max(T1P, T1F) to 2e-5, at J
    = 868 Hz certifies drives to 1 kHz while max(T1P, T1F) <= 3.0e4 s, none
    past 5.76e4 s; else a cell falls back to :func:`_inverse_bound`.
    """
    g0, b = _real_generator(np.asarray(liouvillian, dtype=complex))
    return _density(_steady_signal(g0, b, _generator_floor(g0, b))[0])


def _decay_spectra(g0: np.ndarray, b: np.ndarray) -> tuple:
    """For each real generator's blocks, in unitarily scaled coordinates: the
    least eigenvalues of -sym on the traceless order-0 coordinates and on
    the order +-1 block (..., 2), the largest |eigenvalue| of both, and the
    Frobenius norm of the two projected parts together."""
    h0 = -0.5 * _SYM_RATIO * (g0 + _SYM_SQUARE * g0.swapaxes(-1, -2))
    h0 = _TRACELESS.T @ h0 @ _TRACELESS
    hb = -0.5 * (b + b.swapaxes(-1, -2))
    e0, eb = np.linalg.eigvalsh(h0), np.linalg.eigvalsh(hb)
    with np.errstate(over="ignore"):  # inf makes the floor non-finite: refused
        frobenius = np.sqrt((h0 * h0).sum(axis=(-2, -1)) + (hb * hb).sum(axis=(-2, -1)))
    least = np.stack([e0[..., 0], eb[..., 0]], axis=-1)
    spread = np.maximum(np.abs(e0).max(axis=-1), np.abs(eb).max(axis=-1))
    return least, spread, frobenius


def _generator_floor(g0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The floor on sigma_-2 of each real generator of a stack, from its
    blocks' own symmetric parts, less the eigvalsh allowance."""
    least, _, frobenius = _decay_spectra(g0, b)
    return least.min(axis=-1) - _EIGEN_SLACK * frobenius


def _residual(g0: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||L vec(rho)|| for order-0 coordinates x (..., 8) (the order +-1 ones
    0) under each order-0 block of a stack: ||S_0 G_0 x|| with the exact
    S_0^2 as weights, each Re/Im coordinate scaled by sqrt(2) (a unitary map)."""
    r = (g0 @ x[..., None])[..., 0]
    return np.sqrt(np.einsum("...k,k,...k->...", r, _SCALE_SQUARED, r))


def _inverse_bound(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min(sigma_min(A) / 2, sigma_min(B)) <= sigma_-2, sigma_min(M) >= 1 /
    ||M^-1||_F, for a stack's deviation matrices A (..., 7, 7) and order +-1
    blocks B; LinAlgError if a block is exactly singular."""
    return np.minimum(
        0.5 / np.linalg.norm(np.linalg.inv(a), axis=(-2, -1)),
        1.0 / np.linalg.norm(np.linalg.inv(b), axis=(-2, -1)),
    )


def _steady_signal(g0: np.ndarray, b: np.ndarray, floor, cells=None) -> tuple:
    """The steady state's order-0 coordinates x (..., 8), tr = 1, of a stack
    of real generators' blocks g0 and b whose sigma_-2 is at least
    ``floor`` (broadcast), with each cell's certified ratio and residual
    ||L vec(rho)||.  The ratio is floor / ||L||_F, raised where that falls
    short of DEGENERACY_RATIO to :func:`_inverse_bound` / ||L||_F if larger.
    LinAlgError, naming the worst cell (``cells``, index arrays of a flat
    stack's cells in a grid, name it there), unless every ratio is >=
    DEGENERACY_RATIO and every residual <= RESIDUAL_RTOL ||L||_F / 4;
    ValueError, with no warning, where ||L||_F overflows."""

    def worst(severity):
        cell, note = _worst_cell(severity)
        if cells is not None:
            note = f" (worst cell {tuple(int(axis[cell]) for axis in cells)})"
        return cell, note

    norm = _frobenius(g0, b)
    with np.errstate(all="ignore"):  # 0 / 0 and overflows fail below
        ratio = floor / norm
        if not np.all(ratio >= DEGENERACY_RATIO):  # NaN is weak too
            if not np.isfinite(norm).all():
                _, note = worst(~np.isfinite(norm))
                raise ValueError(
                    "generator overflows: the drive is too large" + note
                )
            ratio = np.array(np.broadcast_to(ratio, np.shape(norm)))
            weak = ~(ratio >= DEGENERACY_RATIO)
            try:
                inverse = _inverse_bound(_augmented(g0[weak])[..., :7], b[weak])
                ratio[weak] = np.fmax(ratio[weak], inverse / norm[weak])
            except np.linalg.LinAlgError:  # an exactly singular block
                pass
            if not np.all(ratio >= DEGENERACY_RATIO):
                _, note = worst(-ratio)
                raise np.linalg.LinAlgError(
                    "stationary subspace is degenerate; steady state ambiguous"
                    + note
                )
    aug = _augmented(g0)  # d/dt y = aug (y, tr)
    # the state from its own 1-column solve, for the same bits
    y = np.linalg.solve(aug[..., :7], -aug[..., 7:])[..., 0]  # tr = 1
    x = _from_deviation(y, 1.0)
    residual = _residual(g0, x)
    bound = RESIDUAL_RTOL / 4 * norm
    if not np.all(residual <= bound):
        cell, note = worst(residual / bound)
        raise np.linalg.LinAlgError(
            f"steady-state residual {residual[cell]:.3e} exceeds {bound[cell]:.3e}"
            + note
        )
    return x, ratio, residual


def _steady_at(terms: AffineLiouvillian, amplitude_hz, detuning_hz=0.0, cells=None):
    """The steady order-0 coordinates (..., 8), tr = 1, of a system at a drive
    in Hz, or at each of a stack of drives, from its terms' summed blocks and
    cached floor, with :func:`_steady_signal`'s errors (naming ``cells``)."""
    floor = terms._floor.at(amplitude_hz, detuning_hz)
    return _steady_signal(*terms._blocks_at(amplitude_hz, detuning_hz), floor, cells)[0]


def _state(config, amplitude_hz, detuning_hz=0.0, t=None) -> np.ndarray:
    """The state entry: a system's steady density matrix at a drive in Hz, or
    at each of a stack of drives, or its thermal state driven for each time t."""
    terms = build_affine_liouvillian(config)
    if t is None:
        return _density(_steady_at(terms, amplitude_hz, detuning_hz))
    blocks = terms._blocks_at(amplitude_hz, detuning_hz)
    return _propagate(*blocks, thermal_state(config), t)


def _slices(shape, todo=None):
    """The cells (i, j) of each TONGUE_STACK_CELLS slice of a flat grid of
    ``shape``, in order; given a mask ``todo``, only its cells, and no slice
    without one."""
    stack, size = TONGUE_STACK_CELLS, shape[0] * shape[1]
    starts = range(0, size, stack)
    if todo is not None:
        starts = stack * np.unique(np.flatnonzero(todo) // stack)
    for start in starts:  # no flat index array is held while a slice runs
        keep = slice(None) if todo is None else todo.flat[start : start + stack]
        yield np.divmod(np.arange(start, min(start + stack, size))[keep], shape[1])


def _pole_form(terms: AffineLiouvillian, omegas, detunings) -> tuple:
    """The steady order-0 coordinates x (n_omega, n_delta, 8), tr = 1, of a
    system over an amplitude x detuning grid, and the mask ``sure`` of the
    cells certified as by :func:`_steady_signal` (x is no answer elsewhere).  A
    row solves (A_0 + delta D) y = -c, D of rank 4, so with A_0^-1 D = V
    Lambda V^-1, y(delta) = V (I + delta Lambda)^-1 V^-1 y(0) (pole form:
    Golub & Van Loan, Matrix Computations, 7.7).  The ratio floor / ||L||_F,
    ||L||_F^2 the terms' Gram form + _GRAM_SLACK, comes before any eig; the
    residual bound takes the form - _GRAM_SLACK.  It never raises: no cell is
    certified if any ||L||_F overflows (then no eig runs) or a row is exactly
    singular.  The residual cannot see the signal's scale: poles moved by
    1e-6 leave rho42 off by 1e-6 relative and certified (1e-4 is the first
    step caught), so only the tests' 40-digit checks pin a cell to
    STEADY_BOUND."""
    order_zero = terms._blocks[0]
    g0, b = (np.stack(block) for block in terms._blocks)
    gram = np.einsum("kij,ij,lij->kl", g0, _NORM_WEIGHT, g0)
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram + np.einsum("kij,lij->kl", b, b)
    omega = omegas[:, None]
    with np.errstate(all="ignore"):  # a non-finite cell is not certified
        square = g00 + detunings * (2 * g01 + detunings * g11) + omega * (
            2 * (g02 + detunings * g12) + omega * g22
        )
        slack = np.sqrt(g00) + abs(detunings) * np.sqrt(g11) + omega * np.sqrt(g22)
        slack = _GRAM_SLACK * slack**2
        ratio = terms._floor.at(omega, detunings) / np.sqrt(square + slack)
        sure = ratio >= DEGENERACY_RATIO
        try:
            if not np.isfinite(slack).all():  # no eig where some ||L||_F overflows
                raise np.linalg.LinAlgError
            aug = _augmented(order_zero.at(omegas))
            rhs = -aug  # [D | -c] once D is in
            rhs[..., :7] = _augmented(order_zero.per_detuning)[:, :7]
            k = np.linalg.solve(aug[..., :7], rhs)
            poles, v = np.linalg.eig(k[..., :7])  # of A_0^-1 D; k[..., 7] is y(0)
            w = np.linalg.solve(v, k[..., 7:]).swapaxes(-1, -2)
        except np.linalg.LinAlgError:  # or where a row is exactly singular
            return np.zeros(sure.shape + (8,)), np.zeros_like(sure)
        del aug, rhs, k  # the row solves' stacks go before the grid's
        y = np.einsum("j,ik->ijk", detunings + 0j, poles)  # no broadcast buffers
        y += 1.0
        np.divide(w, y, out=y)  # V^-1 y(delta), pole by pole
        x = _from_deviation(np.matmul(y, v.swapaxes(-1, -2), out=y).real, 1.0)
        del y, poles, v, w
        r = x @ order_zero.base.T  # G_0 x, term by term
        r += np.einsum("j,ijk->ijk", detunings, x @ order_zero.per_detuning.T)
        r += np.einsum("i,ijk->ijk", omegas, x @ order_zero.per_amplitude.T)
        residual = np.sqrt(np.einsum("...k,k,...k->...", r, _SCALE_SQUARED, r))
        sure &= residual <= RESIDUAL_RTOL / 4 * np.sqrt(np.fmax(square - slack, 0.0))
    return x, sure


def _coherence(x: np.ndarray) -> np.ndarray:
    """|rho42| of order-0 coordinates (..., 8) or deviations (..., 7): Re and
    Im rho42 are fourth and third from the end of either (only rho11 goes)."""
    return np.hypot(x[..., -4], x[..., -3])


def _tongue(config, omegas, detunings, t=None) -> np.ndarray:
    """The tongue entry: |rho42| over an amplitude x detuning grid in Hz, of
    a system's steady states or of its thermal state driven for a time t.
    A cell keeps its :func:`_pole_form` value where the pass certifies it,
    and a driven one only where :func:`_contracted` also settles it; the
    rest go to :func:`_steady_at` or :func:`_evolve_signal` a :func:`_slices`
    slice at a time, each the single-drive result bit for bit.  No driven
    cell is settled unless e^(-floor t) <= U / (2 sqrt 2), U = eps / 2, for
    the undriven floor (t > 60.12 s on the default system) and the thermal
    trace is exactly 1; else no pole form runs."""
    terms = build_affine_liouvillian(config)
    if t is None:
        x, sure = _pole_form(terms, omegas, detunings)
        for i, j in _slices(sure.shape, ~sure):
            x[i, j] = _steady_at(terms, omegas[i], detunings[j], (i, j))
        return _coherence(x)
    x0, u0 = _real_start(thermal_state(config))
    with np.errstate(all="ignore"):  # a non-finite t or cell settles nothing
        near = 4 * np.sqrt(2.0) * np.exp(-terms._floor.base * t) <= _EPS
        if near and u0[7] == 1.0:
            x, sure = _pole_form(terms, omegas, detunings)
            values = _coherence(x)
            left = ~(sure & _contracted(terms, omegas, detunings, t, x, x0, values))
            del x
        else:
            values, left = np.empty((omegas.size, detunings.size)), None
    del x0  # the slices hold only u0
    at = terms._blocks[0].at
    for i, j in _slices(values.shape, left):  # one stack held at a time
        values[i, j] = _coherence(_evolve_signal(at(omegas[i], detunings[j]), u0, t))
    return values


def _contracted(terms, omegas, detunings, t, x, x0, signal) -> np.ndarray:
    """The mask of the grid's cells whose thermal state, of real coordinates
    x0, driven for t has |rho42| within half an ulp of ``signal``, that of
    the cell's steady order-0 coordinates x (left holding x - x0); the
    caller keeps only the cells its pole form certifies.  A cell needs 2 t
    (||A_0||_1 + |delta| ||A_delta||_1 + |Omega| ||A_Omega||_1) finite, A
    the augmented order-0 terms: a bound on ||A t||_1 with room 2 for its
    rounding, so every drive and duration the propagator refuses is left to
    it.

    The certificate (Dahlquist 1958; Soederlind, BIT 46, 631, 2006): the
    floor bounds the logarithmic norm of the order-0 block on the traceless
    coordinates in the unitarily scaled norm, at every drive.  The thermal
    state x0 has trace exactly 1 (checked by the caller) and, like x_ss, no
    order +-1 coordinates, so ||x(t) - x_ss|| <= e^(-floor t) ||x0 - x_ss||,
    and |rho42(t) - rho42_ss| is at most that / sqrt 2 (Re and Im rho42 are
    weighted 2).  A cell is settled when 2 e^(-floor t) ||x_ss - x0|| <= U
    |rho42_ss|, U = eps / 2.  Rounding model, relative: exp within 1 ulp,
    and within U floor t <= 745 U from the rounding of its argument; the
    8-term weighted norm and its sqrt within 6 U; the products within 2 U;
    x_ss's own error, a few U of its deviation from I / 4, against ||x_ss -
    x0||.  The factor 2 covers them, and the sqrt 2 is spare: the exact
    driven |rho42| is within U |rho42_ss| / 2 of the steady one, at most
    half an ulp of it."""
    n0, nd, na = (np.abs(_augmented(a)).sum(axis=0).max() for a in terms._blocks[0])
    omega, delta = np.abs(omegas[:, None]), np.abs(detunings)
    with np.errstate(all="ignore"):  # a non-finite cell is not settled
        x -= x0[:8]
        distance = np.sqrt(np.einsum("...k,k,...k->...", x, _SCALE_SQUARED, x))
        decay = np.exp(-terms._floor.at(omega, delta) * t)
        reach = 2 * t * (n0 + delta * nd + omega * na)
        return np.isfinite(reach) & (4 * decay * distance <= _EPS * signal)


class SpectralReport(namedtuple("SpectralReport", "eigenvalues gap")):
    """Eigenvalues of the generator, sorted by descending real part, and
    the gap, |Re| of the slowest decaying mode."""

    __slots__ = ()


def spectral_report(liouvillian: np.ndarray) -> SpectralReport:
    """Eigenvalue summary; the gap sets the equilibration time scale.

    The map to real coordinates is a similarity, so these are the
    eigenvalues of propagate's two real 8x8 blocks, with its ValueErrors.
    All real parts are non-positive for a valid generator (one eigenvalue
    is zero up to rounding).
    """
    blocks = _real_generator(np.asarray(liouvillian, dtype=complex))
    eigs = np.concatenate([np.linalg.eigvals(g) for g in blocks], dtype=complex)
    eigs = eigs[np.argsort(-eigs.real)]
    return SpectralReport(eigenvalues=eigs, gap=float(-eigs[1].real))

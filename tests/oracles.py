"""Reference implementations the tests compare the simulator against.

None of these feed the simulator.  They keep the paper's derivations
checkable:

* the frame derivation, from the lab-frame Hamiltonian and the driven
  four-level system down to the static rotating-frame forms whose terms
  the generator is built from;
* the full SU(4) coherent state and Husimi value, of which the
  simulator's reduced Husimi section is one slice;
* the per-gate IMHD circuit, which the grid kernel evaluates in
  separable form, and the readout with the full scan rotation as a
  (..., 2, 2) stack, which the separable kernel must match within both
  kernels' derived rounding bounds;
* the one-point IMHD readout, the grid kernel at a single probe point
  beside the closed-form signal;
* the generator's affine terms assembled from ``np.kron`` products, which
  the terms built from the matrix units must equal in value, and their
  real blocks and ``at`` stacks bit for bit;
* a seeded draw of systems over J, both T1 and the purity factors'
  field and temperature, for checks beyond the default system;
* the singular values of a generator from its real blocks, which the
  steady state's certified degeneracy bound must never exceed;
* the steady state's earlier degeneracy bound from the inverses of both
  blocks, which the dissipator floor must never certify less than;
* the propagated and the steady Arnold tongue one row of density matrices
  at a time, whose values the engine's cell stacks must reproduce bit for
  bit (propagated) or its pole form meet within a derived kappa(V) eps
  bound (steady, ``pole_form_bound``);
* the per-value CSV writer, one ``format(x, ".17g")`` per cell, whose
  bytes the CLI's one-%-operation writers must reproduce;
* 40-digit mpmath evaluations of the grid visibility, of the IMHD
  reconstruction and of the steady-state floor's eigenvalues, with
  first-order rounding bounds for the double precision routes (``U`` is
  the unit roundoff 2^-53).

Matrices are in rad/s unless stated otherwise.
"""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc
from dataclasses import dataclass
from math import tau

import mpmath
import numpy as np

from spinsync import (
    HUSIMI_PREFACTOR,
    AffineLiouvillian,
    DriveConfig,
    SpinSystemConfig,
    build_affine_liouvillian,
    build_controlled_phase,
    build_jump_operators,
    build_pseudo_hadamard,
    detuning_term,
    drive_term,
    propagate,
    rotating_drift,
    spin_operator,
    steady_state,
    sync_measure_max,
    thermal_state,
    vectorize,
)
from spinsync.cli import dumps_json, resolved_config_dict
from spinsync.experiments import (
    ARNOLD_DETUNING_AXIS,
    ARNOLD_OMEGA_AXIS,
    linear_axis,
    log_axis,
)
from spinsync.imhd import _circuit_terms, _readout
from spinsync.liouville import _AUGMENT, _KEEP, _SCALE, _TO_REAL
from spinsync.phasespace import SYNC_COEFFICIENT, grid_axes

# --- frame derivation ---------------------------------------------------------


def larmor_frequencies(config) -> tuple[float, float]:
    """Lab-frame Larmor frequencies (omega_P, omega_F) in rad/s.

    omega = -gamma * B0; negative for the positive gyromagnetic ratios
    used here, so m = +1/2 states sit lowest.
    """
    b0 = config.field_tesla
    return (
        -tau * config.gamma_p_hz_per_tesla * b0,
        -tau * config.gamma_f_hz_per_tesla * b0,
    )


def build_lab_hamiltonian(config, larmor_p=None, larmor_f=None) -> np.ndarray:
    """Lab-frame Hamiltonian omega_P Iz^P + omega_F Iz^F + 2pi J Iz^P Iz^F.

    Larmor frequencies (rad/s) default to -gamma B0 from the config.
    """
    if larmor_p is None or larmor_f is None:
        wp, wf = larmor_frequencies(config)
        larmor_p = wp if larmor_p is None else larmor_p
        larmor_f = wf if larmor_f is None else larmor_f
    return (
        larmor_p * spin_operator("P", "z")
        + larmor_f * spin_operator("F", "z")
        + tau * config.j_coupling_hz * spin_operator("P", "z") @ spin_operator("F", "z")
    )


def build_rotating_hamiltonian(config, drive) -> np.ndarray:
    """Total doubly-rotating-frame Hamiltonian: drift plus drive."""
    return rotating_drift(config, drive) + drive_term(drive)


def build_four_level_drive_hamiltonian(
    level_frequencies, amplitude: float, drive_frequency: float, t: float
) -> np.ndarray:
    """Driven four-level Hamiltonian at time t, all arguments in rad/s.

    ``level_frequencies`` are (omega_1, ..., omega_4) by level label; the
    drive couples |2> and |4> with a phase rotating at ``drive_frequency``.
    """
    w1, w2, w3, w4 = np.asarray(level_frequencies, dtype=float)
    h = np.diag(np.array([w4, w3, w2, w1], dtype=complex))
    # |2><4| carries e^{+i w_d t}; rows are ordered |4>, |3>, |2>, |1>.
    h[2, 0] = amplitude * np.exp(1j * drive_frequency * t)
    h[0, 2] = np.conj(h[2, 0])
    return h


def build_reduced_rotating_hamiltonian(delta: float, amplitude: float) -> np.ndarray:
    """Static frame-rotated form: delta |4><4| + amplitude (|2><4| + h.c.).

    Arguments in rad/s.  At delta = 0 the eigenvalues are {+amplitude,
    -amplitude, 0, 0}.
    """
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = delta
    h[0, 2] = amplitude
    h[2, 0] = amplitude
    return h


def rotating_frame_unitary(
    level_frequencies, drive_frequency: float, t: float
) -> np.ndarray:
    """Unitary U(t) mapping the four-level lab frame to the drive frame.

    U = exp(i K t) with K diagonal: K = (omega_d + omega_2)|4><4|
    + omega_3 |3><3| + omega_2 |2><2| + omega_1 |1><1|.  Conjugating the
    time-dependent four-level Hamiltonian by U and adding i U' U^dagger
    yields the static reduced form with delta = (omega_4 - omega_2) -
    omega_d.
    """
    w1, w2, w3, w4 = np.asarray(level_frequencies, dtype=float)
    k = np.array([drive_frequency + w2, w3, w2, w1], dtype=float)
    return np.diag(np.exp(1j * k * t))


# --- full SU(4) Husimi distribution -------------------------------------------


def coherent_state_sun(n: int, thetas, phis) -> np.ndarray:
    """SU(n) coherent state from n-1 polar and n-1 azimuthal angles.

    Built by the recursion |n_k> = (cos(theta/2), e^{i phi} sin(theta/2)
    |n_{k-1}>), unrolled with absolute phases: component k > 1 carries
    e^{i phi_{k-1}} times a product of half-angle sines and one cosine.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if n < 2:
        raise ValueError("need n >= 2 levels")
    if thetas.shape != (n - 1,) or phis.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} polar and azimuthal angles")
    if np.any(thetas < 0.0) or np.any(thetas > math.pi):
        raise ValueError("polar angles must lie in [0, pi]")
    half = thetas / 2.0
    state = np.empty(n, dtype=complex)
    sine_running = 1.0
    for k in range(n - 1):
        state[k] = sine_running * math.cos(half[k])
        if k > 0:
            state[k] *= np.exp(1j * phis[k - 1])
        sine_running *= math.sin(half[k])
    state[n - 1] = sine_running * np.exp(1j * phis[n - 2])
    return state


@dataclass(frozen=True)
class CoherentStateSU4:
    """SU(4) coherent state angles; component i overlaps level |5-i>."""

    thetas: tuple[float, float, float]
    phis: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.thetas) != 3 or len(self.phis) != 3:
            raise ValueError("need three polar and three azimuthal angles")
        if any(t < 0.0 or t > math.pi for t in self.thetas):
            raise ValueError("polar angles must lie in [0, pi]")

    @property
    def vector(self) -> np.ndarray:
        return coherent_state_sun(4, self.thetas, self.phis)


def husimi_full(rho: np.ndarray, state: CoherentStateSU4) -> float:
    """Husimi value (24/pi^3) <n|rho|n> at one SU(4) coherent state."""
    n = state.vector
    return float(HUSIMI_PREFACTOR * np.real(n.conj() @ np.asarray(rho) @ n))


# --- per-gate IMHD circuit ----------------------------------------------------


def build_u_theta_phi(theta: float, phi: float, adjoint: bool = False) -> np.ndarray:
    """Scan rotation exp(-i phi Sz') exp(-i theta Sy') on P, identity on F.

    The scan axes are oriented so the pole is the m_P = -1/2 state;
    ``adjoint`` gives the inverse.
    """
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    z = np.exp(-0.5j * phi)
    u = np.kron(
        np.array([[z * c, -z * s], [z.conjugate() * s, z.conjugate() * c]]),
        np.eye(2),
    )
    return u.conj().T if adjoint else u


def build_j_evolution(config) -> np.ndarray:
    """Free scalar-coupling evolution for 1/(2J) seconds.

    Equal to the controlled phase up to a global phase and diagonal
    single-spin z rotations.
    """
    duration = 1.0 / (2.0 * config.j_coupling_hz)
    izz = spin_operator("P", "z") @ spin_operator("F", "z")
    angle = tau * config.j_coupling_hz * duration  # = pi
    return np.diag(np.exp(-1j * angle * np.diag(izz)))


def readout_trailing_axes(rho, theta, phi, variant):
    """Circuit signal and reconstructed Q with the scan rotation as a
    (..., 2, 2) stack: every check and contraction runs per 2x2 matrix.
    Angles must be valid arrays; nothing is checked."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    c, s, z = np.broadcast_arrays(c, s, np.exp(-0.5j * phi))
    r = np.stack(
        [np.stack([z * c, -z * s], -1), np.stack([z.conj() * s, z.conj() * c], -1)],
        -2,
    )
    dev = np.max(np.abs(r @ np.swapaxes(r.conj(), -1, -2) - np.eye(2)))
    if not dev <= 1e-12:
        raise ValueError(f"gate not unitary: deviation {dev:.3e}")
    rho = np.asarray(rho, dtype=complex)
    h = build_pseudo_hadamard().matrix
    cp = build_controlled_phase().matrix
    rho_h = (h @ rho @ h.conj().T).reshape(2, 2, 2, 2)
    a = (cp.conj().T @ spin_operator("F", "x") @ cp).reshape(2, 2, 2, 2)
    t = np.einsum("piqj,rjsi->pqrs", rho_h, a)
    signal = np.einsum("...ps,...qr,pqrs->...", r.conj(), r, t).real
    if variant == "exact-populations":
        spectator = (
            rho[3, 3].real * np.cos(theta / 2.0) ** 2
            + rho[1, 1].real * np.sin(theta / 2.0) ** 2
        )
        q = HUSIMI_PREFACTOR * (0.5 * (1.0 + 2.0 * signal) - spectator)
    else:
        q = HUSIMI_PREFACTOR * (signal + 0.25)
    return signal, q


@dataclass(frozen=True)
class ImhdReading:
    """One interferometric sample: signal and reconstructed Husimi value.

    ``signal`` is the gate-simulated transverse F magnetization, the
    ground truth; ``closed_form_signal`` is the algebraic prediction, which
    exceeds it by sin(theta) Re(rho31 e^{i phi}) and so matches it
    whenever rho31 = 0.
    """

    theta: float
    phi: float
    signal: float
    closed_form_signal: float
    q_value: float
    variant: str


def _closed_form_signal(rho: np.ndarray, theta: float, phi: float) -> float:
    pop_term = (rho[3, 3] - rho[2, 2] - rho[1, 1] + rho[0, 0]).real
    coh_term = 2.0 * np.real(rho[0, 2] * np.exp(1j * phi))
    return 0.5 * (math.cos(theta) * pop_term + math.sin(theta) * coh_term)


def run_imhd(
    rho: np.ndarray,
    theta: float,
    phi: float,
    variant: str = "exact-populations",
) -> ImhdReading:
    """Simulate the readout circuit at one (theta, phi) probe point.

    The one-point case of the grid kernel ``imhd_scan`` uses, with the
    closed-form signal next to the simulated one.  The exact
    variant subtracts the spectator populations rho11 and rho33; its
    reconstruction differs from the reduced Husimi value by
    -(24/pi^3) sin(theta) Re(rho31 e^{i phi}).  The quarter variant
    approximates both populations by 1/4, adding an error bounded by
    (24/pi^3) (|rho11 - 1/4| + |rho33 - 1/4|).  Angles must be finite
    with theta in [0, pi].
    """
    signal, q = _readout(rho, theta, phi, variant)
    return ImhdReading(
        theta=theta,
        phi=phi,
        signal=float(signal),
        closed_form_signal=_closed_form_signal(np.asarray(rho), theta, phi),
        q_value=float(q),
        variant=variant,
    )


# --- generator terms from Kronecker products -----------------------------------


def kron_commutator(h0) -> np.ndarray:
    """-i[H, .] as -i (I kron H - H^T kron I), H the Hermitian part of h0."""
    h = np.asarray(h0, dtype=complex)
    h = 0.5 * (h + h.conj().T)
    eye = np.eye(h.shape[0], dtype=complex)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


def kron_l0(h0, jump_matrices) -> np.ndarray:
    """Drift commutator plus each dissipator, one np.kron per product,
    added in list order."""
    l0 = kron_commutator(h0)
    eye = np.eye(4, dtype=complex)
    for o in jump_matrices:
        odo = o.conj().T @ o
        l0 += (
            np.kron(o.conj(), o)
            - 0.5 * np.kron(eye, odo)
            - 0.5 * np.kron(odo.T, eye)
        )
    return l0


def kron_affine_liouvillian(config) -> AffineLiouvillian:
    """``build_affine_liouvillian`` with every product from np.kron."""
    jumps = [jump.matrix for jump in build_jump_operators(config)]
    return AffineLiouvillian(
        base=kron_l0(rotating_drift(config, DriveConfig(amplitude_hz=0.0)), jumps),
        per_detuning=kron_commutator(detuning_term(1.0)),
        per_amplitude=kron_commutator(drive_term(DriveConfig(amplitude_hz=1.0))),
    )


# --- a seeded draw of systems ---------------------------------------------------


def random_systems(n: int, seed: int) -> list[SpinSystemConfig]:
    """n systems from NumPy's generator seeded with ``seed``, each drawn
    log-uniformly: J over 100-5000 Hz (offset_P the default -J/2), T1P and
    T1F over 1-1000 s, and a field over 1-25 T and a temperature over
    4-400 K, which set the purity factors (``default_purity_factors``)."""
    rng = np.random.default_rng(seed)
    draws = 10.0 ** rng.uniform(
        np.log10([100.0, 1.0, 1.0, 1.0, 4.0]),
        np.log10([5000.0, 1000.0, 1000.0, 25.0, 400.0]),
        size=(n, 5),
    )
    return [
        SpinSystemConfig(
            j_coupling_hz=j, t1_p_s=t1_p, t1_f_s=t1_f,
            field_tesla=field, temperature_k=temperature,
        )
        for j, t1_p, t1_f, field, temperature in draws.tolist()
    ]


# --- singular values of the generator -----------------------------------------


def singular_values(g0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Singular values of a generator (or stack), descending, from its real
    blocks: those of the order-0 block with the unitary scaling and of the
    order +-1 block, which the scaling leaves as it is."""
    scaled = g0 * (_SCALE[:8, None] / _SCALE[:8])
    s = np.concatenate(
        [np.linalg.svd(block, compute_uv=False) for block in (scaled, b)], axis=-1
    )
    return np.sort(s, axis=-1)[..., ::-1]


def inverse_degeneracy_bound(g0: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The steady state's earlier certified bound on sigma_-2 / sigma_0 of a
    real generator (or stack), given as its blocks: min(1 / (2 ||A^-1||_F),
    1 / ||B^-1||_F) / ||L||_F, with A the order-0 block's 7x7 deviation
    matrix and B the order +-1 block (Courant-Fischer on the deviation
    embedding, of 2-norm 2, and sigma_min(M) >= 1 / ||M^-1||_F)."""
    a = (g0[..., _KEEP, :] @ _AUGMENT)[..., :7]
    scaled = g0 * (_SCALE[:8, None] / _SCALE[:8])
    norm = np.sqrt((scaled**2).sum(axis=(-2, -1)) + (b**2).sum(axis=(-2, -1)))
    return np.minimum(
        0.5 / np.linalg.norm(np.linalg.inv(a), axis=(-2, -1)),
        1.0 / np.linalg.norm(np.linalg.inv(b), axis=(-2, -1)),
    ) / norm


def mp_decay_floor(g0: np.ndarray, b: np.ndarray) -> tuple[mpmath.mpf, mpmath.mpf]:
    """The least eigenvalues of -sym of a real generator's order-0 block on
    the traceless coordinates and of its order +-1 block, in the unitarily
    scaled coordinates, by 40-digit ``mpmath.eigsy`` of the exact matrices.
    The traceless basis is Helmert's (1, -1, 0, 0) / sqrt 2, (1, 1, -2, 0) /
    sqrt 6, (1, 1, 1, -3) / sqrt 12 on the populations, and the coherences."""
    with mpmath.workdps(40):
        scale = [mpmath.mpf(1)] * 4 + [mpmath.sqrt(2)] * 4
        m0, mb = mpmath.matrix(8, 8), mpmath.matrix(8, 8)
        for i in range(8):
            for j in range(8):
                m0[i, j] = scale[i] * mpmath.mpf(float(g0[i, j])) / scale[j]
                mb[i, j] = mpmath.mpf(float(b[i, j]))
        basis = mpmath.matrix(8, 7)
        for k in range(3):
            norm = mpmath.sqrt((k + 1) * (k + 2))
            for i in range(k + 1):
                basis[i, k] = 1 / norm
            basis[k + 1, k] = -(k + 1) / norm
        for k in range(4):
            basis[4 + k, 3 + k] = 1
        h0 = basis.T * (-(m0 + m0.T) / 2) * basis
        blocks = (h0, -(mb + mb.T) / 2)
        return tuple(min(mpmath.eigsy(h, eigvals_only=True)) for h in blocks)


# --- per-value CSV writer -------------------------------------------------------


def format_number(x) -> str:
    """17 significant digits for floats; ints and bools as JSON writes them."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def csv_cells(values, *axes):
    """Formatted (axis..., value) rows in row-major order, one call per value."""
    labels = [[format_number(x) for x in axis] for axis in axes]
    for key, value in zip(itertools.product(*labels), values.flat):
        yield (*key, format_number(value))


def csv_text(rc, kind: str, columns, rows) -> str:
    """CSV under the reproducibility header; ``rows`` yields formatted cells."""
    blob = dumps_json(resolved_config_dict(rc), indent=None)
    lines = [f"# spinsync {kind}", f"# config {blob}", ",".join(columns)]
    lines += map(",".join, rows)
    return "\n".join(lines) + "\n"


def grid_csv(grid, rc) -> str:
    rows = csv_cells(grid.values, grid.thetas, grid.phis)
    return csv_text(rc, "husimi-grid", ("theta", "phi", "Q"), rows)


def sweep_csv(result, rc) -> str:
    rows = csv_cells(result.values, *result.axes.values())
    columns = (*result.axes, "observable")
    return csv_text(rc, f"sweep {result.observable}", columns, rows)


def series_csv(points, rc) -> str:
    rows = (
        map(format_number, (p.duration_s, p.visibility, p.coherence_abs))
        for p in points
    )
    columns = ("duration_s", "visibility", "abs_coherence")
    return csv_text(rc, "drive-series", columns, rows)


# --- row-by-row propagated tongue ----------------------------------------------


def propagated_tongue_rows(config, omegas, detunings, duration_s) -> np.ndarray:
    """The propagated Arnold tongue one row at a time, as the engine once
    computed it: each row's 16x16 generators from the shared affine terms,
    propagated to density matrices by ``propagate``, then max-sync of each."""
    rho0 = thermal_state(config)
    terms = build_affine_liouvillian(config)
    values = np.empty((len(omegas), len(detunings)))
    for i, omega in enumerate(omegas):
        row = terms.at(omega, np.asarray(detunings, dtype=float))
        values[i] = sync_measure_max(propagate(row, rho0, duration_s))
    return values


def steady_tongue_rows(config, omegas, detunings) -> np.ndarray:
    """The steady Arnold tongue one row at a time by the single-drive solve:
    each row's 16x16 generators from the shared affine terms, solved to
    density matrices by ``steady_state``, then max-sync of each."""
    terms = build_affine_liouvillian(config)
    values = np.empty((len(omegas), len(detunings)))
    for i, omega in enumerate(omegas):
        row = terms.at(omega, np.asarray(detunings, dtype=float))
        values[i] = sync_measure_max(steady_state(row))
    return values


# The grids and systems each tongue is checked on, by id: stacks of the
# propagated tongue split the default grid's rows.
TONGUE_TEST_GRIDS = {
    "default": (log_axis(*ARNOLD_OMEGA_AXIS), linear_axis(*ARNOLD_DETUNING_AXIS)),
    "one-cell": ([0.1], [0.0]),
    "strong-wide": (np.logspace(-2, 3, 7), np.linspace(-50.0, 50.0, 11)),
}
STEADY_TEST_SYSTEMS = {
    "default": {}, "J217": {"j_coupling_hz": 217.0}, "T1P7": {"t1_p_s": 7.0}
}


def traced_peak(call) -> int:
    """The traced peak memory of a second call (shared terms and lazy
    imports outside).  One full collection first, then none until the
    traced call returns: a collection between the two calls empties
    NumPy's and CPython's free lists, and the traced call would count
    their refill (1,240 B more on the steady tongue)."""
    gc.collect()
    gc.disable()
    try:
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()


# Traced peaks of the default tongue as measured (traced_peak), kept as
# fixed counts: a bound read from a comparator at run time would move with
# the engine it runs.  The propagated bound is the real row loop's, which
# summed each row's 16x16 real generators from the terms, with the two
# blocks on the diagonal, and ran the engine's _propagate on the row's
# block views (t = 100 s); it bounds the 40 s tongue, every cell propagated
# (331,160 B).  The pole-form bound is the largest peak of the tongues that
# run liouville._tongue's pole form pass: the steady tongue (249,688 B) and
# the settled 100 s and 62 s ones (250,672 B each, in a fresh process; a
# few hundred bytes less in the suite), plus 4,096 B for the free lists a
# call may refill (1,240 B seen).  The pass traced 299,848 B before it freed
# its solve stacks early, and the per-cell row loop before it 648,400 B.
PROPAGATED_ROW_LOOP_PEAK_BYTES = 337_960
POLE_FORM_PEAK_BYTES = 250_672 + 4_096

# The pole form against the single-drive solve, in U kappa_2(V) ||y||_2.
POLE_ULPS = 28


def pole_form_bound(config, omegas, detunings) -> np.ndarray:
    """A bound on |pole form - single-drive solve| for each max-sync cell of
    a steady tongue: SYNC_COEFFICIENT POLE_ULPS U kappa_2(V) ||y||_2, with V
    the unit eigenvectors of the row's K = A_0^-1 D and y the cell's
    deviation coordinates from the solve.

    Rounding model, first order in U, 2-norms, n = 7: the pole form
    evaluates y = V z, z = (I + delta Lambda)^-1 V^-1 y(0), so ||z|| <=
    ||V^-1|| ||y|| and, with ||V|| <= sqrt(n), the n-term sums of V z round
    by at most n U ||V|| ||z|| <= n U kappa(V) ||y||.  The eigensolver's
    backward error (K V - V Lambda of relative size p U, p = n taken) and
    the solve for V^-1 y(0) move z by at most as much again: 2n U kappa(V)
    ||y||.  The row's solve for K and y(0) and the single-drive solve are
    backward stable on the same entries; their difference, not derived
    here, is allowed another 2n U kappa(V) ||y|| and measured at most 0.29
    U kappa(V) ||y|| in all, over 63 random systems (J 100-5000 Hz, T1 1-1000
    s) and drives (0.01-1000 Hz, detunings to 1 kHz).  So POLE_ULPS = 4n.
    |rho42| is 1-Lipschitz in (Re, Im) rho42, two of y's coordinates."""
    terms = build_affine_liouvillian(config)
    omegas, detunings = np.asarray(omegas, float), np.asarray(detunings, float)
    order_zero = terms._blocks[0]
    aug = order_zero.at(omegas)[..., _KEEP, :] @ _AUGMENT
    d = (order_zero.per_detuning[_KEEP] @ _AUGMENT)[:, :7]
    k = np.linalg.solve(aug[..., :7], np.broadcast_to(d, aug[..., :7].shape))
    kappa = np.linalg.cond(np.linalg.eig(k)[1])
    rho = steady_state(terms.at(omegas[:, None], detunings))
    x = (vectorize(rho) @ _TO_REAL.T).real
    y = x[..., _KEEP] - np.where(np.arange(7) < 3, 0.25, 0.0)
    deviation = np.linalg.norm(y, axis=-1)
    return SYNC_COEFFICIENT * POLE_ULPS * U * kappa[:, None] * deviation


# --- 40-digit references and rounding bounds -------------------------------------

# Bounds of the max-sync solvers against 40-digit references, as shares of
# the tongue maximum: about 10x the worst error seen, on the tongue cells of
# oracle_cells (tests/test_liouville.py) for the steady state (BENCH_10.json)
# and on all 861 default-tongue cells and the 1e4 and 1e7 s limits for
# propagation (4.1e-15, BENCH_11.json).
STEADY_BOUND = 4e-15
PROPAGATE_BOUND = 5e-14
# The propagator at strong drives, by duration, as shares of the maximum of
# the strong-wide tongue at that duration: twice the worst error against
# the 40-digit expm of high_precision_propagated_max_sync
# (tests/test_liouville.py) over its 147 Hz and 1 kHz rows (22 cells) on
# each of STEADY_TEST_SYSTEMS, driven from the thermal state by the state
# entry (liouville._state).  Measured 2.21e-12 at 1 s, 3.32e-13 at 10 s and
# 4.12e-13 at 100 s; the error follows U ||A t||_1 times the populations'
# deviation from I / 4 until the floor damps it, so it is largest at 1 s,
# where drives of 3.16 Hz already miss by 1.75e-12.
STRONG_PROPAGATE_BOUND = {1.0: 4.5e-12, 10.0: 6.7e-13, 100.0: 8.3e-13}
# The same check on the strong-wide grid's weak rows, 0.01 to 3.16 Hz (44
# cells per system and duration), at the short durations where the miss is
# largest: twice the worst error over STEADY_TEST_SYSTEMS, measured
# 1.75e-12 at 1 s (3.16 Hz on resonance, J = 217 Hz) and 3.99e-15 at 10 s
# (0.01 Hz on resonance, J = 217 Hz).
WEAK_PROPAGATE_BOUND = {1.0: 3.6e-12, 10.0: 8.0e-15}

# Unit roundoff.  The bounds below take NumPy's float64 sin and cos (and
# so exp of an imaginary argument), validated to 1 ulp, as off by 2 U.
U = 2.0**-53

# The Haar quadrature's completeness error at its default orders (32, 64),
# in U of pi^3 / 24: a measured floor of 31.0 against the exact integral
# (pi^3 / 24) I at 40 digits (tests/test_phasespace.py), allowed 4.1x.  The
# normalization, the sync-measure quadrature and the order-halving checks
# take it too, at 3.3-4.4x their own measured floors (each test states its).
HAAR_ULPS = 128


def _mp(z) -> mpmath.mpc:
    """A double or complex double, exactly."""
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def mp_visibility(rho: np.ndarray, n_theta: int, n_phi: int) -> mpmath.mpf:
    """Visibility of the ``grid_axes`` grid's theta-summed profile at 40
    digits: every Q(theta, phi) / (24/pi^3) and every column sum of the
    double sum, at the double-precision angles and entries of rho."""
    thetas, phis = grid_axes(n_theta, n_phi)
    with mpmath.workdps(40):
        r44, r22, r42 = _mp(rho[0, 0]).real, _mp(rho[2, 2]).real, _mp(rho[0, 2])
        rows = [
            (mpmath.cos(t / 2) ** 2, mpmath.sin(t / 2) ** 2, mpmath.sin(t))
            for t in map(mpmath.mpf, thetas)
        ]
        profile = []
        for phi in map(mpmath.mpf, phis):
            coherence = mpmath.re(r42 * mpmath.expj(phi))
            profile.append(
                mpmath.fsum(r44 * c2 + r22 * s2 + w * coherence for c2, s2, w in rows)
            )
        top, bottom = max(profile), min(profile)
        return (top - bottom) / (top + bottom)


def _profile_scale(rho: np.ndarray, n_theta: int) -> tuple[float, float]:
    """Base b = rho44 C + rho22 S and deviation amplitude W |rho42| of the
    theta-summed profile (see ``state_visibility``)."""
    thetas = grid_axes(n_theta, 2)[0]
    base = (
        rho[0, 0].real * np.sum(np.cos(thetas / 2.0) ** 2)
        + rho[2, 2].real * np.sum(np.sin(thetas / 2.0) ** 2)
    )
    return float(base), float(np.sum(np.sin(thetas)) * abs(rho[0, 2]))


def state_visibility_bound(rho: np.ndarray, n_theta: int, n_phi: int) -> float:
    """First-order bound on the relative error of ``state_visibility``.

    With A = |rho42|, W = sum sin(theta) and b = rho44 C + rho22 S:
    C and S take cos^2 or sin^2 (2 U + 2 U + U) and a correctly rounded
    sum (U/2), W a sine and the sum (2.5 U); so b carries 7.5 U.  Each
    Re(rho42 e^{i phi}) takes cos, sin (2 U), two products and their
    difference: 3 U (|Re a| + |Im a|) + U A <= (3 sqrt 2 + 1) U A; times
    W adds 3.5 U, so each deviation is off by at most e = 8.75 U W A.
    The numerator (2 e + U N) has N >= 2 W A cos(pi / n_phi), since a
    grid point lies within pi / n_phi of each extremum; the denominator
    2 b + top + bottom (two additions) is off by at most 15 U b + 2 e +
    2 U (2 b + 2 W A) and is at least 2 b - 2 W A; the quotient adds U.
    """
    base, amplitude = _profile_scale(np.asarray(rho), n_theta)
    numerator = 8.75 / math.cos(math.pi / n_phi) + 1.0
    denominator = (19.0 * base + 21.5 * amplitude) / (2.0 * (base - amplitude))
    return U * (numerator + denominator + 1.0)


def grid_visibility_bound(rho: np.ndarray, n_theta: int, vis: float) -> float:
    """First-order bound on the absolute error of ``visibility(husimi_grid(
    rho, n_theta, n_phi))`` against its exact value on the same grid.

    Each Q value takes cos^2 or sin^2 (5 U), a product with a population
    (6 U), their sum (7 U), the addition of the coherence term (8 U) and
    the prefactor product (9 U), whose own rounding scales every value
    alike and cancels; the coherence term Re(rho42 e^{i phi}) sin(theta)
    is off by at most (3 sqrt 2 + 4) U A sin(theta) <= 8.25 U A sin(theta)
    besides.  Summing n_theta positive values in any order adds
    (n_theta - 1) U of the column sum, so each column is off by E <= (n_theta + 8) U p + 8.25 U W A, p its
    sum.  Then |dV| <= 2 E (1 + V) / (p_max + p_min) + 3 U V, with
    2 p_max / (p_max + p_min) = 1 + V and p_min >= b - W A.
    """
    base, amplitude = _profile_scale(np.asarray(rho), n_theta)
    column = (n_theta + 8.0) * (1.0 + vis) + 8.25 * amplitude / (base - amplitude)
    return U * ((1.0 + vis) * column + 3.0 * vis)


def mp_readout(rho: np.ndarray, theta: float, phi: float) -> mpmath.mpf:
    """Exact-populations IMHD reconstruction Q / (24/pi^3) at 40 digits:
    1/2 (1 + 2 s) minus the spectator populations, where the circuit
    signal s is the closed form less sin(theta) Re(rho31 e^{i phi})."""
    with mpmath.workdps(40):
        t, e = mpmath.mpf(theta), mpmath.expj(mpmath.mpf(phi))
        p = [_mp(rho[k, k]).real for k in range(4)]
        closed = (
            mpmath.cos(t) * (p[3] - p[2] - p[1] + p[0])
            + 2 * mpmath.sin(t) * mpmath.re(_mp(rho[0, 2]) * e)
        ) / 2
        signal = closed - mpmath.sin(t) * mpmath.re(_mp(rho[1, 3]) * e)
        spectator = p[3] * mpmath.cos(t / 2) ** 2 + p[1] * mpmath.sin(t / 2) ** 2
        return (1 + 2 * signal) / 2 - spectator


def signal_bound(rho: np.ndarray, theta, phi, trailing: bool = False):
    """First-order bound on the rounding of the circuit signal of
    ``_readout`` (with ``trailing``, of ``readout_trailing_axes``) at
    broadcast probe angles.

    Rounding model, first order in U: each basic operation is exact up to
    a factor 1 + d with |d| <= U, doubling and halving are exact, and the
    library cos, sin and exp are taken as within 1 ulp, 2 U relative
    (NumPy's cos and sin measure 0.51 ulp on 40,000 angles against mpmath).

    A complex inner product of length n, in any order of its 2n real
    products and sums, is off by at most 2 sqrt(2) n U times the sum of
    |x||y|.  H = [[1, -1], [1, 1]] / sqrt 2 carries 2 U, so rho_H = H rho
    H^dagger (two length-4 products) is off by (16 sqrt 2 + 4) U R with
    R = |H| |rho| |H|^T, and the contraction t with A (length 4), and so
    each of its parts, by (24 sqrt 2 + 4) U T, T its magnitude.

    Separable order: u[p, s] u[q, r] carries 5 U (cos or sin of theta/2
    twice, one product), its product with a part of t 1 U more, and the
    four terms summed in order add 3 U of their magnitudes, so each table
    part is off by (24 sqrt 2 + 13) U M[p, q] <= 47 U M[p, q], with
    M[p, q] = sum_rs |u[p, s]| |u[q, r]| T[p, q, r, s].  On the grid,
    cos phi and sin phi carry 2 U and their products with the parts of T01
    1 U more; their difference, T00 + T11 and the final sum add 1 U of
    their operands.  So the signal is off by at most 52 U S, with
    S = M00 + M11 + 2 M01 (|cos phi| + |sin phi|).

    Trailing order: each scan-rotation entry carries 5 U (cos, sin, exp
    and one product); the signal, 16 triple products (4 sqrt 2 U) summed
    (15 U) and its real part taken, is off by (28 sqrt 2 + 29) U S
    <= 69 U S, S = sum |r| |r| T = sum M, as |r[p, s]| = |u[p, s]|.
    """
    h, a = _circuit_terms()
    magnitude = (np.abs(h) @ np.abs(np.asarray(rho)) @ np.abs(h).T).reshape(2, 2, 2, 2)
    t = np.einsum("piqj,rjsi->pqrs", magnitude, np.abs(a))
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    c, s = np.abs(np.cos(theta / 2.0)), np.abs(np.sin(theta / 2.0))
    u = np.array([[c, s], [s, c]])
    m = np.einsum("ps...,qr...,pqrs->pq...", u, u, t)
    if trailing:
        return 69.0 * U * m.sum(axis=(0, 1))
    turn = np.abs(np.cos(phi)) + np.abs(np.sin(phi))
    return 52.0 * U * (m[0, 0] + m[1, 1] + 2.0 * m[0, 1] * turn)


def readout_bound(
    rho: np.ndarray, theta, phi, variant: str = "exact-populations",
    trailing: bool = False,
):
    """First-order bound on |q - P q*| / P of ``_readout`` (with
    ``trailing``, of ``readout_trailing_axes``) at broadcast probe angles,
    q* the variant's exact reconstruction (``mp_readout`` for the exact
    populations) and P the double ``HUSIMI_PREFACTOR``.

    Under ``signal_bound``'s rounding model the signal s is off by its
    ``signal_bound``.  For the exact populations, 1/2 (1 + 2 s) adds U y,
    the spectator sigma (cos^2, product, sum) 7 U sigma, and the
    difference and the prefactor product 2 U |y - sigma|.  For the quarter
    approximation, s + 1/4 and the prefactor product add 2 U |s + 1/4|.
    """
    kernel = readout_trailing_axes if trailing else _readout
    signal, _ = kernel(rho, theta, phi, variant)
    bound = signal_bound(rho, theta, phi, trailing)
    if variant == "quarter-approximation":
        return bound + 2.0 * U * np.abs(signal + 0.25)
    y = 0.5 + signal
    half = np.asarray(theta) / 2.0
    sigma = rho[3, 3].real * np.cos(half) ** 2 + rho[1, 1].real * np.sin(half) ** 2
    return bound + U * (np.abs(y) + 7.0 * sigma + 2.0 * np.abs(y - sigma))

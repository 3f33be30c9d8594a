"""Output oracle: independent checks of every CLI output the benchmark makes.

Nothing here calls spinsync.  The generator is rebuilt from the physics,
using the resolved config each output embeds in its header, and:

* propagated cells are checked against DOP853 ``solve_ivp``: the adaptive
  integrator gives the map for a step of 1/1280 s (under one period of the
  fastest coherence), and the state is stepped through that map to each
  duration;
* steady cells are checked against a trace-constrained linear solve with
  one refinement step, and the ``steady`` job's matrix by its residual;
* Husimi grids and IMHD reports are checked against the closed-form
  reduced Husimi distribution and a batched simulation of the circuit.

Every bound is a multiple of the physical signal, a coherence
|rho42| = 2e-6 on populations of about 1/4, never of ||rho||.  Each
``*_REL`` constant is ten times the largest error seen over many cells at
the seed commit, rounded up to a power of ten, so a later engine with the
same error floor passes and an error anywhere near the signal does not.
The checks never assert that a tongue row peaks on resonance: that clause
of acceptance criterion 4 is false for this model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

SIGNAL = 2e-6  # |rho42| of a typical driven steady state
HUSIMI_PREFACTOR = 24.0 / math.pi**3
SYNC_COEFFICIENT = 1.0 / (16.0 * math.pi**2)
STEP_S = 1.0 / 1280.0  # DOP853 step map; divides every duration used

# Error bounds as shares of the signal: ten times the largest error seen at
# the seed commit, rounded up to a power of ten (README.md has the floors).
PROP_REL = 1e-6  # |rho42| of propagated cells; floor 1.6e-8
STEADY_REL = 1e-6  # |rho42| of steady cells; floor 3.7e-8
RESIDUAL_REL = 1e-5  # steady job: residual / sigma_{n-1}; floor 8.6e-7
SYM_REL = 1e-6  # tongue symmetry S(d) = S(-d), |rho42| units; floor 3.5e-8
GRID_REL = 1e-6  # Husimi values, units of (24/pi^3) * SIGNAL; floor 1.3e-8
IMHD_REL = 1e-9  # reported IMHD deviation, same units; floor 3.6e-11

# --- independent model -------------------------------------------------------

_I2 = np.eye(2, dtype=complex)
# single-spin operators in the (m = -1/2, m = +1/2) ordering
_SZ = np.diag([-0.5, 0.5]).astype(complex)
_SY = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
_SX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
# product basis (m_P, m_F), P the slow index: |4>=(-,-) |3>=(-,+) |2>=(+,-) |1>=(+,+)
_M = (-0.5, 0.5)


def _op(species: str, single: np.ndarray) -> np.ndarray:
    return np.kron(single, _I2) if species == "P" else np.kron(_I2, single)


def _index(m_p: float, m_f: float) -> int:
    return 2 * _M.index(m_p) + _M.index(m_f)


def generator(cfg: dict, amplitude: float, detuning: float) -> np.ndarray:
    """16x16 Lindblad generator, column-stacked vec, rad/s."""
    tau = 2.0 * math.pi
    pz, fz = _op("P", _SZ), _op("F", _SZ)
    h = (
        -tau * (cfg["offset_p_hz"] + detuning) * pz
        - tau * cfg["offset_f_hz"] * fz
        + tau * cfg["j_coupling_hz"] * pz @ fz
        + tau * amplitude * _op("P", _SY)
    )
    eye = np.eye(4, dtype=complex)
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for species, t1, eps in (
        ("P", cfg["t1_p_s"], cfg["epsilon_p"]),
        ("F", cfg["t1_f_s"], cfg["epsilon_f"]),
    ):
        rate = tau / t1
        p_up = 1.0 / (math.exp(4.0 * eps) + 1.0)
        for spectator in _M:
            # m = +1/2 is the lower-energy orientation of the flipping spin
            if species == "P":
                lower, upper = _index(0.5, spectator), _index(-0.5, spectator)
            else:
                lower, upper = _index(spectator, 0.5), _index(spectator, -0.5)
            for p, src, dst in ((p_up, lower, upper), (1.0 - p_up, upper, lower)):
                o = np.zeros((4, 4), dtype=complex)
                o[dst, src] = math.sqrt(rate * p)
                odo = o.conj().T @ o
                gen += (
                    np.kron(o.conj(), o)
                    - 0.5 * np.kron(eye, odo)
                    - 0.5 * np.kron(odo.T, eye)
                )
    return gen


def thermal(cfg: dict) -> np.ndarray:
    """Product of per-spin Boltzmann weights, ratio exp(-4 eps) per flip."""
    def weights(eps: float) -> tuple[float, float]:
        w_minus = 1.0 / (1.0 + math.exp(4.0 * eps))
        return w_minus, 1.0 - w_minus

    wp, wf = weights(cfg["epsilon_p"]), weights(cfg["epsilon_f"])
    return np.diag([wp[i] * wf[j] for i in (0, 1) for j in (0, 1)]).astype(complex)


def vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    return v.reshape((4, 4), order="F")


def propagate(gen: np.ndarray, rho0: np.ndarray, durations) -> list[np.ndarray]:
    """States at each (ascending) duration, from DOP853 step maps."""
    sol = solve_ivp(
        lambda _, y: (gen @ y.reshape(16, 16)).ravel(),
        (0.0, STEP_S), np.eye(16, dtype=complex).ravel(),
        method="DOP853", rtol=1e-13, atol=1e-16,
    )
    if not sol.success:
        raise RuntimeError(f"DOP853 failed: {sol.message}")
    step = sol.y[:, -1].reshape(16, 16)
    v, done, out = vec(rho0), 0, []
    for t in durations:
        n = round(t / STEP_S)
        if abs(n * STEP_S - t) > 1e-12 * max(t, 1.0):
            raise ValueError(f"duration {t} is not a multiple of {STEP_S}")
        for _ in range(n - done):
            v = step @ v
        done = n
        out.append(unvec(v.copy()))
    return out


def steady(gen: np.ndarray) -> np.ndarray:
    """Null vector with unit trace: one row replaced by the trace row."""
    a = gen.copy()
    a[0] = vec(np.eye(4, dtype=complex))
    b = np.zeros(16, dtype=complex)
    b[0] = 1.0
    x = np.linalg.solve(a, b)
    x = x + np.linalg.solve(a, b - a @ x)  # one refinement step
    rho = unvec(x)
    return 0.5 * (rho + rho.conj().T)


def husimi(rho: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Closed-form reduced Husimi Q on the |4>,|2> section."""
    th, ph = thetas[:, None], phis[None, :]
    return HUSIMI_PREFACTOR * (
        rho[0, 0].real * np.cos(th / 2.0) ** 2
        + rho[2, 2].real * np.sin(th / 2.0) ** 2
        + np.real(rho[0, 2] * np.exp(1j * ph)) * np.sin(th)
    )


def grid_axes(n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.linspace(0.0, math.pi, n_theta),
        np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False),
    )


def visibility(q: np.ndarray) -> float:
    profile = q.sum(axis=0)
    return float((profile.max() - profile.min()) / (profile.max() + profile.min()))


def imhd_signal_grid(rho: np.ndarray, thetas, phis) -> np.ndarray:
    """Exact-populations IMHD reconstruction, all probe points at once.

    Circuit: pseudo-Hadamard on F, inverse scan rotation on P, controlled
    phase, then <F_x>; the spectator populations rho33 and rho11 are
    subtracted as the exact-populations variant prescribes.
    """
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    c, s = np.cos(th / 2.0), np.sin(th / 2.0)
    ry = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2).astype(complex)
    rz = np.zeros(th.shape + (2, 2), dtype=complex)
    rz[..., 0, 0], rz[..., 1, 1] = np.exp(-0.5j * ph), np.exp(0.5j * ph)
    scan = rz @ ry
    u = np.einsum("...ab,cd->...acbd", scan, _I2).reshape(th.shape + (4, 4))
    had = np.kron(_I2, np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0))
    g = np.diag([1.0, 1.0, 1.0, -1.0]) @ np.conj(np.swapaxes(u, -1, -2)) @ had
    fx = _op("F", _SX)
    sig = np.real(np.einsum("...ij,jk,...lk,li->...", g, rho, g.conj(), fx))
    spectator = rho[3, 3].real * c**2 + rho[1, 1].real * s**2
    return HUSIMI_PREFACTOR * (0.5 * (1.0 + 2.0 * sig) - spectator)


# --- output parsing ----------------------------------------------------------


def read_csv(path: Path) -> tuple[dict, list[str], np.ndarray]:
    """(resolved config, column names, rows) of a spinsync CSV output."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    config = None
    body = []
    for line in lines:
        if line.startswith("# config "):
            config = json.loads(line[len("# config "):])
        elif not line.startswith("#"):
            body.append(line)
    if config is None:
        raise ValueError(f"{path}: no config header")
    columns = body[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in body[1:]])
    return config, columns, rows


# --- checks ------------------------------------------------------------------


@dataclass
class Report:
    """Problems found, and the worst error/bound ratio per check."""

    problems: list[str] = field(default_factory=list)
    ratios: dict[str, float] = field(default_factory=dict)

    def bound(self, name: str, error: float, limit: float) -> None:
        ratio = float(error) / limit
        self.ratios[name] = max(self.ratios.get(name, 0.0), ratio)
        if not ratio <= 1.0:
            self.problems.append(f"{name}: error {error:.3e} exceeds {limit:.3e}")

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=1e-13, atol=0.0))


def check_arnold(job, inp, rc: int, rng: np.random.Generator,
                 steady_cells: bool, n_sample: int, report: Report) -> None:
    cfg, columns, rows = read_csv(job.outputs[0])
    report.require(rc == 0, f"{job.name}: exit code {rc}")
    report.require(columns == ["omega_hz", "detuning_hz", "observable"],
                   f"{job.name}: columns {columns}")
    n_o, n_d = int(job.argv[job.argv.index("--n-omega") + 1]), int(
        job.argv[job.argv.index("--n-detuning") + 1])
    report.require(rows.shape == (n_o * n_d, 3), f"{job.name}: shape {rows.shape}")
    omegas = np.logspace(math.log10(inp.omega_min), math.log10(inp.omega_max), n_o)
    detunings = np.linspace(-inp.detuning_span, inp.detuning_span, n_d)
    report.require(_close(rows[:, 0], np.repeat(omegas, n_d))
                   and _close(rows[:, 1], np.tile(detunings, n_o)),
                   f"{job.name}: axes differ from the requested grid")
    values = rows[:, 2].reshape(n_o, n_d)
    report.require(bool(np.all(np.isfinite(values)) and np.all(values >= 0.0)),
                   f"{job.name}: non-finite or negative values")
    report.bound(f"{job.name}.symmetry",
                 np.max(np.abs(values - values[:, ::-1])) / SYNC_COEFFICIENT,
                 SYM_REL * SIGNAL)
    rho0 = thermal(cfg)
    for cell in rng.choice(values.size, size=n_sample, replace=False):
        i, j = divmod(int(cell), n_d)
        gen = generator(cfg, omegas[i], detunings[j])
        if steady_cells:
            rho = steady(gen)
            name, rel = f"{job.name}.steady_cell", STEADY_REL
        else:
            (rho,) = propagate(gen, rho0, [job_duration(job)])
            name, rel = f"{job.name}.dop853_cell", PROP_REL
        report.bound(name, abs(values[i, j] / SYNC_COEFFICIENT - abs(rho[0, 2])),
                     rel * SIGNAL)


def job_duration(job) -> float:
    return float(job.argv[job.argv.index("--duration") + 1])


def check_series(job, inp, rc: int, report: Report, reference: dict) -> None:
    cfg, columns, rows = read_csv(job.outputs[0])
    report.require(rc == 0, f"{job.name}: exit code {rc}")
    report.require(columns == ["duration_s", "visibility", "abs_coherence"],
                   f"{job.name}: columns {columns}")
    durations = [float(t) for t in job.argv[job.argv.index("--durations") + 1].split(",")]
    report.require(_close(rows[:, 0], durations), f"{job.name}: durations differ")
    gen = generator(cfg, inp.amplitude, inp.detuning)
    thetas, phis = grid_axes(cfg["n_theta"], cfg["n_phi"])
    for (t, vis, coh), rho in zip(rows, propagate(gen, thermal(cfg), durations)):
        report.bound(f"{job.name}.dop853_coherence", abs(coh - abs(rho[0, 2])),
                     PROP_REL * SIGNAL)
        report.bound(f"{job.name}.dop853_visibility",
                     abs(vis - visibility(husimi(rho, thetas, phis))),
                     PROP_REL * reference["visibility"])


def check_amp_sweep(job, inp, rc: int, rng, n_sample: int, report: Report,
                    reference: dict) -> None:
    cfg, columns, rows = read_csv(job.outputs[0])
    report.require(rc == 0, f"{job.name}: exit code {rc}")
    report.require(columns == ["omega_hz", "observable"], f"{job.name}: columns {columns}")
    n = int(job.argv[job.argv.index("--n-omega") + 1])
    omegas = np.logspace(math.log10(inp.sweep_min), math.log10(inp.sweep_max), n)
    report.require(rows.shape == (n, 2) and _close(rows[:, 0], omegas),
                   f"{job.name}: axis differs from the requested grid")
    thetas, phis = grid_axes(cfg["n_theta"], cfg["n_phi"])
    for k in rng.choice(n, size=n_sample, replace=False):
        rho = steady(generator(cfg, omegas[k], 0.0))
        report.bound(f"{job.name}.steady_cell",
                     abs(rows[k, 1] - visibility(husimi(rho, thetas, phis))),
                     STEADY_REL * reference["visibility"])


def check_steady(job, inp, rc: int, report: Report) -> None:
    data = json.loads(Path(job.outputs[0]).read_text(encoding="utf-8"))
    report.require(rc == 0, f"{job.name}: exit code {rc}")
    rho = np.array(data["real"]) + 1j * np.array(data["imag"])
    gen = generator(data["config"], inp.amplitude, inp.detuning)
    # error of rho along the trace-zero directions <= residual / sigma_{n-1}
    sigma = np.linalg.svd(gen, compute_uv=False)
    report.bound(f"{job.name}.residual",
                 np.linalg.norm(gen @ vec(rho)) / sigma[-2], RESIDUAL_REL * SIGNAL)
    report.bound(f"{job.name}.trace", abs(np.trace(rho) - 1.0), STEADY_REL * SIGNAL)
    report.bound(f"{job.name}.hermiticity", np.max(np.abs(rho - rho.conj().T)),
                 STEADY_REL * SIGNAL)


def check_husimi(job, inp, rc: int, report: Report, reference: dict) -> None:
    cfg, columns, rows = read_csv(job.outputs[0])
    meta = json.loads(Path(job.outputs[1]).read_text(encoding="utf-8"))
    report.require(rc == 0, f"{job.name}: exit code {rc}")
    report.require(columns == ["theta", "phi", "Q"], f"{job.name}: columns {columns}")
    n_theta, n_phi = meta["n_theta"], meta["n_phi"]
    thetas, phis = grid_axes(n_theta, n_phi)
    report.require(rows.shape == (n_theta * n_phi, 3)
                   and _close(rows[:, 0], np.repeat(thetas, n_phi))
                   and _close(rows[:, 1], np.tile(phis, n_theta)),
                   f"{job.name}: axes differ from the requested grid")
    rho = steady(generator(cfg, inp.amplitude, inp.detuning))
    q = husimi(rho, thetas, phis)
    report.bound(f"{job.name}.closed_form_grid",
                 np.max(np.abs(rows[:, 2] - q.ravel())),
                 GRID_REL * HUSIMI_PREFACTOR * SIGNAL)
    report.bound(f"{job.name}.visibility", abs(meta["visibility"] - visibility(q)),
                 STEADY_REL * reference["visibility"])
    report.bound(f"{job.name}.max_sync",
                 abs(meta["max_sync"] / SYNC_COEFFICIENT - abs(rho[0, 2])),
                 STEADY_REL * SIGNAL)


def check_imhd_verify(job, inp, rc: int, report: Report) -> None:
    data = json.loads(Path(job.outputs[0]).read_text(encoding="utf-8"))
    # the job's own verdict stands: exit 1 with passed=false is a failed
    # job, not a wrong output, as long as the reported numbers are right
    report.require(rc == (0 if data["passed"] else 1),
                   f"{job.name}: exit code {rc} with passed={data['passed']}")
    report.require(data["passed"] == (data["max_abs_deviation"] < data["bound"]),
                   f"{job.name}: verdict disagrees with its own numbers")
    rho = steady(generator(data["config"], inp.amplitude, inp.detuning))
    thetas, phis = grid_axes(data["n_theta"], data["n_phi"])
    deviation = np.max(np.abs(imhd_signal_grid(rho, thetas, phis)
                              - husimi(rho, thetas, phis)))
    report.bound(f"{job.name}.deviation", abs(data["max_abs_deviation"] - deviation),
                 IMHD_REL * HUSIMI_PREFACTOR * SIGNAL)


def reference_scales(n_theta: int, n_phi: int) -> dict:
    """Observable values of the signal: |rho42| = SIGNAL on flat populations."""
    rho = np.diag([0.25] * 4).astype(complex)
    rho[0, 2] = rho[2, 0] = SIGNAL
    return {"visibility": visibility(husimi(rho, *grid_axes(n_theta, n_phi)))}


def check_job(job, inp, rc: int, rng: np.random.Generator, report: Report) -> None:
    """Check one job's outputs; problems and error ratios go to ``report``."""
    reference = reference_scales(64, 128)
    try:
        if job.name in ("arnold", "arnold-steady"):
            check_arnold(job, inp, rc, rng, job.name == "arnold-steady", 2, report)
        elif job.name == "series":
            check_series(job, inp, rc, report, reference)
        elif job.name == "amp-sweep":
            check_amp_sweep(job, inp, rc, rng, 4, report, reference)
        elif job.name == "steady":
            check_steady(job, inp, rc, report)
        elif job.name == "husimi":
            check_husimi(job, inp, rc, report, reference)
        elif job.name == "imhd-verify":
            check_imhd_verify(job, inp, rc, report)
        else:
            raise ValueError(f"no check for job {job.name!r}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        report.problems.append(f"{job.name}: unreadable output: {exc}")

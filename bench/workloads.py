"""Seeded inputs and CLI job lists of the three benchmark workloads.

Only physical inputs come from the seed: the sweep-range endpoints, the
symmetric detuning span, and the drive amplitude and detuning of the
single-state jobs.  Grid sizes are fixed, so the work of one pass does not
depend on the seed.  This module uses the standard library only, so the
benchmark can import it before it times the import of ``spinsync.cli``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Input sets drawn per run; pass i uses set i mod INPUT_SETS, so consecutive
# passes see different inputs.
INPUT_SETS = 4

# Fixed grid sizes (the CLI defaults).
N_OMEGA, N_DETUNING = 21, 41
N_AMP_SWEEP = 61
N_THETA, N_PHI = 64, 128
DURATION_S = 100.0
SERIES_DURATIONS = (0.05, 0.1, 1.0, 10.0, 100.0)

# The jobs after the lead job are short (6-100 ms) and noisy, so each pass
# runs them this many times in one timed block and ``rest_s`` is the mean.
REST_REPEATS = 3

# Each workload puts a different layer on the critical path; the first job
# is the lead job, the rest make up ``rest_s``.
WORKLOADS = {
    # generator assembly + expm (about 85% of arnold)
    "sweep-propagate": ("arnold", "series"),
    # generator assembly + SVD steady states, Husimi grids in amp-sweep
    "sweep-steady": ("arnold-steady", "amp-sweep", "steady"),
    # gate-level IMHD scan and the 8192-row CSV writer; liouville almost absent
    "readout": ("imhd-verify", "husimi"),
}


@dataclass(frozen=True)
class Inputs:
    """One seeded input set; each job reads the fields it needs."""

    omega_min: float  # arnold amplitude range, Hz
    omega_max: float
    detuning_span: float  # arnold detunings in [-span, +span], Hz
    sweep_min: float  # amp-sweep amplitude range, Hz
    sweep_max: float
    amplitude: float  # single-state jobs, Hz
    detuning: float


def draw_inputs(seed: int, n_sets: int = INPUT_SETS) -> list[Inputs]:
    """The run's input sets; the same seed gives the same sets.

    Single-state amplitudes are log-uniform over the tongue's range
    [1e-2, 1] Hz, stratified so that the n_sets draws fall one in each
    equal log-width slice (each draw is still log-uniform on its own).
    That keeps the share of drives above the imhd-verify failure
    threshold (about 0.3-0.4 Hz) the same from seed to seed.
    """
    rng = random.Random(seed)
    slices = list(range(n_sets))
    rng.shuffle(slices)
    sets = []
    for k in slices:
        log_amp = -2.0 + 2.0 * (k + rng.random()) / n_sets
        sets.append(
            Inputs(
                omega_min=10.0 ** rng.uniform(-2.3, -1.7),
                omega_max=10.0 ** rng.uniform(-0.3, 0.3),
                detuning_span=rng.uniform(2.0, 4.0),
                sweep_min=10.0 ** rng.uniform(-3.3, -2.7),
                sweep_max=10.0 ** rng.uniform(2.7, 3.0),
                amplitude=10.0**log_amp,
                detuning=rng.uniform(-3.0, 3.0),
            )
        )
    return sets


def _num(x: float) -> str:
    return repr(float(x))  # shortest round-trip text


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its argv, the files it writes, its cell count."""

    name: str
    argv: list[str]
    outputs: list[Path]
    cells: int


def make_job(name: str, inp: Inputs, outdir: Path) -> Job:
    """The CLI job ``name`` on input set ``inp``, writing under ``outdir``."""
    grid = ["--n-theta", str(N_THETA), "--n-phi", str(N_PHI)]
    drive = ["--amplitude", _num(inp.amplitude), "--detuning", _num(inp.detuning)]
    if name in ("arnold", "arnold-steady"):
        out = outdir / f"{name}.csv"
        argv = [
            "arnold", "--output", str(out),
            "--omega-min", _num(inp.omega_min), "--omega-max", _num(inp.omega_max),
            "--n-omega", str(N_OMEGA),
            "--detuning-min", _num(-inp.detuning_span),
            "--detuning-max", _num(inp.detuning_span),
            "--n-detuning", str(N_DETUNING),
        ]
        argv += ["--steady"] if name == "arnold-steady" else [
            "--duration", _num(DURATION_S)]
        return Job(name, argv, [out], N_OMEGA * N_DETUNING)
    if name == "series":
        out = outdir / "series.csv"
        durations = ",".join(_num(t) for t in SERIES_DURATIONS)
        argv = ["series", "--output", str(out), *drive, "--durations", durations]
        return Job(name, argv, [out], len(SERIES_DURATIONS))
    if name == "amp-sweep":
        out = outdir / "amp-sweep.csv"
        argv = [
            "amp-sweep", "--output", str(out),
            "--omega-min", _num(inp.sweep_min), "--omega-max", _num(inp.sweep_max),
            "--n-omega", str(N_AMP_SWEEP),
        ]
        return Job(name, argv, [out], N_AMP_SWEEP)
    if name == "steady":
        out = outdir / "steady.json"
        return Job(name, ["steady", "--output", str(out), *drive], [out], 1)
    if name == "imhd-verify":
        out = outdir / "imhd-verify.json"
        argv = ["imhd-verify", "--steady", "--output", str(out), *drive, *grid]
        return Job(name, argv, [out], N_THETA * N_PHI)
    if name == "husimi":
        out = outdir / "husimi.csv"
        argv = ["husimi", "--steady", "--output", str(out), *drive, *grid]
        return Job(name, argv, [out, out.with_suffix(".json")], N_THETA * N_PHI)
    raise ValueError(f"unknown job {name!r}")


def jobs_for(workload: str, inp: Inputs, outdir: Path) -> list[Job]:
    """The workload's job list for one pass on input set ``inp``."""
    return [make_job(name, inp, outdir) for name in WORKLOADS[workload]]

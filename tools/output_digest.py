"""Digest every CLI output of a checkout, for byte-identity checks.

Usage: python3 tools/output_digest.py SRC OUT.json

Runs, in one process through ``spinsync.cli.main`` of ``SRC/src``: the
benchmark jobs of seeds 1-3 (``SRC/bench/workloads.py``), each subcommand on
its defaults (with and without ``--steady`` where it takes the flag), the
overflowing drives and durations, the edges of the duration rule, zero
durations on overflowing drives among them, ``imhd-verify`` on its
quarter-approximation variant and on a 9 x 16 grid, three steady tongues
(an overflowing amplitude, one resonant column, drives to 1 kHz), and two
steady tongues to 1 kHz whose floor leaves cells uncertified, each with a
``--config`` written into its job's directory: at T1P = 3e4 s the
single-drive solve certifies them, at 5.7e4 s it fails, naming a cell.
Last come the edges of the 56-cell slices of a tongue's flat grid: the
steady tongue at 3e4 s on 9 detunings, whose uncertified cells span two
slices, a propagated tongue of 57 cells (a full slice, then one cell), and
a propagated tongue of one cell.  Then ``--steady`` with a valid duration
that it ignores: ``husimi``, ``imhd-verify`` and a 2 x 3 ``arnold`` at
``--duration 0``, and ``husimi`` and the same ``arnold`` at ``--duration
1e308``.  Last, the propagated tongues around the certified long-time
path: the default ``arnold`` at 60 s (below the floor's threshold, every
cell propagated) and at 62 s (most cells settled on the steady state),
and the two ``FALLBACK`` systems driven for 100 s, whose weak floor
settles none.  Then ``husimi`` off the default 64 x 128 grid: a steady
9 x 16 and a driven 8 x 8, whose CSVs take the row templates on other
axes.  Last of all, the failure paths at extreme relaxation times, each
with a ``--config`` of T1P = T1F: a 3 x 3 steady ``arnold`` at 1e300 s,
whose rows are exactly singular; ``steady`` and a 5-point ``amp-sweep``
at 1e-200 s, whose generator norms overflow; and the same ``amp-sweep``
and ``arnold`` at 1e200 s, which no bound certifies.  Then the edges of
the CSV writer's integer slot: a steady 65 x 9 ``husimi``, whose last
%-block holds one theta row, and the default steady grid at purity
factors (0.099, 0.099) and (0.099, 0), Q from 0.13 to 0.18 and from
0.16 to 0.22.  Last, the term builder on a system whose J, F offset and
unequal T1s are all ordinary values (``ORDINARY``): ``steady``, a driven
``series`` and a 5 x 7 steady ``arnold``.  For each job
OUT.json records the exit code, stdout with ``runtime=`` and the
temporary directory masked, stderr, and the SHA-256 of
each file written, the config among them.  Two checkouts wrote the same
outputs when ``cmp`` finds their digests equal.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

TMP = "@TMP@"  # stands for each job's own temporary directory
STEADY = ("husimi", "arnold", "imhd-verify")  # the subcommands with --steady
COMMANDS = ("steady", "series", "amp-sweep", "calibrate", "emit-config") + STEADY
OVERFLOWS = [
    [command, "--amplitude", "1e20"] for command in ("series", "husimi", "imhd-verify")
] + [
    ["steady", "--amplitude", "1e308"], ["amp-sweep", "--omega-max", "1e308"],
    ["series", "--durations", "1e308"], ["husimi", "--amplitude", "1e308"],
    ["arnold", "--duration", "1e308", "--n-omega", "2", "--n-detuning", "3"],
    ["arnold", "--steady", "--detuning-min", "-1e308", "--detuning-max", "1e308",
     "--n-detuning", "3"],
] + [  # A t finite, its 1-norm not
    ["husimi", "--amplitude", "2e307", "--duration", "1"],
    ["series", "--amplitude", "2e307", "--durations", "1"],
    ["imhd-verify", "--amplitude", "2e307", "--duration", "1"],
]
DURATIONS = [  # 0 is the thermal state; a series' durations strictly ascend
    ["series", "--durations", "0,1"], ["series", "--durations", "1,1"],
    ["arnold", "--duration", "0", "--n-omega", "2", "--n-detuning", "3"],
] + [  # 0 on a drive whose generator overflows: still the thermal state
    ["series", "--amplitude", "1e308", "--durations", "0"],
    ["husimi", "--amplitude", "1e308", "--duration", "0"],
    ["imhd-verify", "--amplitude", "1e308", "--duration", "0"],
    ["arnold", "--duration", "0", "--omega-max", "1e308", "--n-omega", "2",
     "--n-detuning", "3"],
]
READOUTS = [  # the second readout variant, and a grid off the default
    ["imhd-verify", "--variant", "quarter-approximation"],
    ["imhd-verify", "--variant", "quarter-approximation", "--steady"],
    ["imhd-verify", "--n-theta", "9", "--n-phi", "16"],
]
STEADY_TONGUES = [  # an overflowing amplitude, the resonant cell alone, 1 kHz
    ["arnold", "--steady", "--omega-max", "1e308", "--n-omega", "2",
     "--n-detuning", "3"],
    ["arnold", "--steady", "--detuning-min", "0", "--detuning-max", "0",
     "--n-detuning", "1"],
    ["arnold", "--steady", "--omega-max", "1000", "--n-omega", "5",
     "--n-detuning", "5"],
]
FALLBACK = ["arnold", "--steady", "--omega-max", "1000", "--n-omega", "7",
            "--detuning-min", "-50", "--detuning-max", "50", "--n-detuning", "11",
            "--config", f"{TMP}/system.json"]
FALLBACK_SYSTEMS = [{"t1_p_s": 30000}, {"t1_p_s": 57000}]  # solved, degenerate
SLICE_EDGES = [  # (argv, system): cells 54, 55 | 56 uncertified; 56 + 1; 1
    ([*FALLBACK[:10], "--n-detuning", "9", "--config", f"{TMP}/system.json"],
     FALLBACK_SYSTEMS[0]),
    (["arnold", "--n-omega", "3", "--n-detuning", "19"], None),
    (["arnold", "--n-omega", "1", "--n-detuning", "1", "--detuning-min", "0",
      "--detuning-max", "0"], None),
]
STEADY_DURATIONS = [  # --steady takes no duration: 0 and 1e308 are ignored
    ["husimi", "--steady", "--duration", "0"],
    ["imhd-verify", "--steady", "--duration", "0"],
    ["arnold", "--steady", "--duration", "0", "--n-omega", "2", "--n-detuning", "3"],
    ["husimi", "--steady", "--duration", "1e308"],
    ["arnold", "--steady", "--duration", "1e308", "--n-omega", "2",
     "--n-detuning", "3"],
]

LONG_DRIVES = [  # (argv, system): refused, mixed; and the weak floors driven
    (["arnold", "--duration", "60"], None), (["arnold", "--duration", "62"], None),
] + [([FALLBACK[0], *FALLBACK[2:]], system) for system in FALLBACK_SYSTEMS]
SMALL_GRIDS = [  # Husimi CSVs off the default grid, steady and driven
    ["husimi", "--steady", "--n-theta", "9", "--n-phi", "16"],
    ["husimi", "--n-theta", "8", "--n-phi", "8"],
]
SMALL_TONGUE = ["arnold", "--steady", "--n-omega", "3", "--n-detuning", "3"]
SMALL_SWEEP = ["amp-sweep", "--n-omega", "5"]
EXTREME_T1 = [  # (argv, T1P = T1F): singular rows; overflowing; degenerate
    (SMALL_TONGUE, 1e300), (["steady"], 1e-200), (SMALL_SWEEP, 1e-200),
    (SMALL_SWEEP, 1e200), (SMALL_TONGUE, 1e200),
]
WRITER_EDGES = [  # (argv, system): a partial last %-block; wider Q spreads
    (["husimi", "--steady", "--n-theta", "65", "--n-phi", "9"], None),
    (["husimi", "--steady", "--config", f"{TMP}/system.json"],
     {"epsilon_p": 0.099, "epsilon_f": 0.099}),
    (["husimi", "--steady", "--config", f"{TMP}/system.json"],
     {"epsilon_p": 0.099, "epsilon_f": 0.0}),
]

ORDINARY = {"j_coupling_hz": 217, "offset_f_hz": 30, "t1_p_s": 3, "t1_f_s": 900}
ORDINARY_JOBS = [
    ["steady"], ["series"],
    ["arnold", "--steady", "--n-omega", "5", "--n-detuning", "7"],
]


def run(main, argv, tmp: str, system: dict | None = None) -> dict:
    """One job through ``main`` in the directory ``tmp``, digested; a
    ``system`` is first written there as ``system.json``."""
    if system is not None:
        Path(tmp, "system.json").write_text(json.dumps(system), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(arg).replace(TMP, tmp) for arg in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code

    def mask(text):
        return re.sub(r"runtime=\S+", "runtime=*", text.replace(tmp, TMP))

    return {
        "argv": " ".join(map(str, argv)), "code": code,
        "stdout": mask(out.getvalue()), "stderr": mask(err.getvalue()),
        "files": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                  for path in sorted(Path(tmp).iterdir())},
    }


def digest(src: Path) -> list[dict]:
    sys.path[:0] = [str(src / "src"), str(src / "bench")]
    from spinsync.cli import main
    from workloads import WORKLOADS, draw_inputs, jobs_for

    jobs = [
        (job.argv, None)
        for seed in (1, 2, 3)
        for inputs in draw_inputs(seed)
        for workload in WORKLOADS
        for job in jobs_for(workload, inputs, Path(TMP))
    ] + [
        (argv + ["--output", f"{TMP}/out.csv"], None)
        for argv in [[c] for c in COMMANDS] + [[c, "--steady"] for c in STEADY]
        + OVERFLOWS + DURATIONS + READOUTS + STEADY_TONGUES
    ] + [
        (FALLBACK + ["--output", f"{TMP}/out.csv"], system)
        for system in FALLBACK_SYSTEMS
    ] + [
        (argv + ["--output", f"{TMP}/out.csv"], system) for argv, system in SLICE_EDGES
    ] + [(argv + ["--output", f"{TMP}/out.csv"], None) for argv in STEADY_DURATIONS] + [
        (argv + ["--output", f"{TMP}/out.csv"], system) for argv, system in LONG_DRIVES
    ] + [(argv + ["--output", f"{TMP}/out.csv"], None) for argv in SMALL_GRIDS] + [
        (argv + ["--config", f"{TMP}/system.json", "--output", f"{TMP}/out.csv"],
         {"t1_p_s": t1, "t1_f_s": t1})
        for argv, t1 in EXTREME_T1
    ] + [
        (argv + ["--output", f"{TMP}/out.csv"], system) for argv, system in WRITER_EDGES
    ] + [
        (argv + ["--config", f"{TMP}/system.json", "--output", f"{TMP}/out.csv"],
         ORDINARY)
        for argv in ORDINARY_JOBS
    ]
    records = []
    for argv, system in jobs:
        with tempfile.TemporaryDirectory() as tmp:
            records.append(run(main, argv, tmp, system))
    return records


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    records = digest(Path(sys.argv[1]).resolve())
    Path(sys.argv[2]).write_text(json.dumps(records, indent=1) + "\n")

"""Self-tests of the benchmark: seeded inputs, the output oracle, tracing.

Run from the repository root with ``python -m pytest bench``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
from run import count_operations, run_job  # noqa: E402
from workloads import WORKLOADS, draw_inputs, jobs_for  # noqa: E402

import spinsync.cli as cli  # noqa: E402


def test_same_seed_same_inputs(tmp_path):
    assert draw_inputs(7) == draw_inputs(7)
    for workload in WORKLOADS:
        a = [j.argv for inp in draw_inputs(7) for j in jobs_for(workload, inp, tmp_path)]
        b = [j.argv for inp in draw_inputs(7) for j in jobs_for(workload, inp, tmp_path)]
        assert a == b


def test_other_seed_other_inputs_same_cells(tmp_path):
    assert draw_inputs(7) != draw_inputs(8)
    for workload in WORKLOADS:
        cells = [
            [j.cells for inp in draw_inputs(seed) for j in jobs_for(workload, inp, tmp_path)]
            for seed in (7, 8)
        ]
        assert cells[0] == cells[1]


def test_amplitudes_cover_the_tongue_range_one_per_slice():
    amps = sorted(inp.amplitude for inp in draw_inputs(3))
    slices = [int((np.log10(a) + 2.0) * len(amps) / 2.0) for a in amps]
    assert slices == list(range(len(amps)))


def _run_and_check(job, inp):
    rc, _, err = run_job(cli, job)
    report = oracle.Report()
    oracle.check_job(job, inp, rc, np.random.default_rng(0), report)
    return report


def _perturb_csv(path: Path, row: int, column: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    fields = lines[body[row]].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[body[row]] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload, name, column, delta", [
    # a change of 1e-4 of the signal, far below anything a plot would show
    ("sweep-propagate", "series", 2, 1e-4 * oracle.SIGNAL),
    ("readout", "husimi", 2, 1e-4 * oracle.HUSIMI_PREFACTOR * oracle.SIGNAL),
])
def test_oracle_flags_perturbed_csv(tmp_path, workload, name, column, delta):
    inp = draw_inputs(5)[0]
    (job,) = [j for j in jobs_for(workload, inp, tmp_path) if j.name == name]
    clean = _run_and_check(job, inp)
    assert clean.problems == []
    _perturb_csv(job.outputs[0], 3, column, delta)
    report = oracle.Report()
    oracle.check_job(job, inp, 0, np.random.default_rng(0), report)
    assert report.problems


def test_operation_counts_do_not_depend_on_pass_count():
    def passes(n):
        return [{"set": i % 2, "jobs": [{"name": "imhd-verify", "rc": i % 2},
                                        {"name": "husimi", "rc": 0}]}
                for i in range(n)]

    problems = {(k, name): [] for k in range(2) for name in ("imhd-verify", "husimi")}
    assert count_operations(passes(2), problems) == (4, 1)
    assert count_operations(passes(7), problems) == (4, 1)
    problems[(0, "husimi")] = ["husimi: output changed between passes"]
    assert count_operations(passes(7), problems) == (4, 2)


def test_self_times_add_up_to_root_span():
    tracer = spans.Tracer()

    def leaf():
        sum(range(20000))

    def middle():
        leaf()
        sum(range(20000))
        leaf()

    wrapped_leaf = tracer._span("leaf", leaf)
    wrapped_middle = tracer._span("middle", lambda: (wrapped_leaf(), middle()))
    with tracer.root():
        wrapped_middle()
        sum(range(20000))
    selfs = tracer.self_times()
    root = tracer.ends[0] - tracer.starts[0]
    assert set(selfs) == {"cli", "middle", "leaf"}
    assert sum(selfs.values()) == pytest.approx(root, rel=1e-9)
    assert tracer.counts["leaf.calls"] == 1 and tracer.counts["middle.calls"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "readout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

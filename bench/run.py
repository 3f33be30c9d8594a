"""spinsync benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs real CLI jobs in-process through ``spinsync.cli.main``,
in a closed loop: one client, one process, no threads of its own, and
``SPINSYNC_WORKERS`` unset.  Passes run back to back for ``--seconds``;
pass i uses seeded input set i mod 4.  Every output is checked by the
independent oracle in ``oracle.py``, outside the timed region, and every
later pass must write the same bytes as the checked one.  ``attempted``
and ``failed`` count operations (one job on one input set), so they
depend on the seed alone.

Every timed job is bracketed by runs of a fixed reference computation, and
times are reported relative to it (see ``Reference``), because the shared
machine's speed drifts between runs.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  The last line of standard output is one JSON
object; the lines before it name each metric with its unit, ``fail_frac``
with its base, and the run record.
Outputs, results and spans go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from workloads import INPUT_SETS, REST_REPEATS, WORKLOADS, draw_inputs, jobs_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKERS_ENV = "SPINSYNC_WORKERS"
# References run next to every timed sample (see Reference); the nominal
# values are about their median times on the 2-CPU Xeon the benchmark was
# set up on, so reported seconds stay close to wall seconds there.
NOMINAL_REF_S = 0.12
REFERENCE_IMPORT = "numpy, scipy.linalg"
NOMINAL_REF_IMPORT_S = 0.3
SETUP_SAMPLES = 8  # fresh-process imports of spinsync.cli per run
PER_LAYER = (
    "liouville.build.calls", "liouville.build.self_s",
    "hamiltonians.calls", "hamiltonians.self_s",
    "dissipation.calls", "dissipation.self_s",
    "liouville.propagate.calls", "liouville.propagate.self_s",
    "liouville.steady.calls", "liouville.steady.self_s",
    "phasespace.husimi_grid.self_s", "phasespace.visibility.self_s",
    "phasespace.sync.self_s",
    "imhd.run_imhd.calls", "imhd.run_imhd.self_s", "imhd.gates.calls",
    "imhd.scan.self_s",
    "experiments.cells", "experiments.self_s",
    "cli.write.self_s", "cli.bytes_written", "cli.self_s",
    "import.spinsync_s", "import.scipy_linalg_s", "import.numpy_s",
    "trace.overhead_frac", "trace.accounted_frac",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac"):
        return "ratio"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Reference:
    """Fixed numpy, scipy and Python work that never touches spinsync.

    The machine is shared, and its speed drifts by tens of percent from
    minute to minute.  Every timed sample is bracketed by two runs of this
    reference, and metrics are reported as sample / mean(bracket) *
    NOMINAL_REF_S: seconds at the nominal reference speed.
    """

    def __init__(self, np, expm) -> None:
        rng = np.random.default_rng(0)
        self.np, self.expm = np, expm
        self.a = 3.0 * (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        self.m = rng.normal(size=(4, 4))

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(120):
            for _ in range(30):
                np.kron(self.m, self.m)
            self.expm(self.a)
            np.linalg.svd(self.a)
        x = 0
        for i in range(200000):
            x += i
        return time.perf_counter() - t0


def normalized(samples, refs, nominal: float = NOMINAL_REF_S) -> float:
    """Median of sample/reference pairs, in seconds at the reference speed."""
    return statistics.median(s / r for s, r in zip(samples, refs)) * nominal


def fresh_import_s(modules: str) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    snippet = (f"import time; t = time.perf_counter(); import {modules}; "
               "print(time.perf_counter() - t)")
    proc = subprocess.run(
        [sys.executable, "-c", snippet], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def setup_samples() -> tuple[list[float], list[float]]:
    """Import times of spinsync.cli in fresh processes, each bracketed by
    two fresh-process imports of the reference modules (numpy and
    scipy.linalg, which spinsync does not change)."""
    imports, refs = [], []
    before = fresh_import_s(REFERENCE_IMPORT)
    for _ in range(SETUP_SAMPLES):
        imports.append(fresh_import_s("spinsync.cli"))
        after = fresh_import_s(REFERENCE_IMPORT)
        refs.append(0.5 * (before + after))
        before = after
    return imports, refs


def run_job(cli, job, tracer=None) -> tuple[int, float, str]:
    """Run one CLI job in-process: (exit code, seconds, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    root = tracer.root() if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with root:
                rc = cli.main(job.argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed job, not a benchmark error
            rc = 70
            err.write(traceback.format_exc())
    return rc, time.perf_counter() - t0, err.getvalue()


def digest(paths) -> tuple[str, int]:
    h, size = hashlib.sha256(), 0
    for path in paths:
        data = Path(path).read_bytes()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, workers_before: str | None) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        WORKERS_ENV: "unset" if workers_before is None
        else f"removed from the environment (was {workers_before!r})",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinsync" / "cli.py").is_file():
        print(f"bench: no spinsync sources under {SRC}", file=sys.stderr)
        return 2
    workers_before = os.environ.pop(WORKERS_ENV, None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import spinsync.cli as cli
    own_import = time.perf_counter() - t0

    import numpy as np
    from scipy.linalg import expm

    reference = Reference(np, expm)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        result, lines, extra, tracer = measure(args, cli, np, reference, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = run_record(args, workers_before)
    record["own_import_s"] = own_import
    lines.append("record " + json.dumps(record, sort_keys=True))
    out = WORK / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.csv.gz")
    (out / f"{stem}.json").write_text(
        json.dumps({**result, "record": record, **extra}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def run_passes(args, cli, reference, inputs, set_dirs, tracer) -> list[dict]:
    """The timed closed loop: whole passes until --seconds have elapsed.

    A pass is two timed blocks, the lead job and REST_REPEATS runs of the
    other jobs, each bracketed by reference runs.  With tracing, odd
    passes are traced and each input set gets one pass of each kind in
    turn.  Output digests are taken outside job timing.
    """
    passes = []
    min_passes = INPUT_SETS * (2 if tracer else 1)
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < args.seconds:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        k = (i // 2 if tracer else i) % INPUT_SETS
        p = {"set": k, "traced": traced, "jobs": [], "bytes": 0}
        if traced:
            tracer.install()
            mark, before = len(tracer.layers), dict(tracer.counts)
        jobs = jobs_for(args.workload, inputs[k], set_dirs[k])
        ref_before = reference()
        for block, block_jobs in enumerate((jobs[:1], jobs[1:] * REST_REPEATS)):
            records = []
            for job in block_jobs:
                rc, seconds, err = run_job(cli, job, tracer if traced else None)
                h, size = digest([path for path in job.outputs if path.is_file()])
                p["bytes"] += size
                records.append({"name": job.name, "block": block, "rc": rc,
                                "s": seconds, "digest": h, "err": err.strip()[-500:]})
            ref_after = reference()
            for record in records:
                record["ref_s"] = 0.5 * (ref_before + ref_after)
            p["jobs"] += records
            ref_before = ref_after
        if traced:
            tracer.uninstall()
            p["self"] = tracer.self_times(mark)
            p["counts"] = {key: v - before.get(key, 0)
                           for key, v in tracer.counts.items()}
        passes.append(p)
    return passes


def check_outputs(args, np, oracle, inputs, set_dirs, passes):
    """Oracle checks per (input set, job), outside the timed region.

    The files checked are those of the set's last pass; every pass of the
    set must have written the same bytes and exited the same way.
    """
    rng = np.random.default_rng(args.seed)
    problems: dict[tuple[int, str], list[str]] = {}
    ratios: dict[str, float] = {}
    for k in range(INPUT_SETS):
        for job in jobs_for(args.workload, inputs[k], set_dirs[k]):
            seen = [j for p in passes if p["set"] == k
                    for j in p["jobs"] if j["name"] == job.name]
            report = oracle.Report()
            if len({j["digest"] for j in seen}) > 1:
                report.problems.append(f"{job.name}: output changed between passes")
            if len({j["rc"] for j in seen}) > 1:
                report.problems.append(f"{job.name}: exit code changed between passes")
            oracle.check_job(job, inputs[k], seen[-1]["rc"], rng, report)
            problems[(k, job.name)] = report.problems
            for key, ratio in report.ratios.items():
                ratios[key] = max(ratios.get(key, 0.0), ratio)
    return problems, ratios


def count_operations(passes, problems) -> tuple[int, int]:
    """(attempted, failed), counted over operations: one job on one input set.

    Later passes re-run the operations for timing and must reproduce each
    one's exit code and output bytes (check_outputs), so the counts depend
    on the seed alone, not on how many passes fit in --seconds.  An
    operation fails on a non-zero exit in any pass or on a check problem.
    """
    nonzero = {(p["set"], j["name"]) for p in passes for j in p["jobs"] if j["rc"] != 0}
    failed = sum(1 for op, msgs in problems.items() if op in nonzero or msgs)
    return len(problems), failed


def measure(args, cli, np, reference, tmp):
    import oracle
    from spans import Tracer, import_breakdown

    imports, import_refs = setup_samples()
    inputs = draw_inputs(args.seed)
    set_dirs = [tmp / f"set{k}" for k in range(INPUT_SETS)]
    for d in set_dirs:
        d.mkdir()
    tracer = Tracer() if args.trace else None
    passes = run_passes(args, cli, reference, inputs, set_dirs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, ratios = check_outputs(args, np, oracle, inputs, set_dirs, passes)

    executed = [(p["set"], j) for p in passes for j in p["jobs"]]
    attempted, failed = count_operations(passes, problems)
    correct = not any(problems.values()) and all(
        j["rc"] == 0 or (j["name"] == "imhd-verify" and j["rc"] == 1)
        for _, j in executed
    )

    names = WORKLOADS[args.workload]
    plain = [p for p in passes if not p["traced"]]
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        overhead = statistics.median(pass_ratios(traced, (0, 1))) / statistics.median(
            pass_ratios(plain, (0, 1)))
        metrics = layer_metrics(traced, overhead - 1.0, import_breakdown)
    else:
        metrics = {
            "pass_s": statistics.median(pass_ratios(plain, (0, 1))) * NOMINAL_REF_S,
            "lead_job_s": statistics.median(pass_ratios(plain, (0,))) * NOMINAL_REF_S,
            "rest_s": statistics.median(pass_ratios(plain, (1,))) * NOMINAL_REF_S,
            "setup_s": normalized(imports, import_refs, NOMINAL_REF_IMPORT_S),
            "peak_rss_mb": peak_rss_mb,
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }

    refs = [j["ref_s"] for p in plain for j in p["jobs"]]
    lines = [
        f"workload {args.workload}: {len(plain)} untraced passes of "
        f"{' + '.join(names)}, seed {args.seed}; reference median "
        f"{statistics.median(refs):.4f} s, nominal {NOMINAL_REF_S} s",
        f"fail_frac = {failed}/{attempted} = {failed / attempted:.4f} of operations "
        f"(job x input set); {len(executed)} executions, "
        f"{sum(1 for _, j in executed if j['rc'] != 0)} non-zero exits",
    ]
    job_medians = {}
    for name in names:
        runs = [j for p in plain for j in p["jobs"] if j["name"] == name]
        walls = [j["s"] for j in runs]
        job_medians[name] = normalized(walls, [j["ref_s"] for j in runs])
        exits = sum(1 for _, j in executed if j["name"] == name and j["rc"] != 0)
        lines.append(
            f"  {name.replace('-', '_')}_s = {job_medians[name]:.6f} s at reference "
            f"speed, {statistics.median(walls):.6f} s wall (median of "
            f"{len(walls)}; {exits} non-zero exits)")
    for (k, name), msgs in sorted(problems.items()):
        lines += [f"  CHECK FAILED on input set {k}: {msg}" for msg in msgs]
    errors = {(p["set"], j["name"]): j["err"].splitlines()[-1]
              for p in passes for j in p["jobs"] if j["rc"] != 0 and j["err"]}
    lines += [f"  stderr of {name} on input set {k}: {msg}"
              for (k, name), msg in sorted(errors.items())]
    lines.append("  oracle worst error/bound: " + ", ".join(
        f"{k}={v:.2g}" for k, v in sorted(ratios.items())))
    lines += [f"{name} = {value:.6g} {unit_of(name)}" for name, value in metrics.items()]

    extra = {
        "fail_frac": failed / attempted,
        "job_medians_s": job_medians,
        "setup_import_s": imports, "setup_ref_s": import_refs,
        "oracle_ratios": ratios,
        "problems": {f"set{k}:{j}": m for (k, j), m in problems.items() if m},
        "passes": [{key: p[key] for key in ("set", "traced", "bytes")}
                   | {"jobs": [(j["name"], j["block"], j["rc"], j["s"], j["ref_s"])
                               for j in p["jobs"]]}
                   for p in passes],
    }
    if tracer is not None:
        extra["layer_shares"] = layer_shares(passes)
    return result, lines, extra, tracer


def pass_ratios(passes, blocks) -> list[float]:
    """Per pass: job time / its reference, summed over the selected blocks;
    the rest block counts once, as the mean of its REST_REPEATS runs."""
    return [
        sum(j["s"] / j["ref_s"] / (REST_REPEATS if j["block"] else 1)
            for j in p["jobs"] if j["block"] in blocks)
        for p in passes
    ]


def layer_shares(passes) -> dict:
    """Median share of each layer's self time in the traced pass wall time."""
    traced = [p for p in passes if p["traced"]]
    layers = sorted({layer for p in traced for layer in p["self"]})
    return {
        layer: statistics.median(
            p["self"].get(layer, 0.0) / sum(j["s"] for j in p["jobs"]) for p in traced)
        for layer in layers
    }


def layer_metrics(traced, overhead_frac, import_breakdown) -> dict:
    """Per-layer metrics: medians per traced pass, plus import and trace cost."""
    def per_pass(get) -> float:
        return statistics.median(get(p) for p in traced)

    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            layer = name[: -len(".self_s")]
            metrics[name] = per_pass(lambda p: p["self"].get(layer, 0.0))
        elif name.endswith(".calls") or name == "experiments.cells":
            metrics[name] = per_pass(lambda p: p["counts"].get(name, 0))
    metrics["cli.bytes_written"] = per_pass(lambda p: p["bytes"])
    metrics.update(import_breakdown(sys.executable, child_env(), ROOT))
    metrics["trace.overhead_frac"] = overhead_frac
    # the spans' self times add up to the root spans; compare with job walls
    metrics["trace.accounted_frac"] = min(
        sum(p["self"].values()) / sum(j["s"] for j in p["jobs"]) for p in traced)
    return {name: metrics[name] for name in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())

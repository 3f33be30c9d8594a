"""Per-layer tracing from outside the program.

Wrappers are installed on the public names as each caller module binds
them (``spinsync.cli``, ``spinsync.experiments``, ``spinsync.liouville``,
``spinsync.imhd``), so the program itself is not changed.  Every wrapped
call records a span (layer, start, end, parent) and a count; spans stay in
memory and are written out once, when the run ends.  A layer's self time
is its span time minus the time of its child spans.  The root span of each
job is opened by the benchmark around ``cli.main``; its self time is the
part of the job no wrapped layer covers (argument parsing, config, JSON).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

ROOT_LAYER = "cli"


def _result_cells(result) -> int:
    """Cells an experiment computed: sweep values, or series points."""
    values = getattr(result, "values", None)
    return int(values.size) if values is not None else len(result)


# (caller module, bound name, layer); a name a module no longer binds is skipped
SPANNED = [
    ("spinsync.cli", "run_arnold_tongue", "experiments"),
    ("spinsync.cli", "run_amplitude_sweep", "experiments"),
    ("spinsync.cli", "run_drive_series", "experiments"),
    ("spinsync.cli", "imhd_scan", "imhd.scan"),
    ("spinsync.cli", "write_grid_csv", "cli.write"),
    ("spinsync.cli", "write_sweep_csv", "cli.write"),
    ("spinsync.cli", "write_series_csv", "cli.write"),
    ("spinsync.cli", "_write_text", "cli.write"),
    ("spinsync.liouville", "rotating_drift", "hamiltonians"),
    ("spinsync.liouville", "drive_term", "hamiltonians"),
    ("spinsync.liouville", "build_jump_operators", "dissipation"),
    ("spinsync.imhd", "run_imhd", "imhd.run_imhd"),
]
for _caller in ("spinsync.cli", "spinsync.experiments"):
    SPANNED += [
        (_caller, "build_liouvillian", "liouville.build"),
        (_caller, "propagate", "liouville.propagate"),
        (_caller, "steady_state", "liouville.steady"),
        (_caller, "husimi_grid", "phasespace.husimi_grid"),
        (_caller, "visibility", "phasespace.visibility"),
        (_caller, "sync_measure_max", "phasespace.sync"),
    ]
# counted without a span: their time stays in run_imhd's self time
COUNTED = [
    ("spinsync.imhd", "build_u_theta_phi", "imhd.gates"),
    ("spinsync.imhd", "build_pseudo_hadamard", "imhd.gates"),
    ("spinsync.imhd", "build_controlled_phase", "imhd.gates"),
]


class Tracer:
    """Span recorder with install/uninstall of the wrappers."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, layer: str) -> int:
        idx = len(self.layers)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[layer + ".calls"] += 1
            if layer == "experiments":
                self.counts["experiments.cells"] += _result_cells(result)
            return result

        return wrapper

    def _count(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[layer + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for module_name, attr, layer in table:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, make(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextlib.contextmanager
    def root(self):
        """The root span of one job."""
        idx = self._open(ROOT_LAYER)
        try:
            yield
        finally:
            self._close(idx)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per layer over spans[first:], summed."""
        n = len(self.layers)
        child = [0.0] * (n - first)
        for i in range(first, n):
            parent = self.parents[i]
            if parent >= first:
                child[parent - first] += self.ends[i] - self.starts[i]
        out: Counter = Counter()
        for i in range(first, n):
            out[self.layers[i]] += self.ends[i] - self.starts[i] - child[i - first]
        return dict(out)

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV: layer, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("layer,start_s,end_s,parent\n")
            for row in zip(self.layers, self.starts, self.ends, self.parents):
                fh.write("%s,%.9f,%.9f,%d\n" % row)


def import_breakdown(python: str, env: dict, cwd: Path, repeats: int = 3) -> dict:
    """Median import times from ``python -X importtime`` in fresh processes."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import spinsync.cli"],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
            check=True,
        )
        cumulative: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cumulative[parts[2].strip()] = int(parts[1])
            except ValueError:  # the header line
                continue
        found = {
            "import.spinsync_s": cumulative.get("spinsync", 0)
            + cumulative.get("spinsync.cli", 0),
            "import.scipy_linalg_s": cumulative.get("scipy.linalg", 0),
            "import.numpy_s": cumulative.get("numpy", 0),
        }
        for key, micros in found.items():
            samples.setdefault(key, []).append(micros * 1e-6)
    return {key: statistics.median(vals) for key, vals in samples.items()}

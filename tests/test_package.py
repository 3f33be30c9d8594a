"""Package surface: the exported names, each one used by the simulator,
and what importing the package and running its CLI load or call."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import spinsync
import spinsync.cli

EXPORTS = [
    "AffineLiouvillian",
    "CalibrationResult",
    "DriveConfig",
    "DriveSeriesPoint",
    "Gate",
    "HUSIMI_PREFACTOR",
    "HaarQuadrature",
    "HusimiGrid",
    "ImhdReading",
    "JumpOperator",
    "LimitCycleResult",
    "SYNC_COEFFICIENT",
    "SpectralReport",
    "SpinSystemConfig",
    "SweepResult",
    "UNIFORM_PHASE_DENSITY",
    "build_affine_liouvillian",
    "build_controlled_phase",
    "build_jump_operators",
    "build_l0",
    "build_liouvillian",
    "build_lv",
    "build_pseudo_hadamard",
    "calibrate_drive",
    "check_density_matrix",
    "completeness_check",
    "default_purity_factors",
    "detuning_term",
    "devectorize",
    "drive_term",
    "fermionic_probabilities",
    "haar_quadrature",
    "husimi_grid",
    "husimi_normalization",
    "husimi_reduced",
    "imhd_scan",
    "leakage_bound",
    "propagate",
    "rotating_drift",
    "run_amplitude_sweep",
    "run_arnold_tongue",
    "run_drive_series",
    "run_imhd",
    "run_limit_cycle",
    "spectral_report",
    "spin_operator",
    "steady_state",
    "sync_measure_full",
    "sync_measure_max",
    "sync_measure_quadrature",
    "thermal_state",
    "transition_rate",
    "vectorize",
    "visibility",
]

# Exported although no module of the package calls them: the acceptance
# criteria and the planned artifact diagnostics use them.
KEEP = {
    "check_density_matrix",
    "husimi_normalization",
    "run_imhd",
    "run_limit_cycle",
    "spectral_report",
    "sync_measure_full",
    "sync_measure_quadrature",
}


def names_read_in_package() -> set[str]:
    """Every name the package modules read, as a bare name or an attribute."""
    names = set()
    for path in Path(spinsync.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_exports_are_the_listed_names():
    assert sorted(spinsync.__all__) == EXPORTS
    assert all(hasattr(spinsync, name) for name in EXPORTS)


def test_every_export_is_used_or_kept():
    assert KEEP <= set(EXPORTS)
    read = names_read_in_package()
    assert sorted(set(EXPORTS) - read - KEEP) == []


# Run in a fresh interpreter: imports spinsync and its CLI, runs each
# subcommand, and prints one JSON list of (step, exit code, scipy modules
# loaded after it).
STARTUP_SCRIPT = """
import contextlib, json, sys, tempfile
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import spinsync
steps = [("import spinsync", 0, scipy_modules())]
import spinsync.cli as cli
steps.append(("import spinsync.cli", 0, scipy_modules()))
with tempfile.TemporaryDirectory() as tmp:
    for argv in json.loads(sys.argv[1]):
        out = str(Path(tmp) / (argv[0] + ".out"))
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv + ["--output", out])
        steps.append((" ".join(argv), code, scipy_modules()))
print(json.dumps(steps))
"""
SUBCOMMANDS = [
    ["steady"],
    ["husimi", "--steady"],
    ["imhd-verify", "--steady"],
    ["amp-sweep"],
    ["arnold", "--steady"],
    ["calibrate"],
    ["emit-config"],
    ["series"],
    ["arnold"],
    ["husimi"],
    ["imhd-verify"],
]


def test_no_subcommand_loads_scipy():
    """The runtime needs NumPy alone: importing the package and running
    any subcommand, propagating or not, loads no scipy module."""
    src = str(Path(spinsync.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, json.dumps(SUBCOMMANDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    expected = ["import spinsync", "import spinsync.cli"]
    expected += [" ".join(argv) for argv in SUBCOMMANDS]
    assert [step for step, _, _ in steps] == expected
    for step, code, loaded in steps:
        assert (step, code, loaded) == (step, 0, [])


def test_no_runtime_path_calls_svd(monkeypatch, tmp_path):
    """The steady state is certified from block inverses and ||L||_F: with
    np.linalg.svd raising, the solver, both sweeps, the propagated tongue
    and every steady subcommand still run."""

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    config = spinsync.SpinSystemConfig()
    spinsync.steady_state(spinsync.build_liouvillian(config, spinsync.DriveConfig()))
    spinsync.run_amplitude_sweep(config, n_theta=8, n_phi=8)
    spinsync.run_arnold_tongue(config, use_steady_state=True)
    spinsync.run_arnold_tongue(config)
    for argv in (
        ["steady"],
        ["husimi", "--steady"],
        ["imhd-verify", "--steady"],
        ["arnold", "--steady"],
        ["amp-sweep"],
    ):
        out = str(tmp_path / (argv[0] + ".out"))
        assert spinsync.cli.main(argv + ["--output", out]) == 0

"""Package surface: the exported names, each one used by the simulator,
the contract of its record types, and what importing the package and
running its CLI load or call."""

import argparse
import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    "build_liouvillian",
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
    "run_limit_cycle",
    "spectral_report",
    "spin_operator",
    "state_visibility",
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
    "build_liouvillian",
    "check_density_matrix",
    "husimi_normalization",
    "propagate",
    "run_limit_cycle",
    "spectral_report",
    "steady_state",
    "sync_measure_full",
    "sync_measure_quadrature",
    "visibility",
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


def test_cli_imports_nothing_from_the_engine():
    """spinsync/cli.py reaches the engine through ``experiments`` alone: it
    imports nothing from spinsync.liouville, relatively or absolutely."""
    path = Path(spinsync.__file__).parent / "cli.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # cli.py sits in the package, so a relative import is from spinsync
            package = "spinsync" if node.level else None
            module = ".".join(filter(None, (package, node.module)))
            imported.append(module)
            imported += [f"{module}.{alias.name}" for alias in node.names]
    assert "spinsync.experiments" in imported
    assert [name for name in imported if name.startswith("spinsync.liouville")] == []


def test_experiments_takes_only_the_engine_entries():
    """spinsync/experiments.py reaches the engine through its two entries
    alone, handing them a system, drives and a duration: it imports nothing
    else from spinsync.liouville, builds no start state (no thermal_state),
    reads no ``_blocks`` or ``_floor``, names no TONGUE_STACK_CELLS and
    indexes no coordinate (no ``x[..., k]``)."""
    path = Path(spinsync.__file__).parent / "experiments.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert {name for module, name in imported if module == "liouville"} == {
        "_state", "_tongue"
    }
    assert "thermal_state" not in {name for _, name in imported}
    attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attributes & {"_blocks", "_blocks_at", "_floor"}
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert "TONGUE_STACK_CELLS" not in names
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            assert Ellipsis not in [
                getattr(item, "value", None) for item in node.slice.elts
            ]


# The CLI flags that name a config key, and the key each one overrides.
CONFIG_FLAGS = {
    "--amplitude": "amplitude_hz", "--detuning": "detuning_hz",
    "--duration": "duration_s", "--n-theta": "n_theta", "--n-phi": "n_phi",
}


def test_handlers_read_no_flag_that_names_a_config_key():
    """``cli._run`` folds every flag that names a config key into the run's
    config, once.  Each such flag stores under its key (calibrate's
    synthetic --amplitude is no drive flag and stores elsewhere), and no
    other function that takes the parsed ``args``, each ``_cmd_*`` handler
    and its helpers, reads a config key from them, by attribute, ``getattr``
    or ``vars``: handlers read the run's values from ``rc``."""
    cli = spinsync.cli
    forbidden = set(cli.resolved_config_dict(cli.RunConfig()))
    forbidden |= {flag[2:].replace("-", "_") for flag in CONFIG_FLAGS}
    (commands,) = [
        action.choices for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for command, parser in commands.items():
        for action in parser._actions:
            for flag in set(action.option_strings) & set(CONFIG_FLAGS):
                if command == "calibrate":
                    assert action.dest not in forbidden, (command, flag)
                else:
                    assert action.dest == CONFIG_FLAGS[flag], (command, flag)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers, reads = [], []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "_run" or (
            "args" not in [arg.arg for arg in fn.args.args]
        ):
            continue
        readers.append(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "args" and node.attr in forbidden:
                    reads.append(f"{fn.name}: args.{node.attr}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                first = node.args[0] if node.args else None
                if node.func.id in ("getattr", "vars") and isinstance(
                    first, ast.Name
                ) and first.id == "args":
                    reads.append(f"{fn.name}: {node.func.id}(args)")
    assert {f"_cmd_{name.replace('-', '_')}" for name in commands} <= set(readers)
    assert reads == []


def test_cli_leaves_every_library_rule_to_the_library():
    """The library's rules raise ``spinsync.system.ConfigError``, a
    ValueError, and the CLI keeps no copy of them: cli.py defines no
    exception class, and catches ValueError only in ``main``, which reports
    an engine failure, and where it parses text, in ``parse_config`` and
    ``read_samples_csv``; no handler re-raises a library error to change
    its exit code.  Nor does it hold a physics constant: the variant's
    readout bound comes from ``imhd``."""
    cli = spinsync.cli
    assert cli.ConfigError is spinsync.system.ConfigError
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert [n for n in classes if issubclass(getattr(cli, n), BaseException)] == []
    catch_all = {"ValueError", "Exception", "BaseException"}
    catchers = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for handler in ast.walk(fn):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            caught = handler.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None or any(
                isinstance(name, ast.Name) and name.id in catch_all for name in names
            ):
                catchers.add(fn.name)
    assert catchers == {"main", "parse_config", "read_samples_csv"}
    assert [name for name, value in vars(cli).items() if isinstance(value, float)] == []


def test_exports_are_the_listed_names():
    assert sorted(spinsync.__all__) == EXPORTS
    assert all(hasattr(spinsync, name) for name in EXPORTS)


def test_every_export_is_used_or_kept():
    assert KEEP <= set(EXPORTS)
    read = names_read_in_package()
    assert sorted(set(EXPORTS) - read - KEEP) == []


# Run in a fresh interpreter: imports spinsync and its CLI, runs each
# subcommand, and prints one JSON object: per step (step, exit code, scipy
# modules loaded, argparse parsers constructed, systems whose generator
# terms were built, readout-gate builds), all counted from the start, and
# the number of parsers one build_parser() call constructs.
STARTUP_SCRIPT = """
import argparse, contextlib, json, sys, tempfile
from pathlib import Path

parsers = []
init = argparse.ArgumentParser.__init__

def counted_init(self, *args, **kwargs):
    parsers.append(type(self).__name__)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted_init

def state():
    liouville = sys.modules["spinsync.liouville"]
    imhd = sys.modules["spinsync.imhd"]
    return [
        sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
        len(parsers),
        liouville._affine_terms.cache_info().misses,
        imhd._circuit_terms.cache_info().misses,
    ]

import spinsync
steps = [["import spinsync", 0] + state()]
import spinsync.cli as cli
steps.append(["import spinsync.cli", 0] + state())
with tempfile.TemporaryDirectory() as tmp:
    for argv in json.loads(sys.argv[1]):
        out = str(Path(tmp) / (argv[0] + ".out"))
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv + ["--output", out])
        steps.append([" ".join(argv), code] + state())
before = len(parsers)
cli.build_parser()
print(json.dumps({"steps": steps, "tree": len(parsers) - before}))
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
    any subcommand, propagating or not, loads no scipy module.  Import
    builds no parser and no generator terms; the first main() call builds
    one parser tree, later calls reuse it, and one system's terms and the
    readout gates are built once however many jobs use them."""
    src = str(Path(spinsync.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, json.dumps(SUBCOMMANDS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-1])
    steps, tree = record["steps"], record["tree"]
    expected = ["import spinsync", "import spinsync.cli"]
    expected += [" ".join(argv) for argv in SUBCOMMANDS]
    assert [step[0] for step in steps] == expected
    assert tree == 1 + 8  # the top-level parser and one per subcommand
    for step, code, loaded, parsers, systems, gates in steps:
        imported = step.startswith("import")
        gates_expected = 0 if step in ("steady", "husimi --steady") else 1
        assert (step, code, loaded) == (step, 0, [])
        assert parsers == (0 if imported else tree), step
        assert systems == (0 if imported else 1), step
        assert gates == (0 if imported else gates_expected), step


def test_no_runtime_path_calls_svd(monkeypatch, tmp_path):
    """The steady state is certified from the dissipator floor (or, where
    that falls short, the block inverses) and ||L||_F: with
    np.linalg.svd raising, the solver, both sweeps, the propagated tongue
    and every steady subcommand still run."""

    def no_svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    config = spinsync.SpinSystemConfig()
    spinsync.steady_state(spinsync.build_liouvillian(config, spinsync.DriveConfig()))
    spinsync.run_amplitude_sweep(config, n_theta=8, n_phi=8)
    spinsync.run_arnold_tongue(config, duration_s=None)
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


def record_instances() -> list:
    """One instance of each record type the package exports, and RunConfig."""
    config = spinsync.SpinSystemConfig()
    liouville = spinsync.build_liouvillian(config, spinsync.DriveConfig())
    rho = spinsync.steady_state(liouville)
    return [
        config,
        spinsync.DriveConfig(),
        spinsync.cli.RunConfig(),
        spinsync.build_jump_operators(config)[0],
        spinsync.build_affine_liouvillian(config),
        spinsync.spectral_report(liouville),
        spinsync.husimi_grid(rho, n_theta=8, n_phi=8),
        spinsync.haar_quadrature(n_alpha=4, n_phi=8),
        spinsync.build_pseudo_hadamard(),
        spinsync.run_limit_cycle(config, n_theta=8, n_phi=8),
        spinsync.run_drive_series(config, 0.1, durations=(1.0,), n_theta=8, n_phi=8)[0],
        spinsync.run_amplitude_sweep(config, [0.1, 0.2], n_theta=8, n_phi=8),
        spinsync.calibrate_drive([0.1, 0.2, 0.3], [0.01, 0.02, 0.03]),
    ]


def test_records_are_immutable():
    """Every exported record type, and RunConfig, refuses field assignment."""
    records = record_instances()
    exported = {name for name in EXPORTS if isinstance(getattr(spinsync, name), type)}
    assert {type(r).__name__ for r in records} == exported | {"RunConfig"}
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))


@pytest.mark.parametrize(
    "make",
    [
        lambda: spinsync.SpinSystemConfig(j_coupling_hz=500.0, t1_p_s=4.0),
        lambda: spinsync.DriveConfig(amplitude_hz=0.3, detuning_hz=-1.0),
        lambda: spinsync.cli.RunConfig(
            system=spinsync.SpinSystemConfig(j_coupling_hz=500.0), n_phi=16, seed=9
        ),
    ],
    ids=["SpinSystemConfig", "DriveConfig", "RunConfig"],
)
def test_configs_compare_and_hash_by_value(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != type(first)()
    assert {first: 1}[second] == 1


def checked_record(name: str):
    """One instance of a type whose constructor checks its fields."""
    if name == "HusimiGrid":
        return spinsync.husimi_grid(np.eye(4) / 4.0, n_theta=8, n_phi=8)
    if name == "Gate":
        return spinsync.build_controlled_phase()
    if name == "SweepResult":
        return spinsync.run_amplitude_sweep(
            spinsync.SpinSystemConfig(), [0.1, 0.2], n_theta=8, n_phi=8
        )
    if name == "RunConfig":
        return spinsync.cli.RunConfig()
    return getattr(spinsync, name)()


@pytest.mark.parametrize(
    "name, change, message",
    [
        ("SpinSystemConfig", {"t1_p_s": -1.0}, "relaxation times must be positive"),
        ("SpinSystemConfig", {"j_coupling_hz": 0.0}, "j_coupling_hz must be positive"),
        ("SpinSystemConfig", {"epsilon_f": 0.5}, r"purity factors must lie in \[0, 0.1\)"),
        ("SpinSystemConfig", {"field_tesla": math.nan}, "field_tesla must be finite"),
        ("DriveConfig", {"amplitude_hz": -1.0}, "drive amplitude must be non-negative"),
        ("DriveConfig", {"duration_s": math.inf}, "drive duration must be finite"),
        ("RunConfig", {"n_theta": 4}, "n_theta must be an integer >= 8"),
        ("RunConfig", {"seed": True}, "seed must be a non-negative integer"),
        ("HusimiGrid", {"values": np.zeros((3, 8))}, "grid values do not match"),
        ("HusimiGrid", {"phis": np.zeros(8)}, "grid axes must be strictly increasing"),
        ("Gate", {"label": "swap"}, "unknown gate label"),
        ("Gate", {"matrix": 2.0 * np.eye(4)}, "gate not unitary"),
        ("SweepResult", {"values": np.zeros(3)}, "does not match axes"),
        ("SweepResult", {"values": np.array([0.1, math.nan])}, "non-finite values"),
        # the field and temperature rules hold with the purity factors kept
        ("SpinSystemConfig", {"field_tesla": -3.0, "temperature_k": -1.0},
         "field must be positive"),
        ("SpinSystemConfig", {"temperature_k": 0.0}, "temperature must be positive"),
    ],
)
def test_replace_and_make_run_the_constructor_checks(name, change, message):
    record = checked_record(name)
    assert record._replace() == record
    assert type(record)._make(record) == record
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)._make({**record._asdict(), **change}.values())


@pytest.mark.parametrize("name", [
    "SpinSystemConfig", "DriveConfig", "RunConfig", "HusimiGrid", "Gate",
    "SweepResult",
])
def test_make_rejects_a_short_or_long_sequence(name):
    """Like a plain named tuple's ``_make``: a sequence of the wrong length
    raises TypeError, and is not completed with the constructor's defaults."""
    record = checked_record(name)
    n = len(record)
    for fields in (tuple(record)[:1], tuple(record) + (None,)):
        message = f"Expected {n} arguments, got {len(fields)}"
        with pytest.raises(TypeError, match=message):
            type(record)._make(fields)


def test_replace_keeps_resolved_system_fields():
    """_replace takes the resolved offset and purity factors as given; the
    constructor derives them from the new fields."""
    config = spinsync.SpinSystemConfig()
    hotter = config._replace(j_coupling_hz=434.0, temperature_k=596.0)
    assert hotter.offset_p_hz == config.offset_p_hz == -434.0
    assert hotter.epsilon_p == config.epsilon_p
    rebuilt = spinsync.SpinSystemConfig(j_coupling_hz=434.0, temperature_k=596.0)
    assert rebuilt.offset_p_hz == -217.0
    assert rebuilt.epsilon_p < config.epsilon_p


def test_system_config_repr_is_pinned():
    """The repr keys the generator-term memo, so its format is part of the
    contract: every field by name, in schema order, each value's repr."""
    assert repr(spinsync.SpinSystemConfig()) == (
        "SpinSystemConfig(j_coupling_hz=868.0, offset_p_hz=-434.0, "
        "offset_f_hz=0.0, t1_p_s=10.0, t1_f_s=10.0, "
        "epsilon_p=7.910658382836895e-06, epsilon_f=1.839532153567375e-05, "
        "field_tesla=11.4, temperature_k=298.0, "
        "gamma_p_hz_per_tesla=17235000.0, gamma_f_hz_per_tesla=40078000.0)"
    )


MODULES = [
    "spinsync", "spinsync.cli", "spinsync.experiments", "spinsync.imhd",
    "spinsync.liouville", "spinsync.phasespace", "spinsync.system",
]


def test_cli_import_loads_every_module_without_dataclasses():
    """``import spinsync.cli`` loads all seven package modules up front (no
    module is deferred to a subcommand) and never loads ``dataclasses``:
    the record types are named tuples, with no generated code to compile."""
    src = str(Path(spinsync.__file__).resolve().parent.parent)
    script = (
        "import json, sys, spinsync.cli\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith("
        "'spinsync')), 'dataclasses' in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [MODULES, False]

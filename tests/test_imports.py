"""What each entry point loads and sets, checked in a fresh interpreter.

No command needs SciPy: `stats` takes the normal tail from the standard
library's `math.erfc` and the quantile from the C function behind
`statistics.NormalDist.inv_cdf`, without importing `statistics`.
`import belltest` loads no submodule and no numpy, since the package resolves
its public names on first use, and leaves the environment alone.  Importing
`belltest.cli` loads no numpy either: `test` on a CSV shorter than one parse
piece and `interference` run without it, and `simulate`, `search` and `test`
on a larger CSV import it where they first need arrays.  Importing
`belltest.cli` defaults `OPENBLAS_NUM_THREADS` to 1, so whichever command
loads numpy runs without the OpenBLAS thread pool, and keeps a value already
set.  No command loads `belltest.search`, nor with it the
`concurrent.futures` thread pool of its two sweeps: `search` prints the closed
form from `qubit` and `inequalities`.  Records are named
tuples, so no module imports `dataclasses` (or the `inspect` it pulls in), and
the model modules `qubit`, `inequalities` and `streams` load only in the
commands and functions that use them: neither `import belltest.cli` nor `test`
on a short CSV loads any of these, nor `statistics`, and `simulate` loads
`qubit` and `streams` but not `inequalities`.  A warm `run_protocol` or
`predicted_conditional_triple` call runs no import statement.
"""

import builtins
import importlib
import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import belltest
from belltest.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
WITNESS_ARGS = f"0,{2 * math.pi / 3},{math.pi / 3}"
LOADED = "sorted(sys.modules)"
THREADS = "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1"

PUBLIC_NAMES = [
    "ATOMS", "BellTestError", "BlochAngle", "Branch", "ClassicalHiddenVariable",
    "CondTriple", "DegenerateAlternatives", "DegenerateVariance", "DesignVariant",
    "DuplicateRespondent", "EmptyConditioningBranch", "FloorCertificate", "FormatError",
    "FrequencyTable", "InequalityKind", "InequalityReport", "InterferenceRegime",
    "InterferenceResult", "JointDistribution3", "Outcome", "PopulationModel",
    "ProtocolDesign", "QuantumUnpolarized", "QuestionTriple",
    "ResponseDataset", "SearchResult", "SymmetryReport", "TestResult",
    "VariableIndex", "ZeroConditioningEvent", "bell_covariance_check",
    "check_symmetry", "classical_margin_floor", "conditional",
    "covariance", "estimate_frequencies", "event_probability", "interference_coefficient",
    "maximize_quantum_violation", "predicted_conditional_triple",
    "random_joint", "run_protocol", "symmetrize",
    "violation_test", "wigner_conditional_check", "wigner_joint_check", "wilson_interval",
]


def run_fresh(code: str, report: str = LOADED, openblas_threads: str | None = None):
    """Run `code` in a new interpreter whose `OPENBLAS_NUM_THREADS` is
    `openblas_threads` (None: unset), and return the JSON value of the
    expression `report` evaluated there afterwards."""
    script = code + f"\nimport json, os, sys\nprint(json.dumps({report}))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def simulate_code(out: Path) -> str:
    return ("from belltest.cli import main\n"
            f"assert main(['simulate', '--model', 'quantum', '--angles', '{WITNESS_ARGS}',"
            f" '--n', '10', '--seed', '1', '--out', {str(out)!r}]) == 0\n")


def command_code(tmp_path: Path, entry: str) -> str:
    return {
        "import": "import belltest.cli\n",
        "simulate": simulate_code(tmp_path / "data.csv"),
        "search": "from belltest.cli import main\nassert main(['search']) == 0\n",
        "test": simulate_code(tmp_path / "data.csv") + (
            f"assert main(['test', {str(tmp_path / 'data.csv')!r},"
            f" '--report', {str(tmp_path / 'r.json')!r}]) == 0\n"),
        "test-only": ("from belltest.cli import main\n"
                      f"assert main(['test', {str(tmp_path / 'data.csv')!r},"
                      f" '--report', {str(tmp_path / 'r.json')!r}]) == 0\n"),
        "interference": ("from belltest.cli import main\n"
                         "assert main(['interference', '--p', '0.75', '--p1', '0.25',"
                         " '--p2', '0.25']) == 0\n"),
    }[entry]


@pytest.mark.parametrize("entry", ["import", "simulate", "search", "test"])
def test_entry_points_load_no_scipy(tmp_path, entry):
    loaded = run_fresh(command_code(tmp_path, entry))
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


@pytest.mark.parametrize("entry", ["simulate", "search", "test"])
def test_commands_do_not_load_search(tmp_path, entry):
    loaded = run_fresh(command_code(tmp_path, entry))
    assert "belltest.dataio" in loaded
    assert "belltest.search" not in loaded
    assert "concurrent.futures" not in loaded  # the search sweeps' thread pool


def test_package_import_loads_no_submodule_or_numpy():
    code = "import os\nbefore = dict(os.environ)\nimport belltest\n"
    loaded, environ_kept = run_fresh(code, f"[{LOADED}, dict(os.environ) == before]")
    assert "belltest" in loaded
    assert [m for m in loaded if m.startswith("belltest.") or m == "numpy"] == []
    assert environ_kept


def test_cli_defaults_openblas_to_one_thread():
    threads = "len(os.listdir('/proc/self/task')) if sys.platform == 'linux' else 1"
    setting, tasks = run_fresh("import belltest.cli\n",
                               f"[os.environ.get('OPENBLAS_NUM_THREADS'), {threads}]")
    assert setting == "1"
    assert tasks == 1


@pytest.mark.parametrize("entry", ["import", "test-only", "interference"])
def test_analysis_commands_load_no_numpy(tmp_path, entry):
    # The CSV, 2 400 rows, is written by this process, before the fresh one runs.
    assert main(["simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
                 "--n", "800", "--seed", "1", "--out", str(tmp_path / "data.csv")]) == 0
    loaded = run_fresh(command_code(tmp_path, entry))
    assert [m for m in loaded if m == "numpy" or m.startswith("numpy.")] == []


@pytest.mark.parametrize("entry", ["import", "test-only"])
def test_cli_and_test_load_no_dataclasses_or_model_modules(tmp_path, entry):
    # 2 400 rows: under one parse piece, as in the numpy check above.
    assert main(["simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
                 "--n", "800", "--seed", "1", "--out", str(tmp_path / "data.csv")]) == 0
    loaded = run_fresh(command_code(tmp_path, entry))
    assert "belltest.protocol" in loaded
    unwanted = {"dataclasses", "inspect", "belltest.qubit", "belltest.inequalities",
                "belltest.streams", "statistics"}
    assert sorted(unwanted.intersection(loaded)) == []


def test_simulate_loads_the_kernel_modules_but_not_inequalities(tmp_path):
    loaded = run_fresh(command_code(tmp_path, "simulate"))
    assert {"belltest.qubit", "belltest.streams"} <= set(loaded)
    assert "belltest.inequalities" not in loaded


@pytest.mark.parametrize("block", [64, 1 << 16])
def test_warm_calls_run_no_import_statement(monkeypatch, block):
    """`run_protocol` (both populations, both designs, one block or several),
    `predicted_conditional_triple`, a dataset built from an array (counted in one
    block or several) and the analysis of a survey import what they need on
    their first call only."""
    import numpy as np
    from belltest import protocol
    witness = belltest.QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)
    populations = [belltest.QuantumUnpolarized(witness), belltest.ClassicalHiddenVariable(
        belltest.random_joint(np.random.default_rng(29)))]
    calls = [partial(belltest.run_protocol, pop, belltest.ProtocolDesign(variant, 50), seed=7)
             for pop in populations for variant in belltest.DesignVariant]
    calls.append(partial(belltest.predicted_conditional_triple, witness))
    data = calls[0]()
    owned = data.cells.copy()
    owned.flags.writeable = False
    calls += [partial(belltest.ResponseDataset, cells) for cells in (data.cells, owned)]
    calls += [partial(belltest.check_symmetry, data), partial(belltest.estimate_frequencies, data),
              partial(belltest.violation_test, belltest.estimate_frequencies(data))]
    monkeypatch.setattr(protocol, "_BLOCK", block)
    for call in calls:
        call()
    imported, real_import = [], builtins.__import__

    def counting_import(name, *args, **kwargs):
        imported.append(name)
        return real_import(name, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "__import__", counting_import)
        for call in calls:
            call()
    assert imported == []


def test_simulate_loads_numpy_with_one_openblas_thread(tmp_path):
    loaded, setting, tasks = run_fresh(
        command_code(tmp_path, "simulate"),
        f"[{LOADED}, os.environ.get('OPENBLAS_NUM_THREADS'), {THREADS}]")
    assert "numpy" in loaded
    assert setting == "1"
    assert tasks == 1


def test_cli_keeps_a_preset_openblas_thread_count():
    setting = run_fresh("import belltest.cli\n", "os.environ['OPENBLAS_NUM_THREADS']",
                        openblas_threads="3")
    assert setting == "3"


def test_lazy_exports_match_their_modules():
    assert belltest.__all__ == PUBLIC_NAMES
    assert belltest.__version__ == "0.1.0"
    assert set(PUBLIC_NAMES) <= set(dir(belltest))
    for name in PUBLIC_NAMES:
        module = importlib.import_module(f"belltest.{belltest._EXPORTS[name]}")
        assert getattr(belltest, name) is getattr(module, name), name
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        belltest.not_a_name

"""Which SciPy modules each entry point loads, checked in a fresh interpreter.

No command needs SciPy: `stats` computes the normal tail and quantile itself.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
WITNESS_ARGS = f"0,{2 * math.pi / 3},{math.pi / 3}"


def scipy_modules_after(code: str) -> set[str]:
    """Run `code` in a new interpreter and return the scipy modules it loaded."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    return set(json.loads(done.stdout.splitlines()[-1]))


def simulate_code(out: Path) -> str:
    return ("from belltest.cli import main\n"
            f"assert main(['simulate', '--model', 'quantum', '--angles', '{WITNESS_ARGS}',"
            f" '--n', '10', '--seed', '1', '--out', {str(out)!r}]) == 0\n")


@pytest.mark.parametrize("entry", ["import", "simulate", "search", "test"])
def test_entry_points_load_no_scipy(tmp_path, entry):
    code = {
        "import": "import belltest.cli\n",
        "simulate": simulate_code(tmp_path / "data.csv"),
        "search": ("from belltest.cli import main\n"
                   "assert main(['search', '--grid', '36', '--refine-tol', '1e-3',"
                   " '--floor-samples', '10']) == 0\n"),
        "test": simulate_code(tmp_path / "data.csv") + (
            f"assert main(['test', {str(tmp_path / 'data.csv')!r},"
            f" '--report', {str(tmp_path / 'r.json')!r}]) == 0\n"),
    }[entry]
    assert scipy_modules_after(code) == set()


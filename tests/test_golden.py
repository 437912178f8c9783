"""Golden SHA-256 digests of `simulate` CSVs, `test` reports and `search` output.

The CSV and report digests were recorded before the dataset became columnar,
and the `search` digest when `search` came to print the closed form; any
change to these bytes for a fixed seed shows up here.  The
`quantum-three` report digests were recorded again when the normal tail and
quantile moved to the standard library, which moved the last bits of
`p_value` and of the Wilson bounds.  The 6 000-row
cases fit in one parse piece, so one case of 3 x 200 000 agents pins the byte
paths: 6-digit ids, a format of many blocks and a parse of many pieces.
At other alphas than 0.05, the report's Wilson intervals are checked
against `wilson_interval` rather than pinned.
The `run_protocol` cell digests over 500 seeds were recorded before the
kernel's stream keys and branch bases moved into a cached per-design plan.
Over the same seeds, the analysis records equal those that their public
constructors build from the same fields.
"""

import hashlib
import json
import math
import pickle

import pytest

from belltest import (ClassicalHiddenVariable, DegenerateVariance, DesignVariant,
                      EmptyConditioningBranch, FrequencyTable, JointDistribution3, ProtocolDesign,
                      QuantumUnpolarized, QuestionTriple, SymmetryReport, check_symmetry,
                      estimate_frequencies, protocol, run_protocol, stats, violation_test,
                      wilson_interval)
from belltest.protocol import SymmetryEntry
from belltest.cli import main

WITNESS_ARGS = f"0,{2 * math.pi / 3},{math.pi / 3}"
MODELS = {
    "quantum-three": ["--model", "quantum", "--angles", WITNESS_ARGS, "--design", "three"],
    "classical-two": ["--model", "classical", "--atoms", "0.3", "0.2", "0.1", "0.05",
                      "0.05", "0.1", "0.1", "0.1", "--symmetrize", "--design", "two"],
}
# (model, seed): (CSV digest, report digest), at n = 2000 agents per branch.
GOLDEN = {
    ("quantum-three", 1): (
        "8f5418e4eafe5d84ba8772cfa9642beff87479994db38ecc495f50771fa565d1",
        "047aba04f0cea68a064c51ac364455d8d93b2c35dc942d713998323fb2e8e34f",
    ),
    ("quantum-three", 42): (
        "8cad7b5abf962afde6d710f0b69e8003ec4e49764e6d083859823665072a28f6",
        "1cfafdee41b38a0e2de58941043a4b49b2c1415f2e349ae8c9c1a36879967659",
    ),
    ("quantum-three", 111): (
        "5842620a8edd8a4b557eab15bb2833de0e05682f358dcbb41e234fc2e13e62b0",
        "2a48bcd830a7c5989a8022dc9b726efcb89004c83851d36cd3bc93d09432c3ef",
    ),
    ("classical-two", 1): (
        "72385fc0410542d16a35fc774a06968cb2b0d3dff7a1839260d2d0447af87fff",
        "647000afd7583c17f9f393f0b65760e5f5960cbaa6ed03cf1a0162348b11628e",
    ),
    ("classical-two", 42): (
        "0859562622296ce01347a5ea9dae904a3c5193dadf6bd253eaf9b4fa78bd0f8d",
        "e8635a333e8f9e65254ff31d9905dd5fc840b8cb0560529c204e1449e2aa2269",
    ),
    ("classical-two", 111): (
        "37f9e8cf7dac247da4b145878234dfbe3fa1196702744fb066542efc3b8ea1ca",
        "f70106f8e80cb4d67bea10d4d7bc0adda5bc16962e337ec55f91fc3d4732ac2d",
    ),
}


@pytest.mark.parametrize("model, seed", sorted(GOLDEN))
def test_simulate_and_test_bytes_match_golden(tmp_path, model, seed):
    csv, report = tmp_path / "data.csv", tmp_path / "report.json"
    assert main(["simulate", *MODELS[model], "--n", "2000", "--seed", str(seed),
                 "--out", str(csv)]) == 0
    assert main(["test", str(csv), "--seed", str(seed), "--report", str(report)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv, report))
    assert digests == GOLDEN[model, seed]


@pytest.mark.parametrize("alpha", [0.01, 0.2])
def test_report_intervals_are_wilson_intervals_at_one_minus_alpha(tmp_path, alpha):
    # The report digests pin alpha = 0.05 alone; at any alpha, each term's
    # interval is wilson_interval's at confidence 1 - alpha, bit for bit.
    csv, report = tmp_path / "data.csv", tmp_path / "report.json"
    assert main(["simulate", *MODELS["quantum-three"], "--n", "2000", "--seed", "1",
                 "--out", str(csv)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == GOLDEN["quantum-three", 1][0]
    assert main(["test", str(csv), f"--alpha={alpha!r}", "--report", str(report)]) == 0
    out = json.loads(report.read_text())
    assert out["alpha"] == alpha
    for entry in out["nu"].values():
        want = wilson_interval(entry["numerator"], entry["denominator"], 1 - alpha)
        assert [bound.hex() for bound in entry["wilson_interval"]] == [b.hex() for b in want]


BYTE_PATH_ARGS = ["--model", "quantum", "--angles", "0,2.0943951,1.0471976", "--design", "three",
                  "--n", "200000", "--seed", "1"]
BYTE_PATH_GOLDEN = (
    "b4aa57c1b5b1a9f58e552e19400e36708872bf736b471caae78cf6dc9f8e7247",
    "5c5f888bd69362941554e51178c110d15a0a086e7c363985c3bde93750ca6a3b",
)


def test_byte_path_bytes_match_golden(tmp_path):
    csv, report = tmp_path / "data.csv", tmp_path / "report.json"
    assert main(["simulate", *BYTE_PATH_ARGS, "--out", str(csv)]) == 0
    assert csv.stat().st_size >= 12 << 20  # twelve parse pieces or more
    assert main(["test", str(csv), "--seed", "1", "--report", str(report)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv, report))
    assert digests == BYTE_PATH_GOLDEN


DEGENERATE_ARGS = ["--model", "classical", "--atoms", "1", "0", "0", "0", "0", "0", "0", "0",
                   "--symmetrize", "--design", "three", "--n", "500", "--seed", "5"]
# Every branch proportion is 0 or 1: margin 0.0, standard error 0.0, null z
# and p-value, no Wilson intervals, and the report is still written.
DEGENERATE_GOLDEN = (
    "eab05c0d4ab8a0691a82eba21c6c57bf1fa4a6362d5cc474c7d712269e603946",
    "fa71d8b751e71ff099c7657d2b12ea2bb45115762ad04bc4e2d37e0ad0f0ab40",
)


def test_degenerate_report_bytes_match_golden(tmp_path):
    csv, report = tmp_path / "data.csv", tmp_path / "report.json"
    assert main(["simulate", *DEGENERATE_ARGS, "--out", str(csv)]) == 0
    assert main(["test", str(csv), "--report", str(report)]) == 3
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv, report))
    assert digests == DEGENERATE_GOLDEN


SEARCH_ARGS = ["search"]
SEARCH_GOLDEN = "867f6c5a5c8626bf24b86bae6395118e7c728e82d8fce9f2eda65a309f215970"


def test_search_stdout_matches_golden(capsys):
    assert main(SEARCH_ARGS) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SEARCH_GOLDEN



# run_protocol's cells over many seeds, spread across [0, 2**64) by the golden
# ratio step, at 50 agents per branch: the witness quantum population, a
# classical law with every atom weighted, and one whose zero-weight atoms give
# its CDF plateaus.  One digest per (population, design), over the cells of all
# the seeds in order, plus one survey of two blocks (3 x 30 000 agents).
MANY_SEEDS = [k * 0x9E3779B97F4A7C15 % 2**64 for k in range(500)]
CELL_POPULATIONS = {
    "quantum-witness": lambda: QuantumUnpolarized(
        QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)),
    "classical-interior": lambda: ClassicalHiddenVariable(
        JointDistribution3((0.3, 0.2, 0.1, 0.05, 0.05, 0.1, 0.1, 0.1))),
    "classical-plateaus": lambda: ClassicalHiddenVariable(
        JointDistribution3((0, 0.3, 0.2, 0, 0.1, 0.4, 0, 0))),
}
MANY_SEED_GOLDEN = {
    ("quantum-witness", "three"):
        "668da430e645d20ddc9d2024628f905a31982b2c43d8750cba358a506edea993",
    ("quantum-witness", "two"):
        "c28c7ef13c77aa7954cb885cb0e19a3bba2f7168e77dd969579c4d61646c82b0",
    ("classical-interior", "three"):
        "31b71b0d6b025d53a372da1822b38133a2bc8d153fb7b5b9a79a7bc99573dd20",
    ("classical-interior", "two"):
        "a2701b0122adcda073d068bf890f983b50e5f441911f79284b9e6b3706ebe228",
    ("classical-plateaus", "three"):
        "c12a9042e4bde2cd751093afbab1fbf8fc418a9157cd4ed701269739202a6ee7",
    ("classical-plateaus", "two"):
        "79a96d375efffb2c377aefe5b518e5b7ebd1bfecf1bbac826910c122575c323f",
}
TWO_BLOCK_GOLDEN = "942c14b36e3e329c7f1f75497a6385898fdc219f790ac60a76a35e08d5731107"


@pytest.mark.parametrize("name, design", sorted(MANY_SEED_GOLDEN))
def test_cells_over_many_seeds_match_golden(name, design):
    pop, survey = CELL_POPULATIONS[name](), ProtocolDesign(DesignVariant(design), 50)
    digest = hashlib.sha256()
    for seed in MANY_SEEDS:
        digest.update(run_protocol(pop, survey, seed).cells.tobytes())
    assert digest.hexdigest() == MANY_SEED_GOLDEN[name, design]


def test_two_block_cells_match_golden():
    design = ProtocolDesign(DesignVariant.THREE_ENSEMBLE, 30_000)
    assert protocol._BLOCK < 3 * 30_000 <= 2 * protocol._BLOCK
    cells = run_protocol(CELL_POPULATIONS["quantum-witness"](), design, seed=2**64 - 1).cells
    assert hashlib.sha256(cells.tobytes()).hexdigest() == TWO_BLOCK_GOLDEN


@pytest.mark.parametrize("design", ["three", "two"])
@pytest.mark.parametrize("name", sorted(CELL_POPULATIONS))
def test_analysis_records_equal_their_public_constructors(name, design):
    pop, survey = CELL_POPULATIONS[name](), ProtocolDesign(DesignVariant(design), 50)
    tested = 0
    for seed in MANY_SEEDS:
        data = run_protocol(pop, survey, seed)
        symmetry = check_symmetry(data)
        records = [(symmetry, SymmetryReport(
            tuple(SymmetryEntry(*tuple(entry)) for entry in symmetry.entries),
            symmetry.tolerance))]
        try:
            table = estimate_frequencies(data)
            records.append((table, FrequencyTable(*map(tuple, table))))
            test = violation_test(table)
            records.append((test, stats.TestResult(*tuple(test))))
            tested += 1
        except (EmptyConditioningBranch, DegenerateVariance):
            pass
        for record, rebuilt in records:
            for got in (record, pickle.loads(pickle.dumps(record))):
                assert got == rebuilt
                assert type(got) is type(rebuilt)
                assert repr(got) == repr(rebuilt)
    assert tested > len(MANY_SEEDS) // 2

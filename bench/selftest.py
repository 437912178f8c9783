"""Self-test of the benchmark's output checks.

Usage: python3 bench/selftest.py

Produces a small real output for each workload (an in-process CLI
simulate -> test at n = 2000, a generated two-ensemble file through
``belltest test``, one reduced model-space pass and a 200-replicate study in 10 passes),
shows that every check passes on it, then corrupts it one way at a time and
shows that the check aimed at that corruption fails.  Takes a few seconds
and starts no full workload.  Exits 1 if any expectation is not met.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import numpy as np

import checks
import run


def verdict_line(label: str, found: list, must_fail: str | None) -> bool:
    failing = sorted(name for name, ok, _ in found if not ok)
    if must_fail is None:
        ok = not failing
        expectation = "every check passes"
    else:
        ok = must_fail in failing
        expectation = f"{must_fail} fails"
    print(f"selftest {'ok  ' if ok else 'FAIL'} {label}: expected {expectation}; failing {failing or 'none'}")
    return ok


def survey_cases(cli, work) -> list[tuple]:
    n = 2000
    csv, report = work / "survey.csv", work / "survey.json"
    cli.main(["simulate", "--model", "quantum", "--angles", run.WITNESS_ARG, "--design", "three",
              "--n", str(n), "--seed", "7", "--out", str(csv)])
    cli.main(["test", str(csv), "--report", str(report)])
    data, rep = csv.read_bytes(), json.loads(report.read_text())
    digest = checks.csv_digest(data)
    truncated = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
    flipped = data.replace(b"+1", b"-1", 1)
    return [
        ("survey-large as produced", checks.check_survey(data, rep, n, digest), None),
        ("survey-large truncated CSV", checks.check_survey(truncated, rep, n, digest), "survey.rows"),
        ("survey-large wrong verdict",
         checks.check_survey(data, {**rep, "verdict": checks.CLASSICAL}, n, digest), "survey.verdict"),
        ("survey-large margin moved 10 SE",
         checks.check_survey(data, {**rep, "margin": rep["margin"] + 10 * rep["standard_error"]},
                             n, digest), "survey.margin"),
        ("survey-large one answer flipped", checks.check_survey(flipped, rep, n, digest), "survey.digest"),
    ]


def ingest_cases(cli, work) -> list[tuple]:
    path, report = work / "ingest.csv", work / "ingest.json"
    expected = run.write_ingest_file(np.random.default_rng(7), path, 400)
    cli.main(["test", str(path), "--report", str(report)])
    rep = json.loads(report.read_text())
    flipped = json.loads(json.dumps(rep))
    flipped["nu"]["a_given_b_plus"]["numerator"] += 1
    return [
        ("ingest-small as produced", checks.check_ingest(rep, expected), None),
        ("ingest-small flipped count", checks.check_ingest(flipped, expected), "ingest.counts"),
        ("ingest-small wrong verdict",
         checks.check_ingest({**rep, "verdict": checks.VIOLATION}, expected), "ingest.verdict"),
    ]


def model_cases(ctx) -> list[tuple]:
    parts = run.ModelSpace(ctx, 7, grid=360, tol=1e-9, floor=10_000, fuzz=100).run_pass(0, None).parts

    def with_(**change):
        return checks.check_model_space(**{**parts, **change})

    return [
        ("model-space as produced", with_(), None),
        ("model-space optimum off by 1e-6", with_(best_margin=parts["best_margin"] + 1e-6),
         "model.best_margin"),
        ("model-space negative classical floor", with_(floor_min=-1e-6), "model.classical_floor"),
        ("model-space negative fuzzed margin", with_(fuzz_min=-1e-6), "model.classical_fuzz"),
        ("model-space triple below -0.25", with_(triple_min=-0.26), "model.quantum_triples"),
    ]


def replicate_cases(ctx) -> list[tuple]:
    workload = run.ReplicateSmall(ctx, 7)
    workload.setup()
    outcomes = Counter(o for i in range(10) for o in workload.run_pass(i, None).outcomes)
    counts = (outcomes["quantum:reject"], 100, outcomes["classical:reject"], 100)
    return [
        ("replicate-small as produced", checks.check_replicates(*counts), None),
        ("replicate-small no power", checks.check_replicates(0, *counts[1:]), "replicate.quantum_power"),
        ("replicate-small classical rejected half the time",
         checks.check_replicates(*counts[:2], 50, 100), "replicate.classical_rejection"),
    ]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import belltest.cli as cli

    ctx = run.Context()
    work = run.WORK / "selftest"
    work.mkdir(exist_ok=True)
    cases = survey_cases(cli, work) + ingest_cases(cli, work) + model_cases(ctx) + replicate_cases(ctx)
    results = [verdict_line(*case) for case in cases]
    print(f"selftest {sum(results)}/{len(results)} expectations met")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

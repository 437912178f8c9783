"""Output checks for the benchmark workloads.

Each function takes a workload's outputs and returns a list of checks,
``(name, passed, detail)``.  They are pure, so ``selftest.py`` can feed
them corrupted outputs and show that every check fails on its corruption.
"""

from __future__ import annotations

import hashlib

Check = tuple[str, bool, str]

QUANTUM_MARGIN = -0.25  # predicted conditional-form margin at the witness angles
VIOLATION = "quantum-like-violation"
CLASSICAL = "classical-consistent"
NU_KEYS = ("a_given_b_plus", "c_given_b_minus", "a_given_c_plus")

# Loose bands: ROADMAP item 1 will change the small-n test on purpose.
POWER_BAND = (0.25, 0.85)
MAX_CLASSICAL_REJECTION = 0.10


def csv_digest(csv: bytes) -> str:
    return hashlib.sha256(csv).hexdigest()


def check_survey(csv: bytes, report: dict, n_per_branch: int,
                 reference_digest: str | None) -> list[Check]:
    """survey-large: rows, verdict, margin near -0.25, CSV digest by seed."""
    rows = csv.count(b"\n") - 1
    margin, se = report.get("margin"), report.get("standard_error") or 0.0
    digest = csv_digest(csv)
    return [
        ("survey.rows", rows == 3 * n_per_branch, f"{rows} rows for n={n_per_branch}"),
        ("survey.verdict", report.get("verdict") == VIOLATION, str(report.get("verdict"))),
        ("survey.margin",
         margin is not None and abs(margin - QUANTUM_MARGIN) <= 5.0 * se,
         f"margin {margin} with standard error {se}"),
        ("survey.digest", reference_digest in (None, digest),
         f"{digest[:16]} vs reference {str(reference_digest)[:16]}"),
    ]


def check_ingest(report: dict, expected: dict[str, tuple[int, int]]) -> list[Check]:
    """ingest-small: the report's counts equal the generator's own counts."""
    got = {k: (report["nu"][k]["numerator"], report["nu"][k]["denominator"])
           for k in NU_KEYS}
    return [
        ("ingest.counts", got == expected, f"report {got} vs generator {expected}"),
        ("ingest.verdict", report.get("verdict") == CLASSICAL, str(report.get("verdict"))),
    ]


def check_model_space(best_margin: float, floor_min: float, fuzz_min: float,
                      triple_min: float) -> list[Check]:
    """model-space: optimum, classical floor, and both fuzz sweeps."""
    return [
        ("model.best_margin", abs(best_margin - QUANTUM_MARGIN) <= 1e-9, repr(best_margin)),
        ("model.classical_floor", floor_min >= -1e-12, repr(floor_min)),
        ("model.classical_fuzz", fuzz_min >= -1e-9, f"lowest margin {fuzz_min!r}"),
        ("model.quantum_triples", triple_min >= QUANTUM_MARGIN - 1e-9,
         f"lowest predicted margin {triple_min!r}"),
    ]


def check_replicates(quantum_rejects: int, quantum_total: int,
                     classical_rejects: int, classical_total: int) -> list[Check]:
    """replicate-small: power and classical rejection rate in loose bands."""
    power = quantum_rejects / quantum_total if quantum_total else float("nan")
    size = classical_rejects / classical_total if classical_total else float("nan")
    return [
        ("replicate.quantum_power", POWER_BAND[0] <= power <= POWER_BAND[1],
         f"{quantum_rejects}/{quantum_total} = {power:.4f}"),
        ("replicate.classical_rejection", size <= MAX_CLASSICAL_REJECTION,
         f"{classical_rejects}/{classical_total} = {size:.4f}"),
    ]

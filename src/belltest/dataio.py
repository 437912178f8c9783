"""Dataset and report serialization.

CSV dataset format (header is bit-exact):

    respondent_id,branch,first_question,first_answer,second_question,second_answer

Answers are spelled "+1"/"-1" and questions "a"/"b"/"c", asked in the
branch's order.  The JSON report has a fixed key order so identical runs
serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import DuplicateRespondent, FormatError
from .protocol import (
    CELL_FIELDS,
    CONSISTENT_CELLS,
    Branch,
    FrequencyTable,
    ResponseDataset,
    ResponseRecord,
    SymmetryReport,
)
from .probability import Outcome, VariableIndex
from .stats import TestResult

CSV_HEADER = "respondent_id,branch,first_question,first_answer,second_question,second_answer"

VERDICT_CLASSICAL = "classical-consistent"
VERDICT_QUANTUM = "quantum-like-violation"
VERDICT_DEGENERATE = "inconclusive-degenerate"


# Each cell's row after the respondent id: ",branch,q1,a1,q2,a2" and newline.
_ROW_TAILS = tuple(
    ",".join(("", b.value, q1.token(), a1.token(), q2.token(), a2.token())) + "\n"
    for b, q1, a1, q2, a2 in CELL_FIELDS
)
# The fields after the id that a well-formed row may hold, and their cells.
_CELL_OF_FIELDS = {_ROW_TAILS[cell][1:-1]: cell for cell in CONSISTENT_CELLS}


def format_dataset(data: ResponseDataset) -> str:
    tails = map(_ROW_TAILS.__getitem__, data.cells.tolist())
    return "".join([CSV_HEADER, "\n", *map(str.__add__, data.respondent_ids, tails)])


def parse_dataset(text: str) -> ResponseDataset:
    """Parse CSV content; raises FormatError / DuplicateRespondent."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise FormatError(1, f"header must be exactly {CSV_HEADER!r}")
    rows: dict[str, int] = {}  # respondent id -> cell, in file order
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        rid, _, fields = line.partition(",")
        cell = _CELL_OF_FIELDS.get(fields)
        if cell is None or rid == "" or rid in rows:
            cell = _checked_cell(lineno, line, rows)
        rows[rid] = cell
    return ResponseDataset.from_cells(list(rows.values()), list(rows))


def _checked_cell(lineno: int, line: str, seen: dict[str, int]) -> int:
    """Check, field by field, a row the table lookup missed: returns its cell
    (question tokens may be upper case) or raises for its first bad field."""
    fields = line.split(",")
    if len(fields) != 6:
        raise FormatError(lineno, f"expected 6 fields, got {len(fields)}")
    rid, branch_tok, q1_tok, a1_tok, q2_tok, a2_tok = fields
    if rid == "":
        raise FormatError(lineno, "empty respondent id")
    if rid in seen:
        raise DuplicateRespondent(rid, lineno)
    try:
        rec = ResponseRecord(rid, Branch(branch_tok), VariableIndex.from_token(q1_tok),
                             Outcome.from_token(a1_tok), VariableIndex.from_token(q2_tok),
                             Outcome.from_token(a2_tok))
    except ValueError as exc:
        raise FormatError(lineno, str(exc)) from None
    tokens = (branch_tok, rec.first_question.token(), a1_tok, rec.second_question.token(), a2_tok)
    cell = _CELL_OF_FIELDS.get(",".join(tokens))
    if cell is None:
        raise FormatError(
            lineno,
            f"branch {branch_tok} does not ask {q1_tok}, then {q2_tok} after {a1_tok}",
        )
    return cell


@dataclass(frozen=True)
class ReportContext:
    """Run facts echoed into the report."""

    seed: int | None
    design: str | None
    alpha: float


def _nu_entry(counts: tuple[int, int], interval: tuple[float, float] | None) -> dict:
    num, den = counts
    entry = {
        "numerator": num,
        "denominator": den,
        "estimate": num / den,
    }
    if interval is not None:
        entry["wilson_interval"] = [interval[0], interval[1]]
    return entry


def build_report(
    test: TestResult | None,
    table: FrequencyTable,
    context: ReportContext,
    symmetry: SymmetryReport | None = None,
    degenerate_margin: float | None = None,
) -> dict:
    """Assemble the report object; pass test=None with degenerate_margin for
    runs where the asymptotic test is undefined."""
    intervals = test.term_intervals if test is not None else (None, None, None)
    if test is not None:
        verdict = VERDICT_QUANTUM if test.significant_violation else VERDICT_CLASSICAL
    else:
        verdict = VERDICT_DEGENERATE
    symmetry_block = None
    if symmetry is not None:
        symmetry_block = {
            "tolerance": symmetry.tolerance,
            "passed": symmetry.passed,
            "questions": {
                e.question.token(): {
                    "plus_fraction": e.plus_fraction,
                    "n_first_asked": e.n_first_asked,
                    "flagged": e.flagged,
                }
                for e in symmetry.entries
            },
        }
    return {
        "nu": {
            "a_given_b_plus": _nu_entry(table.nu_a_given_b_plus, intervals[0]),
            "c_given_b_minus": _nu_entry(table.nu_c_given_b_minus, intervals[1]),
            "a_given_c_plus": _nu_entry(table.nu_a_given_c_plus, intervals[2]),
        },
        "margin": test.margin_estimate if test is not None else degenerate_margin,
        "standard_error": test.standard_error if test is not None else 0.0,
        "z": test.z_statistic if test is not None else None,
        "p_value": test.p_value if test is not None else None,
        "alpha": context.alpha,
        "verdict": verdict,
        "symmetry_check": symmetry_block,
        "seed": context.seed,
        "design": context.design,
    }


def emit_report(
    test: TestResult | None,
    table: FrequencyTable,
    context: ReportContext,
    symmetry: SymmetryReport | None = None,
    degenerate_margin: float | None = None,
) -> str:
    """Serialize the report with a stable key order and trailing newline."""
    report = build_report(test, table, context, symmetry, degenerate_margin)
    return json.dumps(report, indent=2, sort_keys=False) + "\n"

"""Dataset and report serialization.

CSV dataset format (header is bit-exact):

    respondent_id,branch,first_question,first_answer,second_question,second_answer

Answers are spelled "+1"/"-1" and questions "a"/"b"/"c", asked in the
branch's order.  The JSON report has a fixed key order so identical runs
serialize to identical bytes.

A dataset holds no ids.  ``format_dataset`` writes row k's id as ``r`` and
the zero-padded k, as ``run_protocol`` numbers agents, so a parsed file is
written back renumbered; it fills one uint8 array a block at a time.
``parse_dataset`` checks that ids are non-empty, hold no comma and are
unique, and keeps only the cells.  ASCII text of at least ``_PIECE`` bytes
that starts with the exact header line, ends in a newline and has no line
break but ``\n`` and no id over ``_LONGEST_BYTE_ID`` bytes takes the byte
path: in pieces cut just after a newline, it checks every row's 13-byte tail
(question tokens in either case) and id, then that no two ids share a 64-bit
key, as equal ids always do.  It holds the text plus 9 bytes per line (a cell
and an id key); the dataset keeps the cell.  Any other text (CRLF rows,
non-ASCII ids, a bad row), and text that fails a check in any piece, goes
whole to the per-line loop.  That loop accepts exactly the same files and is
the only code that raises, so each error keeps its exception, line and
message.  It holds about 8 times the text, and alone parses text shorter
than a piece, without numpy, which only the byte paths import.
"""

from __future__ import annotations

import json
from functools import cache
from types import SimpleNamespace

from .errors import DuplicateRespondent, FormatError
from .protocol import (CELL_FIELDS, CONSISTENT_CELLS, Branch, FrequencyTable, ResponseDataset,
                       SymmetryReport)
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

_HEADER_LINE = CSV_HEADER + "\n"
_TAIL = len(_ROW_TAILS[0]) - 1  # a tail is 13 bytes and "\n"
_PIECE = 1 << 20  # bytes per piece on the byte paths
# Ids on the byte path cost one array pass per 8 bytes of the longest, so a
# file with a longer id takes the per-line loop.
_LONGEST_BYTE_ID = 64
# The ASCII characters other than "\n" at which str.splitlines breaks.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _words(buf: np.ndarray) -> np.ndarray:
    """Every 8-byte little-endian word of ``buf``: word i is ``buf[i:i + 8]``."""
    import numpy as np
    return np.ndarray((max(len(buf) - 7, 0),), "<u8", buf, strides=(1,))


def _tail_words(words: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 13 bytes before each newline at ``ends``, as two overlapping words."""
    return words[ends - _TAIL], words[ends - 8]


@cache
def _tables() -> SimpleNamespace:
    """The byte paths' numpy tables, built on first use."""
    import numpy as np
    t = SimpleNamespace()  # tail_bytes: the row tails as a (cells, 14) byte table
    t.tail_bytes = np.frombuffer("".join(_ROW_TAILS).encode("ascii"), np.uint8).reshape(
        len(_ROW_TAILS), -1)
    # Odd multiplier of the wrapping uint64 fold that keys tails and ids.
    t.fold = np.uint64(0x9E3779B97F4A7C15)
    t.word_folds = np.cumprod(np.full(_LONGEST_BYTE_ID // 8, t.fold))  # fold ** (k + 1), word k
    # byte_masks[k] keeps the first k bytes of a little-endian word.
    t.byte_masks = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
    # Byte 4 of both tail words is a question token.  ORing 0x20 into it maps
    # "A"/"B"/"C" to "a"/"b"/"c", as the per-line loop reads them, and no other
    # ASCII byte to a question token.
    t.lower_q = np.uint64(0x20 << 32)
    # The first and last word of each cell's tail, and the consistent cells in
    # the order of their tails' fold keys.
    t.cell_lo, t.cell_hi = _tail_words(_words(t.tail_bytes.ravel()),
                                       np.arange(len(_ROW_TAILS)) * (_TAIL + 1) + _TAIL)
    keys = t.cell_lo * t.fold + t.cell_hi
    t.key_cells = np.array(sorted(CONSISTENT_CELLS, key=keys.__getitem__), np.uint8)
    t.sorted_keys = keys[t.key_cells]
    return t


def format_dataset(data: ResponseDataset) -> str:
    import numpy as np
    n = len(data)
    width = len(str(n))
    head, row = len(_HEADER_LINE), 2 + width + _TAIL
    out = np.empty(head + n * row, np.uint8)
    out[:head] = np.frombuffer(_HEADER_LINE.encode("ascii"), np.uint8)
    rows = out[head:].reshape(n, row)
    rows[:, 0] = ord("r")
    step = max(_PIECE // row, 1)
    for first in range(0, n, step):
        block, number = rows[first:first + step], np.arange(first, min(first + step, n))
        for column in range(width, 0, -1):
            number, digit = np.divmod(number, 10)
            block[:, column] = digit + ord("0")
        block[:, 1 + width:] = _tables().tail_bytes[data.cells[first:first + step]]
    return str(out, "ascii")


def parse_dataset(text: str) -> ResponseDataset:
    """Parse CSV content; raises FormatError / DuplicateRespondent.  Text
    shorter than a piece goes straight to the per-line loop, without numpy."""
    data = _parse_bytes(text) if len(text) >= _PIECE else None
    return data if data is not None else _parse_lines(text)


def _parse_bytes(text: str) -> ResponseDataset | None:
    """The dataset in ``text`` by array operations on its bytes, one piece at
    a time, or None when any row needs the per-line loop."""
    if not (text.isascii() and text.startswith(_HEADER_LINE) and text.endswith("\n")) \
            or any(c in text for c in _OTHER_BREAKS):
        return None
    import numpy as np
    cells = np.empty(text.count("\n") - 1, np.uint8)
    keys = np.empty(len(cells), np.uint64)
    n, at = 0, len(_HEADER_LINE) - 1
    while at < len(text) - 1:
        # Cut at the last newline in _PIECE bytes, or at the next if none.
        cut = max(text.rfind("\n", at + 1, at + _PIECE), text.find("\n", at + 1))
        rows = _piece_rows(np.frombuffer(text[at:cut + 1].encode("ascii"), np.uint8))
        if rows is None:
            return None
        end = n + len(rows[0])
        cells[n:end], keys[n:end] = rows
        n, at = end, cut
    (keys := keys[:n]).sort()
    if (keys[1:] == keys[:-1]).any():
        return None
    return ResponseDataset(cells[:n])


def _piece_rows(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The cells and id keys of the rows in ``buf``, which starts and ends
    with a newline, or None when a row fails a check."""
    import numpy as np
    newlines = np.flatnonzero(buf == ord("\n"))
    filled = np.diff(newlines) > 1
    starts, ends = newlines[:-1][filled] + 1, newlines[1:][filled]
    id_lengths = ends - starts - _TAIL
    if len(ends) and not 1 <= id_lengths.min() <= id_lengths.max() <= _LONGEST_BYTE_ID:
        return None
    # Each tail holds five commas, so an id with one shows here.
    if np.count_nonzero(buf == ord(",")) != 5 * len(ends):
        return None
    words = _words(buf)
    keys, t = _id_keys(words, starts, id_lengths), _tables()
    lo, hi = (word | t.lower_q for word in _tail_words(words, ends))
    slot = np.searchsorted(t.sorted_keys, lo * t.fold + hi)
    cells = t.key_cells[slot.clip(max=len(t.sorted_keys) - 1)]
    if not (np.array_equal(lo, t.cell_lo[cells]) and np.array_equal(hi, t.cell_hi[cells])):
        return None
    return cells, keys


def _id_keys(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A 64-bit key for each id at ``starts``, the same in any piece: equal ids
    have equal keys, and an id of up to 8 bytes is its own key, with its length."""
    import numpy as np
    t = _tables()
    key = lengths.astype(np.uint64)
    for offset, fold in zip(range(0, lengths.max(initial=0), 8), t.word_folds):
        at = np.minimum(starts + offset, len(words) - 1)
        key += (words[at] & t.byte_masks[(lengths - offset).clip(0, 8)]) * fold
    return key


def _parse_lines(text: str) -> ResponseDataset:
    """Parse line by line; the path that raises for a malformed row."""
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
    return ResponseDataset(list(rows.values()))


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
        # Left to right, so the first bad field names the error.
        _, q1, _, q2, _ = (Branch(branch_tok), VariableIndex.from_token(q1_tok),
                           Outcome.from_token(a1_tok), VariableIndex.from_token(q2_tok),
                           Outcome.from_token(a2_tok))
    except ValueError as exc:
        raise FormatError(lineno, str(exc)) from None
    if q1 == q2:
        raise FormatError(lineno, "an agent is never asked the same question twice")
    tokens = (branch_tok, q1.token(), a1_tok, q2.token(), a2_tok)
    cell = _CELL_OF_FIELDS.get(",".join(tokens))
    if cell is None:
        raise FormatError(
            lineno, f"branch {branch_tok} does not ask {q1_tok}, then {q2_tok} after {a1_tok}")
    return cell


def _nu_entry(counts: tuple[int, int], interval: tuple[float, float] | None) -> dict:
    num, den = counts
    entry = {"numerator": num, "denominator": den, "estimate": num / den}
    if interval is not None:
        entry["wilson_interval"] = [interval[0], interval[1]]
    return entry


def emit_report(
    test: TestResult | None,
    table: FrequencyTable,
    symmetry: SymmetryReport,
    *,
    seed: int | None,
    design: str | None,
    alpha: float,
    degenerate_margin: float | None = None,
) -> str:
    """The report as JSON, with a stable key order and trailing newline, that
    echoes ``seed``, ``design`` and ``alpha``; pass test=None with
    degenerate_margin for runs where the asymptotic test is undefined."""
    intervals = test.term_intervals if test is not None else (None, None, None)
    if test is not None:
        verdict = VERDICT_QUANTUM if test.significant_violation else VERDICT_CLASSICAL
    else:
        verdict = VERDICT_DEGENERATE
    report = {
        "nu": {
            "a_given_b_plus": _nu_entry(table.nu_a_given_b_plus, intervals[0]),
            "c_given_b_minus": _nu_entry(table.nu_c_given_b_minus, intervals[1]),
            "a_given_c_plus": _nu_entry(table.nu_a_given_c_plus, intervals[2]),
        },
        "margin": test.margin_estimate if test is not None else degenerate_margin,
        "standard_error": test.standard_error if test is not None else 0.0,
        "z": test.z_statistic if test is not None else None,
        "p_value": test.p_value if test is not None else None,
        "alpha": alpha,
        "verdict": verdict,
        "symmetry_check": {
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
        },
        "seed": seed,
        "design": design,
    }
    return json.dumps(report, indent=2, sort_keys=False) + "\n"

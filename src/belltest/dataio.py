"""Dataset and report serialization.

CSV dataset format (header is bit-exact):

    respondent_id,branch,first_question,first_answer,second_question,second_answer

Answers are spelled "+1"/"-1" and questions "a"/"b"/"c", asked in the
branch's order.  The JSON report has a fixed key order so identical runs
serialize to identical bytes.

A dataset holds no ids.  ``format_dataset`` writes row k's id as ``r`` and
the zero-padded k, as ``run_protocol`` numbers agents, so a parsed file is
written back renumbered; it fills one uint8 array a block at a time, with
each row's tail, one of 20, taken by its cell code.  ``parse_dataset``
checks that ids are non-empty, comma-free and unique, and keeps only the
cells.  ASCII text of at least ``_PIECE`` bytes that starts with the exact
header line and ends in a newline takes the byte path: per piece, cut after
a newline, it checks for line breaks but ``\n`` (only where bytes below 0x20
outnumber newlines), each row's 13-byte tail by a 64-slot perfect hash of
the 20 (question tokens in either case) and each id (up to
``_LONGEST_BYTE_ID`` bytes); then that no two ids share a 64-bit key, as equal
ids do.  It holds the text plus 9 bytes per 15 of it.  Other text (CRLF rows,
non-ASCII ids, a bad row) goes whole to the per-line loop, the only code that
raises, which accepts exactly the same files and needs about 8 times the text.
Text under a piece takes that loop alone, without numpy.
"""

from __future__ import annotations

import json
from functools import cache
from types import SimpleNamespace

from .errors import DegenerateVariance, DuplicateRespondent, FormatError
from .protocol import CELL_FIELDS, Branch, FrequencyTable, ResponseDataset, SymmetryReport
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
_CELL_OF_FIELDS = {tail[1:-1]: cell for cell, tail in enumerate(_ROW_TAILS)}

_HEADER_LINE = CSV_HEADER + "\n"
_TAIL = len(_ROW_TAILS[0]) - 1  # a tail is 13 bytes and "\n"
_PIECE = 1 << 20  # bytes per piece on the byte paths
# Ids on the byte path cost one array pass per 8 bytes of the longest, so a
# file with a longer id takes the per-line loop.
_LONGEST_BYTE_ID = 64


def _words(buf: np.ndarray) -> np.ndarray:
    """Every 8-byte little-endian word of ``buf``: word i is ``buf[i:i + 8]``."""
    import numpy as np
    return np.ndarray((max(len(buf) - 7, 0),), "<u8", buf, strides=(1,))


@cache
def _tables() -> SimpleNamespace:
    """The byte paths' numpy tables, built on first use."""
    import numpy as np
    t = SimpleNamespace()
    # Each cell's tail, the 13 bytes before a row's newline, as its first and last 8.
    words = _words(np.frombuffer("".join(_ROW_TAILS).encode("ascii"), np.uint8))
    t.tail_lo, t.tail_hi = words[::_TAIL + 1], words[_TAIL - 8::_TAIL + 1]
    # Odd multiplier of the wrapping uint64 fold that keys tails and ids.
    t.fold = np.uint64(0x9E3779B97F4A7C15)
    t.word_folds = np.cumprod(np.full(_LONGEST_BYTE_ID // 8, t.fold))  # fold ** (k + 1), word k
    # byte_masks[k] keeps the first k bytes of a little-endian word.
    t.byte_masks = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)
    # Byte 4 of both tail words is a question token: ORing 0x20 into it maps "A"/"B"/"C"
    # to "a"/"b"/"c", as the per-line loop reads them, and no other ASCII byte to one.
    t.lower_q = np.uint64(0x20 << 32)
    # A 64-slot perfect hash of the tails' words: slot (fold key >> shift) & 63 holds
    # a cell and its words; an empty slot holds 0, no row's word (byte 4 >= 0x20).
    lo, hi, cells = t.tail_lo, t.tail_hi, np.arange(len(_ROW_TAILS))
    keys = lo * t.fold + hi
    t.shift = next(s for s in range(59) if len(set(keys >> s & 63)) == len(keys))
    slots = keys >> t.shift & 63
    t.slot_lo, t.slot_hi, t.slot_cell = *np.zeros((2, 64), np.uint64), np.zeros(64, np.uint8)
    t.slot_lo[slots], t.slot_hi[slots], t.slot_cell[slots] = lo, hi, cells
    return t


def format_dataset(data: ResponseDataset) -> str:
    import numpy as np
    n = len(data)
    width = len(str(n))
    head, row = len(_HEADER_LINE), 2 + width + _TAIL
    out = np.empty(head + n * row, np.uint8)
    out[:head] = np.frombuffer(_HEADER_LINE.encode("ascii"), np.uint8)
    rows = out[head:].reshape(n, row)
    rows[:, 0], rows[:, -1], t = ord("r"), ord("\n"), _tables()
    step = max(_PIECE // row, 1)
    for first in range(0, n, step):
        # Unsigned row numbers, fastest to divide, in buffers that keep the RSS down.
        block = rows[first:first + step]
        number = np.arange(first, first + len(block), dtype=np.min_scalar_type(n))
        tens, digit = np.empty_like(number), np.empty_like(number)
        for column in range(width, 0, -1):
            np.floor_divide(number, 10, out=tens)
            np.subtract(number, np.multiply(tens, 10, out=digit), out=digit)
            np.add(digit, ord("0"), out=block[:, column], casting="unsafe")
            number, tens = tens, number
        words, cells = _words(block.ravel()[1 + width:]), data.cells[first:first + step]
        words[::row], words[_TAIL - 8::row] = t.tail_lo.take(cells), t.tail_hi.take(cells)
    return str(out, "ascii")


def parse_dataset(text: str) -> ResponseDataset:
    """Parse CSV content; raises FormatError / DuplicateRespondent.  Text
    shorter than a piece goes straight to the per-line loop, without numpy."""
    data = _parse_bytes(text) if len(text) >= _PIECE else None
    return data if data is not None else _parse_lines(text)


def _parse_bytes(text: str) -> ResponseDataset | None:
    """The dataset in ``text`` by array operations on its bytes, one piece at
    a time, or None when any row needs the per-line loop."""
    if not (text.isascii() and text.startswith(_HEADER_LINE) and text.endswith("\n")):
        return None
    import numpy as np
    # A row takes 15 bytes or more: an id, its tail and a newline.
    cells, keys = np.empty(len(text) // 15, np.uint8), np.empty(len(text) // 15, np.uint64)
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
    n = np.count_nonzero(buf == ord("\n"))
    # str.splitlines breaks at "\n" and at these ASCII bytes, all below 0x20.
    if np.count_nonzero(buf < 0x20) > n and np.isin(buf, list(b"\r\v\f\x1c\x1d\x1e")).any():
        return None
    # Rows of one length, as format_dataset writes them, are read by slicing.
    stride = int(np.argmax(buf[1:_LONGEST_BYTE_ID + _TAIL + 2] == ord("\n"))) + 1
    if stride > 1 and (n - 1) * stride == len(buf) - 1 and (buf[::stride] == ord("\n")).all():
        ends, lengths, rows = slice(stride, None, stride), stride - _TAIL - 1, n - 1
    else:
        newlines = np.flatnonzero(buf == ord("\n"))
        ends, lengths = newlines[1:], np.diff(newlines) - (_TAIL + 1)  # of ids
        if (blank := lengths == -_TAIL).any():
            ends, lengths = ends[~blank], lengths[~blank]
        rows = len(ends)
    if rows and not 1 <= np.min(lengths) <= np.max(lengths) <= _LONGEST_BYTE_ID:
        return None
    # Each tail holds five commas, so an id with one shows here.
    if np.count_nonzero(buf == ord(",")) != 5 * rows:
        return None
    t, words = _tables(), _words(buf)
    def at(shift):  # each row's word at ``shift`` bytes from its newline
        return words[ends.start + shift::ends.step] if type(ends) is slice else words[ends + shift]
    # A 64-bit key per id, the same in any piece: equal ids have equal keys, and
    # an id of up to 8 bytes is its own key, with its length.  Past its end, the
    # tail's word stands in, masked out.
    keys = np.full(rows, lengths, np.uint64)
    for k, fold in zip(range(0, np.max(lengths, initial=0), 8), t.word_folds):  # k: id offset
        word = at(np.minimum(k - lengths, 0) - _TAIL) & t.byte_masks[np.clip(lengths - k, 0, 8)]
        keys += np.multiply(word, fold, out=word)
    # Each row's tail as two words, its first 8 and its last 8 bytes.
    lo, hi = (at(-shift) | t.lower_q for shift in (_TAIL, 8))
    slot = (lo * t.fold + hi >> t.shift & 63).view(np.int64)
    if not (np.array_equal(lo, t.slot_lo[slot]) and np.array_equal(hi, t.slot_hi[slot])):
        return None
    return t.slot_cell[slot], keys


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
    return entry if interval is None else {**entry, "wilson_interval": list(interval)}


def verdict(test: TestResult | DegenerateVariance) -> str:
    """The report's verdict on ``violation_test``'s result or the
    DegenerateVariance it raised."""
    if isinstance(test, DegenerateVariance):
        return VERDICT_DEGENERATE
    return VERDICT_QUANTUM if test.significant_violation else VERDICT_CLASSICAL


def emit_report(
    test: TestResult | DegenerateVariance,
    table: FrequencyTable,
    symmetry: SymmetryReport,
    *,
    seed: int | None,
    design: str | None,
    alpha: float,
) -> str:
    """The report as JSON, with a stable key order and trailing newline, that
    echoes ``seed``, ``design`` and ``alpha``.  ``test`` is ``violation_test``'s
    result or the DegenerateVariance it raised; the latter reports its exact
    margin, a zero standard error, no z, p-value or Wilson intervals."""
    degenerate = isinstance(test, DegenerateVariance)
    intervals = (None, None, None) if degenerate else test.term_intervals
    report = {
        "nu": {
            "a_given_b_plus": _nu_entry(table.nu_a_given_b_plus, intervals[0]),
            "c_given_b_minus": _nu_entry(table.nu_c_given_b_minus, intervals[1]),
            "a_given_c_plus": _nu_entry(table.nu_a_given_c_plus, intervals[2]),
        },
        "margin": test.margin if degenerate else test.margin_estimate,
        "standard_error": 0.0 if degenerate else test.standard_error,
        "z": None if degenerate else test.z_statistic,
        "p_value": None if degenerate else test.p_value,
        "alpha": alpha,
        "verdict": verdict(test),
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

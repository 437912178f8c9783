"""The CSV byte paths against reference copies of the string code they replace.

``reference_parse`` is the per-line ``parse_dataset`` loop as it stood before
parsing went through numpy, and ``reference_format`` the ``"r%0wd"`` string
join.  ``parse_dataset`` must give the same cells, or raise the same
exception class with the same line and message, on every input below.  The
byte paths work in pieces cut at newlines, so each fixed input is checked at
the default piece size and at every size from 1 to 80 bytes, and the
``hypothesis`` inputs at the default size and at a few dozen bytes.
"""

import gc
import string
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belltest import (
    Branch,
    DesignVariant,
    DuplicateRespondent,
    FormatError,
    Outcome,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    ResponseDataset,
    VariableIndex,
    run_protocol,
)
from belltest import dataio
from belltest.cli import main
from belltest.dataio import CSV_HEADER, _parse_bytes, format_dataset, parse_dataset
from belltest.protocol import CELL_FIELDS


# The reference's own answer and question tokens, spelled out here, not taken from the package.
OUTCOME_OF = {"+1": Outcome.PLUS, "-1": Outcome.MINUS}
QUESTION_OF = {"a": VariableIndex.A, "b": VariableIndex.B, "c": VariableIndex.C}
OUTCOME_TOKEN = {v: t for t, v in OUTCOME_OF.items()}
QUESTION_TOKEN = {v: t for t, v in QUESTION_OF.items()}


def reference_outcome(token):
    if token not in OUTCOME_OF:
        raise ValueError(f"outcome token must be '+1' or '-1', got {token!r}")
    return OUTCOME_OF[token]


def reference_question(token):
    if token.lower() not in QUESTION_OF:
        raise ValueError(f"question token must be a/b/c, got {token!r}")
    return QUESTION_OF[token.lower()]


def tail(b, q1, a1, q2, a2):
    tokens = (b.value, QUESTION_TOKEN[q1], OUTCOME_TOKEN[a1], QUESTION_TOKEN[q2], OUTCOME_TOKEN[a2])
    return ",".join(("", *tokens)) + "\n"


TAILS = [tail(*fields) for fields in CELL_FIELDS]
CELLS = range(len(CELL_FIELDS))
CELL_OF_FIELDS = {TAILS[cell][1:-1]: cell for cell in CELLS}
# Every (branch, q1, a1, q2, a2) once, in the order cells were once numbered:
# a tail whose fields no cell holds is one that no survey branch produces.
ALL_FIELDS = list(product(Branch, VariableIndex, (Outcome.PLUS, Outcome.MINUS), VariableIndex,
                          (Outcome.PLUS, Outcome.MINUS)))
CELLS_OF_DESIGN = {
    variant: [cell for cell in CELLS if CELL_FIELDS[cell][0].value in branches]
    for variant, branches in ((DesignVariant.THREE_ENSEMBLE, ("BA", "BC", "CA")),
                              (DesignVariant.TWO_ENSEMBLE, ("S1", "S2")))
}
H = CSV_HEADER + "\n"


def reference_parse(text):
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise FormatError(1, f"header must be exactly {CSV_HEADER!r}")
    rows = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        rid, _, fields = line.partition(",")
        cell = CELL_OF_FIELDS.get(fields)
        if cell is None or rid == "" or rid in rows:
            cell = reference_checked_cell(lineno, line, rows)
        rows[rid] = cell
    return list(rows.values())


def reference_checked_cell(lineno, line, seen):
    fields = line.split(",")
    if len(fields) != 6:
        raise FormatError(lineno, f"expected 6 fields, got {len(fields)}")
    rid, branch_tok, q1_tok, a1_tok, q2_tok, a2_tok = fields
    if rid == "":
        raise FormatError(lineno, "empty respondent id")
    if rid in seen:
        raise DuplicateRespondent(rid, lineno)
    try:
        _, q1, _, q2, _ = (Branch(branch_tok), reference_question(q1_tok),
                           reference_outcome(a1_tok), reference_question(q2_tok),
                           reference_outcome(a2_tok))
        if q1 == q2:
            raise ValueError("an agent is never asked the same question twice")
    except ValueError as exc:
        raise FormatError(lineno, str(exc)) from None
    tokens = (branch_tok, QUESTION_TOKEN[q1], a1_tok, QUESTION_TOKEN[q2], a2_tok)
    cell = CELL_OF_FIELDS.get(",".join(tokens))
    if cell is None:
        raise FormatError(
            lineno,
            f"branch {branch_tok} does not ask {q1_tok}, then {q2_tok} after {a1_tok}",
        )
    return cell


def reference_format(cells, ids):
    return "".join([H, *(rid + TAILS[cell] for rid, cell in zip(ids, cells))])


def outcome(parse, text):
    """The cells on success; (exception class, line, message) on failure."""
    try:
        result = parse(text)
    except (FormatError, DuplicateRespondent) as exc:
        return type(exc), exc.line, str(exc)
    if isinstance(result, ResponseDataset):
        return result.cells.tolist()
    return result


# Piece sizes in bytes for the hypothesis inputs: the default, and sizes that
# cut rows of 16 bytes or more into pieces of one to three rows.
PIECES = (dataio._PIECE, 20, 48)


def assert_parity(text, pieces=PIECES):
    expected = outcome(reference_parse, text)
    for piece in pieces:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataio, "_PIECE", piece)
            assert outcome(parse_dataset, text) == expected, f"piece of {piece} bytes"


ROWS = ["r0,BA,b,+1,a,+1", "r1,BC,b,-1,c,+1", "r2,CA,c,+1,a,-1",
        "x,S1,b,-1,c,-1", "y,S2,c,-1,a,+1"]
BODY = "\n".join(ROWS) + "\n"
# Twelve clean rows of 16 or 17 bytes, to put a fault in a later piece.
LONG = "".join(f"k{k},BC,b,-1,c,+1\n" for k in range(12))
INPUTS = {
    "valid": H + BODY,
    "crlf rows": (H + BODY).replace("\n", "\r\n"),
    "one crlf row": H + ROWS[0] + "\r\n" + "\n".join(ROWS[1:]) + "\n",
    "lone cr between rows": H + ROWS[0] + "\r" + ROWS[1] + "\n",
    "cr inside an id": H + "r\r0,BA,b,+1,a,+1\n",
    "form feed inside a row": H + "r0,BA,b,+1\x0c,a,+1\n",
    "form feed inside an id": H + "r\x0c0,BA,b,+1,a,+1\n",
    "vertical tab inside an id": H + "r\x0b0,BA,b,+1,a,+1\n",
    "file separators inside ids": H + "a\x1c1,BA,b,+1,a,+1\nb\x1d2,BA,b,+1,a,+1\n"
                                      "c\x1e3,BA,b,+1,a,+1\n",
    "tab and nul inside ids": H + "r\t0,BA,b,+1,a,+1\nr\x000,BA,b,+1,a,+1\n",
    "no trailing newline": H + BODY[:-1],
    "fragment after the last newline": H + BODY + "x",
    "header only": H,
    "header without newline": CSV_HEADER,
    "empty text": "",
    "blank lines": H + "\n" + ROWS[0] + "\n\n\n" + ROWS[1] + "\n",
    "trailing blank lines": H + BODY + "\n\n",
    "only blank lines": H + "\n" * 5,
    "whitespace line": H + ROWS[0] + "\n   \n",
    "upper-case question tokens": H + "r0,BA,B,-1,A,+1\n",
    "upper-case branch": H + "r0,ba,b,+1,a,+1\n",
    "non-ASCII id": H + "ré,BA,b,+1,a,+1\n",
    "next-line character in an id": H + "r\x850,BA,b,+1,a,+1\n",
    "line separator in an id": H + "r\u20280,BA,b,+1,a,+1\n",
    "id containing a comma": H + "r,0,BA,b,+1,a,+1\n",
    "empty id": H + ",BA,b,+1,a,+1\n",
    "row shorter than 13 bytes": H + "r0,BA,b\n",
    "row of exactly 13 bytes": H + ",BA,b,+1,a,+1\n",
    "one-byte row": H + ROWS[0] + "\nx\n",
    "seven fields": H + "r0,BA,b,+1,a,+1,x\n",
    "five fields": H + "r0,BA,b,+1,a\n",
    "duplicate of the first data row": H + ROWS[0] + "\nr0,BA,b,-1,a,-1\n" + BODY[16:],
    "duplicate on the last row": H + BODY + "x,BA,b,+1,a,+1\n",
    "duplicate with another tail and row between": H + "q,BA,b,+1,a,+1\n" + BODY
                                                   + "q,S2,c,-1,a,+1\n",
    "wrong header": "id,branch\nr0,BA\n",
    "header with trailing space": CSV_HEADER + " \n" + BODY,
    "header with crlf": CSV_HEADER + "\r\n" + BODY,
    "inconsistent branch order": H + "r9,BA,b,+1,a,+1\nr0,BA,c,+1,a,+1\n",
    "two-ensemble route after yes": H + "r0,S1,b,+1,c,+1\n",
    "unsigned answer": H + "r0,BA,b,1,a,+1\n",
    "unknown branch": H + "r0,XX,b,+1,a,+1\n",
    "repeated question": H + "r0,BA,b,+1,b,+1\n",
    "unknown question token": H + "r0,BA,d,+1,a,+1\n",
    "bad sign": H + "r0,BA,b,+2,a,+1\n",
    "space after a comma": H + "r0, BA,b,+1,a,+1\n",
    "spaces around an id": H + " r0 ,BA,b,+1,a,+1\n",
    "ids across word boundaries": H + "".join(
        f"{'k' * length}{last},BA,b,+1,a,+1\n"
        for length in (7, 8, 15, 16, 63) for last in "01"),
    "ids equal but for a trailing nul": H + "ab,BA,b,+1,a,+1\nab\x00,BA,b,+1,a,+1\n",
    "id of 65 bytes": H + "z" * 65 + ",BA,b,+1,a,+1\n" + BODY,
    "duplicate id of 65 bytes": H + ("z" * 65 + ",BA,b,+1,a,+1\n") * 2,
    "duplicate ids of 20 bytes": H + BODY + ("subject-000000000001,BA,b,+1,a,+1\n" * 2),
    "bad row in a later piece": H + LONG + "k99,BA,b,1,a,+1\n",
    "id containing a comma in a later piece": H + LONG + "k,99,BA,b,+1,a,+1\n",
    "empty id in a later piece": H + LONG + ",BA,b,+1,a,+1\n",
    "cr in a later piece": H + LONG + "k99,BA,b,+1,a,+1\r\n",
    "duplicate ids in the first and a later piece": H + "k5,CA,c,+1,a,-1\n" + LONG,
    "duplicate ids of 16 bytes in different pieces": H + "subject-00000017,BA,b,+1,a,+1\n"
                                                     + LONG + "subject-00000017,BA,b,+1,a,+1\n",
    "duplicate short id, one copy beside a longer id": H + "x,BA,b,+1,a,+1\n"
                                                       + "subject-0000000017,BA,b,+1,a,+1\n"
                                                       + LONG + "x,CA,c,+1,a,-1\n",
    "blank lines between every row": H + "\n" + LONG.replace("\n", "\n\n\n"),
    "only blank lines after the rows": H + LONG + "\n" * 100,
    # As many newlines as rows of one length would have, one of them moved.
    "newline moved from a row's end into an id": H + "k000,BA,b,+1,a,+1\nk\n01,BA,b,+1,a,+1x"
                                                  "k002,BA,b,+1,a,+1\n",
    "rows longer than a piece": H + LONG + "".join(
        f"{'q' * 60}{k},BA,b,+1,a,+1\n" for k in range(3)) + LONG.replace("k", "m"),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_parse_matches_reference(name):
    assert_parity(INPUTS[name], (dataio._PIECE, *range(1, 81)))


@pytest.mark.parametrize("piece", [1, 17, 32, 33, 48, 80, 1 << 20])
def test_pieces_tile_the_rows_cut_after_newlines(monkeypatch, piece):
    text = INPUTS["rows longer than a piece"] + "\n\n" + LONG.replace("k", "p")
    pieces = []

    def record(buf):
        pieces.append(buf.tobytes().decode("ascii"))
        return real(buf)

    real = dataio._piece_rows
    monkeypatch.setattr(dataio, "_PIECE", piece)
    monkeypatch.setattr(dataio, "_piece_rows", record)
    data = _parse_bytes(text)
    assert data is not None
    assert data.cells.tolist() == reference_parse(text)
    assert "".join(p[1:] for p in pieces) == text[len(H):]
    for p in pieces:
        assert p[0] == p[-1] == "\n"
        assert len(p) <= piece or p.count("\n") == 2
    if piece < 33:  # two rows of 16 bytes or more and their newlines take 33
        assert len([p for p in pieces if p.strip()]) == len(data)
    assert (len(pieces) > 1) == (piece < len(text))


def test_byte_path_takes_every_clean_file():
    # Ids equal but for the byte at one offset, at every offset up to 64, or
    # but for trailing nul bytes.
    near = ["k" * 64] + ["k" * at + "j" + "k" * (63 - at) for at in range(64)]
    near += ["kk" + "\x00" * nuls for nuls in range(10)]
    text = H + BODY + "\n" + "".join(rid + ",S2,c,+1,a,-1\n" for rid in near)
    # Each consistent row under new ids, with its first, its second or both
    # question tokens in upper case.
    text += "".join(f"{case}{cell}{tail}" for cell in CELLS
                    for case, tail in (("f", TAILS[cell][:5].upper() + TAILS[cell][5:]),
                                       ("s", TAILS[cell][:5] + TAILS[cell][5:].upper()),
                                       ("u", TAILS[cell].upper())))
    data = _parse_bytes(text)
    assert data is not None
    assert data.cells.tolist() == reference_parse(text)


# 200 rows of one length, 18 bytes each: pieces of 90 bytes hold five rows.
ONE_LENGTH = format_dataset(ResponseDataset(np.resize(CELLS, 200)))


@pytest.mark.parametrize("byte", ["\n", "\r", "\x0c", "\t", ",", "A", "B", "x", "+", "9"])
@pytest.mark.parametrize("column", range(18))
def test_rows_of_one_length_with_one_byte_changed(column, byte):
    # Rows of one length are read by strided slices, unless the change breaks
    # the stride; either way the outcome is the reference's.
    at = len(H) + 57 * 18 + column
    assert_parity(ONE_LENGTH[:at] + byte + ONE_LENGTH[at + 1:], (90, 1000, dataio._PIECE))


@pytest.mark.parametrize("case", ["lower", "upper"])
@pytest.mark.parametrize("cell", [k for k, fields in enumerate(ALL_FIELDS)
                                  if fields not in CELL_FIELDS])
def test_byte_path_declines_every_inconsistent_tail(monkeypatch, cell, case):
    # A tail of no survey branch, its question tokens in either case, on line
    # 14 of 26, in a later piece than the first: only the tail lookup fails.
    bad = tail(*ALL_FIELDS[cell])
    text = H + LONG + "k99" + (bad.upper() if case == "upper" else bad) + LONG.replace("k", "m")
    monkeypatch.setattr(dataio, "_PIECE", 48)
    assert _parse_bytes(text) is None
    expected = outcome(reference_parse, text)
    assert expected[:2] == (FormatError, 14)
    assert_parity(text)


def test_byte_path_declines_what_splitlines_breaks_at():
    breaks = {chr(b) for b in range(128) if len(f"a{chr(b)}a".splitlines()) > 1}
    for b in range(128):
        text = H + f"r{chr(b)},BA,b,+1,a,+1\n"
        taken = _parse_bytes(text) is not None
        assert taken == (chr(b) not in breaks | {",", "\n"}), repr(chr(b))


def test_parsed_dataset_does_not_keep_its_text():
    # The byte path reads ids only to reject a duplicate: once the text is
    # gone, the dataset holds its cells, one byte per row of about 21 bytes.
    pop = QuantumUnpolarized(QuestionTriple.from_floats(0.0, 2.1, 1.0))
    data = run_protocol(pop, ProtocolDesign(DesignVariant.TWO_ENSEMBLE, 20_000), seed=3)
    dataio._tables()  # built once per process, outside what is measured
    tracemalloc.start()
    try:
        text = format_dataset(data)
        length = len(text)
        assert length >= 1 << 20
        parsed = _parse_bytes(text)
        del text
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert parsed is not None
    assert parsed.cells.tolist() == data.cells.tolist()
    assert held < 0.1 * length


@pytest.mark.parametrize("variant", list(DesignVariant))
def test_text_under_a_piece_takes_the_line_loop_and_reports_the_same(
        tmp_path, monkeypatch, variant):
    pop = QuantumUnpolarized(QuestionTriple.from_floats(0.0, 2.1, 1.0))
    text = format_dataset(run_protocol(pop, ProtocolDesign(variant, 300), seed=4))
    path = tmp_path / "survey.csv"
    path.write_text(text)
    taken = []

    def recording(name):
        real = getattr(dataio, name)

        def parse(text):
            taken.append(name)
            return real(text)
        return parse

    for name in ("_parse_bytes", "_parse_lines"):
        monkeypatch.setattr(dataio, name, recording(name))
    runs = {}
    for piece in (len(text) + 1, len(text)):  # text under one piece, then of one piece
        monkeypatch.setattr(dataio, "_PIECE", piece)
        taken.clear()
        data = parse_dataset(text)
        report = tmp_path / f"report-{piece}.json"
        assert main(["test", str(path), "--report", str(report)]) == 0
        runs[piece] = (taken[:], data.cells.tolist(), report.read_bytes())
    short, long = runs[len(text) + 1], runs[len(text)]
    assert short[0] == ["_parse_lines"] * 2
    assert long[0] == ["_parse_bytes"] * 2
    assert short[1:] == long[1:]


ID_CHARS = string.ascii_letters + string.digits + "_-.:/ \t"
BYTES = st.integers(0, 255).map(chr)


@st.composite
def corrupted_datasets(draw):
    ids = draw(st.lists(st.text(ID_CHARS, min_size=1, max_size=30), max_size=40, unique=True))
    cells = draw(st.lists(st.sampled_from(CELLS),
                          min_size=len(ids), max_size=len(ids)))
    text = reference_format(cells, ids)
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text) - 1))
        text = text[:at] + draw(BYTES) + text[at + 1:]
    return text


@settings(max_examples=400, deadline=None)
@given(corrupted_datasets())
def test_parse_matches_reference_on_corrupted_datasets(text):
    assert_parity(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["r0", "r1", "x", "subject-0000000017"]),
                          st.sampled_from(CELLS)), max_size=6))
def test_parse_matches_reference_with_repeated_ids(rows):
    assert_parity(reference_format([cell for _, cell in rows], [rid for rid, _ in rows]))


@pytest.mark.parametrize("variant", list(DesignVariant))
@pytest.mark.parametrize("rows", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
def test_format_matches_reference_join(variant, rows):
    rng = np.random.default_rng(rows)
    cells = rng.choice(CELLS_OF_DESIGN[variant], size=rows).astype(np.uint8)
    data = ResponseDataset(cells)
    width = len(str(rows))
    expected = reference_format(cells.tolist(), [f"r%0{width}d" % k for k in range(rows)])
    assert format_dataset(data) == expected
    assert outcome(parse_dataset, expected) == cells.tolist()


@pytest.mark.parametrize("piece", [1, 20, 48, 100, 1000])
@pytest.mark.parametrize("rows", [1, 9, 10, 11, 99, 100, 101, 1001])
def test_format_in_blocks_matches_reference_join(monkeypatch, piece, rows):
    monkeypatch.setattr(dataio, "_PIECE", piece)
    cells = np.random.default_rng(rows).choice(CELLS, size=rows)
    width = len(str(rows))
    expected = reference_format(cells.tolist(), [f"r%0{width}d" % k for k in range(rows)])
    assert format_dataset(ResponseDataset(cells)) == expected


def test_every_cell_code_survives_format_and_parse():
    # Every code is a row that parse_dataset reads back, on the per-line loop
    # and, in a file of one piece or more, on the byte path.
    for cells in (list(CELLS), np.resize(CELLS, 60_000).astype(np.uint8)):
        text = format_dataset(ResponseDataset(cells))
        assert parse_dataset(text).cells.tolist() == list(cells)
    assert len(text) >= dataio._PIECE


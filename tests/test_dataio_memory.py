"""Traced allocation of the CSV byte paths on the 3 x 200 000-agent witness survey.

Parsing works through the text in pieces and keeps a cell byte and an 8-byte
id key per row, so its peak stays below the length of the text, with question
tokens in either case, a non-ASCII id or no newline after the last row.  Formatting holds the uint8 rows and the output string,
plus one block of row numbers and tails, so its peak stays just above twice
the length of the output.
"""

import math
import tracemalloc

import numpy as np
import pytest

from belltest import (
    DesignVariant,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    run_protocol,
)
from belltest.dataio import CSV_HEADER, _parse_bytes, format_dataset, parse_dataset

WITNESS = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)


@pytest.fixture(scope="module")
def survey():
    design = ProtocolDesign(DesignVariant.THREE_ENSEMBLE, 200_000)
    data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=1)
    return data, format_dataset(data)


def traced_peak(function, argument):
    """``function(argument)`` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return function(argument), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_peak_is_below_the_text_length(survey):
    data, text = survey
    parsed, peak = traced_peak(parse_dataset, text)
    assert np.array_equal(parsed.counts, data.counts)
    assert peak <= 1.0 * len(text)


def test_parse_peak_with_upper_case_tokens_is_below_the_text_length(survey):
    data, text = survey
    text = CSV_HEADER + text[len(CSV_HEADER):].upper()  # ids and question tokens
    parsed, peak = traced_peak(parse_dataset, text)
    assert np.array_equal(parsed.counts, data.counts)
    assert peak <= 1.0 * len(text)


def accented(text):
    """``text`` with the first row's id starting with a non-ASCII letter."""
    at = len(CSV_HEADER) + 1
    return text[:at] + "é" + text[at + 1:]


@pytest.mark.parametrize("edit", [lambda text: text[:-1], accented,
                                  lambda text: accented(text)[:-1]],
                         ids=["no final newline", "non-ASCII id", "both"])
def test_byte_path_takes_text_without_a_final_newline_or_with_a_non_ascii_id(survey, edit):
    data, text = survey
    text = edit(text)
    assert _parse_bytes(text) is not None
    parsed, peak = traced_peak(parse_dataset, text)
    assert np.array_equal(parsed.counts, data.counts)
    assert peak <= 1.0 * len(text)


def test_byte_path_declines_an_id_holding_a_line_separator(survey):
    # str.splitlines, and so the per-line loop, breaks the row at U+2028.
    _, text = survey
    at = len(CSV_HEADER) + 2
    assert _parse_bytes(text[:at] + "\u2028" + text[at:]) is None


def test_format_peak_is_near_twice_the_output_length(survey):
    data, text = survey
    formatted, peak = traced_peak(format_dataset, data)
    assert formatted == text
    assert peak <= 2.1 * len(formatted)

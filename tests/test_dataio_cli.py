import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from belltest import (
    Branch,
    DuplicateRespondent,
    FormatError,
    Outcome,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    VariableIndex,
    check_symmetry,
    estimate_frequencies,
    maximize_quantum_violation,
    predicted_conditional_triple,
    run_protocol,
    violation_test,
    wigner_conditional_check,
)
import belltest.cli as cli
from belltest.cli import main
from belltest.dataio import (
    CSV_HEADER,
    emit_report,
    format_dataset,
    parse_dataset,
)
from belltest.protocol import CELL_FIELDS, DesignVariant

WITNESS_ARGS = f"0,{2 * math.pi / 3},{math.pi / 3}"

VALID_CSV = (
    CSV_HEADER + "\n"
    "r0,BA,b,+1,a,+1\n"
    "r1,BA,b,-1,a,-1\n"
)
ONE_ROW = "r0,BA,b,+1,a,+1\n"  # never reaches the c|b- event


class TestParseDataset:
    def test_two_valid_rows(self):
        data = parse_dataset(VALID_CSV)
        assert len(data) == 2
        fields = [(Branch.BA, VariableIndex.B, Outcome.PLUS, VariableIndex.A, Outcome.PLUS),
                  (Branch.BA, VariableIndex.B, Outcome.MINUS, VariableIndex.A, Outcome.MINUS)]
        assert data.cells.tolist() == list(map(CELL_FIELDS.index, fields))

    def test_rejects_wrong_header(self):
        with pytest.raises(FormatError) as excinfo:
            parse_dataset("id,branch\nr0,BA\n")
        assert excinfo.value.line == 1

    def test_rejects_unsigned_answer_token(self):
        bad = CSV_HEADER + "\nr0,BA,b,1,a,+1\n"
        with pytest.raises(FormatError) as excinfo:
            parse_dataset(bad)
        assert excinfo.value.line == 2

    def test_rejects_wrong_field_count(self):
        bad = CSV_HEADER + "\nr0,BA,b,+1,a\n"
        with pytest.raises(FormatError):
            parse_dataset(bad)

    def test_rejects_unknown_branch(self):
        bad = CSV_HEADER + "\nr0,XX,b,+1,a,+1\n"
        with pytest.raises(FormatError):
            parse_dataset(bad)

    def test_rejects_duplicate_respondent(self):
        bad = CSV_HEADER + "\nr0,BA,b,+1,a,+1\nr0,BA,b,+1,a,-1\n"
        with pytest.raises(DuplicateRespondent) as excinfo:
            parse_dataset(bad)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("row", ["r0,BA,c,+1,a,+1", "r0,S1,b,+1,c,+1"])
    def test_rejects_questions_outside_branch_design(self, row):
        bad = CSV_HEADER + "\nr9,BA,b,+1,a,+1\n" + row + "\n"
        with pytest.raises(FormatError) as excinfo:
            parse_dataset(bad)
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("good_rows", [0, 60_000])
    @pytest.mark.parametrize("fields, message", [
        ("XX,b,+1,a,+1", "'XX' is not a valid Branch"),
        ("BA,d,+1,a,+1", "question token must be a/b/c, got 'd'"),
        ("BA,b,1,a,+1", "outcome token must be '+1' or '-1', got '1'"),
        ("BA,b,+1,ab,+1", "question token must be a/b/c, got 'ab'"),
        ("BA,b,+1,a,yes", "outcome token must be '+1' or '-1', got 'yes'"),
        ("BA,B,+1,b,+1", "an agent is never asked the same question twice"),
        ("BA,c,-1,A,+1", "branch BA does not ask c, then A after -1"),
    ])
    def test_per_line_messages(self, fields, message, good_rows):
        # The long text passes a parse piece, so the byte path reads it before
        # the per-line loop finds its last row bad.
        good = "".join(f"r{k},BA,b,+1,a,+1\n" for k in range(good_rows))
        text = f"{CSV_HEADER}\n{good}bad,{fields}\n"
        assert good_rows == 0 or len(text) >= 1 << 20
        with pytest.raises(FormatError) as excinfo:
            parse_dataset(text)
        assert str(excinfo.value) == f"line {good_rows + 2}: {message}"

    def test_accepts_upper_case_question_tokens(self):
        data = parse_dataset(CSV_HEADER + "\nr0,BA,B,-1,A,+1\n")
        assert format_dataset(data) == CSV_HEADER + "\nr0,BA,b,-1,a,+1\n"

    def test_round_trip_is_lossless(self):
        design = ProtocolDesign(DesignVariant.TWO_ENSEMBLE, 1000)
        pop = QuantumUnpolarized(QuestionTriple.from_floats(0.0, 2.1, 1.0))
        data = run_protocol(pop, design, seed=13)
        text = format_dataset(data)
        assert format_dataset(parse_dataset(text)) == text


class TestEmitReport:
    def make_report(self, seed=21, alpha=0.05):
        design = ProtocolDesign(DesignVariant.THREE_ENSEMBLE, 3000)
        pop = QuantumUnpolarized(
            QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)
        )
        data = run_protocol(pop, design, seed=seed)
        table = estimate_frequencies(data)
        test = violation_test(table, alpha=alpha)
        symmetry = check_symmetry(data, tolerance=0.05)
        return emit_report(test, table, symmetry, seed=seed, design="three", alpha=alpha)

    def test_schema_and_verdict(self):
        report = json.loads(self.make_report())
        assert list(report) == [
            "nu", "margin", "standard_error", "z", "p_value", "alpha",
            "verdict", "symmetry_check", "seed", "design",
        ]
        assert report["verdict"] == "quantum-like-violation"
        assert report["seed"] == 21
        assert report["symmetry_check"]["passed"] is True
        nu = report["nu"]["a_given_b_plus"]
        assert nu["numerator"] <= nu["denominator"]
        assert 0.0 <= nu["wilson_interval"][0] <= nu["wilson_interval"][1] <= 1.0

    def test_identical_inputs_identical_bytes(self):
        assert self.make_report() == self.make_report()


class TestCli:
    def simulate(self, tmp_path, *extra):
        out = tmp_path / "data.csv"
        code = main([
            "simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
            "--design", "three", "--n", "2000", "--seed", "17",
            "--out", str(out), *extra,
        ])
        assert code == 0
        return out

    def test_simulate_then_test_quantum(self, tmp_path, capsys):
        out = self.simulate(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(["test", str(out), "--alpha", "0.05",
                     "--seed", "17", "--report", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "quantum-like-violation"
        assert report["design"] == "three"
        assert report["seed"] == 17

    def test_report_on_stdout_matches_report_file(self, tmp_path, capsys):
        out = self.simulate(tmp_path)
        report_path = tmp_path / "report.json"
        assert main(["test", str(out), "--seed", "17", "--report", str(report_path)]) == 0
        capsys.readouterr()
        assert main(["test", str(out), "--seed", "17"]) == 0
        assert capsys.readouterr().out.encode() == report_path.read_bytes()

    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.  The
    # 6 000-row file takes the per-line loop, the 60 000-row one the byte path.
    @pytest.mark.parametrize("n", ["2000", "20000"])
    def test_leading_bom_gives_the_same_report(self, tmp_path, n):
        plain, bom = tmp_path / "data.csv", tmp_path / "bom.csv"
        assert main(["simulate", "--model", "quantum", "--angles", WITNESS_ARGS, "--n", n,
                     "--seed", "17", "--out", str(plain)]) == 0
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for data in (plain, bom):
            assert main(["test", str(data), "--report", str(data.with_suffix(".json"))]) == 0
        assert plain.with_suffix(".json").read_bytes() == bom.with_suffix(".json").read_bytes()
        assert (plain.stat().st_size >= 1 << 20) == (n == "20000")

    def test_simulate_classical_symmetrized(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main([
            "simulate", "--model", "classical",
            "--atoms", "0.3", "0.2", "0.1", "0.05", "0.05", "0.1", "0.1", "0.1",
            "--symmetrize", "--design", "two", "--n", "3000",
            "--seed", "23", "--out", str(out),
        ])
        assert code == 0
        report_path = tmp_path / "report.json"
        assert main(["test", str(out), "--report", str(report_path)]) == 0
        assert json.loads(report_path.read_text())["verdict"] == "classical-consistent"

    def test_degenerate_dataset_exits_3(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main([
            "simulate", "--model", "classical",
            "--atoms", "1", "0", "0", "0", "0", "0", "0", "0",
            "--symmetrize", "--design", "three", "--n", "500",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        report_path = tmp_path / "report.json"
        code = main(["test", str(out), "--report", str(report_path)])
        assert code == 3
        assert json.loads(report_path.read_text())["verdict"] == "inconclusive-degenerate"

    def test_invalid_atoms_exit_2(self, tmp_path):
        code = main([
            "simulate", "--model", "classical",
            "--atoms", "1", "1", "1", "0", "0", "0", "0", "-3",
            "--design", "three", "--n", "10", "--seed", "0",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    def test_missing_model_parameters_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "simulate", "--model", "quantum", "--design", "three",
            "--n", "10", "--seed", "0", "--out", str(out),
        ])
        assert code == 2
        assert capsys.readouterr().err == "simulate: --angles is required with --model quantum\n"
        assert not out.exists()

    def test_classical_without_atoms_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--model", "classical", "--n", "10", "--seed", "0",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "simulate: --atoms is required with --model classical\n"
        assert not out.exists()

    @pytest.mark.parametrize("angles, message", [
        ("0,1", "expected three comma-separated angles"),
        ("0,x,1", "non-numeric angle in '0,x,1'"),
        ("0,inf,1", "simulate: error: argument --angles: angle must be finite, got inf\n"),
        ("0,nan,1", "simulate: error: argument --angles: angle must be finite, got nan\n"),
    ])
    def test_malformed_angles_exit_2(self, tmp_path, capsys, angles, message):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "quantum", "--angles", angles, "--n", "10",
                  "--seed", "0", "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model_args, flag, model", [
        (["quantum", "--angles", WITNESS_ARGS, "--atoms", *"10000000"], "--atoms", "classical"),
        (["quantum", "--angles", WITNESS_ARGS, "--symmetrize"], "--symmetrize", "classical"),
        (["classical", "--atoms", *"10000000", "--angles", "0,1,2"], "--angles", "quantum"),
    ])
    def test_other_models_flag_exit_2(self, tmp_path, capsys, model_args, flag, model):
        out = tmp_path / "x.csv"
        code = main(["simulate", "--model", *model_args, "--n", "10", "--seed", "0",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"simulate: {flag} is only used with --model {model}\n"
        assert not out.exists()

    def test_mixed_designs_exit_2_before_estimating(self, tmp_path, capsys, monkeypatch):
        pop = QuantumUnpolarized(QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3))
        three = run_protocol(pop, ProtocolDesign(DesignVariant.THREE_ENSEMBLE, 300), seed=1)
        two = run_protocol(pop, ProtocolDesign(DesignVariant.TWO_ENSEMBLE, 300), seed=2)
        mixed = tmp_path / "mixed.csv"
        two_rows = format_dataset(two).split("\n", 1)[1].replace("r", "s")  # s000 to s899
        mixed.write_text(format_dataset(three) + two_rows)

        def no_estimate(*args, **kwargs):
            raise AssertionError("estimated a mixed-design dataset")

        for name in ("check_symmetry", "estimate_frequencies", "violation_test"):
            monkeypatch.setattr(f"belltest.cli.{name}", no_estimate)
        report = tmp_path / "report.json"
        assert main(["test", str(mixed), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("test: dataset mixes")
        assert "three-ensemble" in err and "two-ensemble" in err
        assert "BA, BC, CA, S1, S2" in err
        assert not report.exists()

    def test_header_only_dataset_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(CSV_HEADER + "\n")
        assert main(["test", str(empty)]) == 2
        assert capsys.readouterr().err == "test: dataset is empty\n"

    # main maps every command error to its exit code: 3 for an empty
    # conditioning event or degenerate alternatives, 2 for any other, a survey
    # too large to allocate among them.  Each prints one "<command>: <message>"
    # line, nothing on stdout and no output file.  ``fails`` names a function
    # of belltest.cli to patch and the error it raises.
    @pytest.mark.parametrize("rows, argv, code, err, fails", [
        pytest.param(ONE_ROW, [], 3, "test: no respondent reached the c|b- conditioning event",
                     None, id="empty-conditioning-branch"),
        pytest.param(None, ["interference", "--p", "0.5", "--p1", "0", "--p2", "0.5"], 3,
                     "interference: p1 * p2 must be positive, got p1=0.0, p2=0.5", None,
                     id="degenerate-alternatives"),
        pytest.param(None, ["interference", "--p", "0.5", "--p1", "1e-170", "--p2", "1e-170"], 3,
                     "interference: p1 * p2 must be positive, got p1=1e-170, p2=1e-170", None,
                     id="underflowing-product"),
        pytest.param("r0,BA,b,1,a,+1\n", [], 2,
                     "test: line 2: outcome token must be '+1' or '-1', got '1'", None,
                     id="format"),
        pytest.param(ONE_ROW + "r0,BA,b,-1,a,-1\n", [], 2,
                     "test: line 3: duplicate respondent id 'r0'", None, id="duplicate"),
        pytest.param(None, [], 2, "test: [Errno 2] No such file or directory: '{dataset}'", None,
                     id="missing-file"),
        # The one-row file alone exits 3, so alpha is checked before the data.
        *(pytest.param(ONE_ROW, [f"--alpha={alpha}"], 2,
                       f"test: alpha must be in (0, 1) with 1 - alpha < 1, got {float(alpha)}",
                       None, id=f"alpha-{alpha}") for alpha in ("2", "0", "nan")),
        # numpy's message names the allocation; a bare MemoryError prints its name.
        pytest.param(ONE_ROW, [], 2, "test: Unable to allocate 6.71 GiB for an array",
                     ("parse_dataset", MemoryError("Unable to allocate 6.71 GiB for an array")),
                     id="parse-out-of-memory"),
        pytest.param(None, ["simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
                            "--n", "10", "--seed", "1"], 2, "simulate: MemoryError",
                     ("run_protocol", MemoryError()), id="simulate-out-of-memory"),
    ])
    def test_exit_code_and_one_stderr_line(self, tmp_path, capsys, monkeypatch, rows, argv, code,
                                           err, fails):
        dataset, report = tmp_path / "data.csv", tmp_path / "report.json"
        if rows is not None:
            dataset.write_text(CSV_HEADER + "\n" + rows)
        if fails is not None:
            name, error = fails

            def failing(*args, **kwargs):
                raise error

            monkeypatch.setattr(f"belltest.cli.{name}", failing)
        if argv[:1] == ["simulate"]:
            argv = [*argv, "--out", str(report)]
        elif argv[:1] != ["interference"]:
            argv = ["test", str(dataset), *argv, "--report", str(report)]
        assert main(argv) == code
        assert capsys.readouterr() == ("", err.format(dataset=dataset) + "\n")
        assert not report.exists()

    def test_search_command(self, capsys):
        assert main(["search"]) == 0
        assert capsys.readouterr() == (json.dumps({
            "best_angles": {"a": 0.0, "b": 2.0943951023931953, "c": 1.0471975511965976},
            "best_margin": -0.2500000000000001, "classical_floor": 0.0}, indent=2) + "\n", "")

    def test_search_prints_what_the_default_sweep_finds(self, capsys):
        # The closed form against the library's brute-force check at the old
        # defaults, bit for bit, and the mirror optimum against the same margin.
        assert main(["search"]) == 0
        payload = json.loads(capsys.readouterr().out)
        result = maximize_quantum_violation(360, 1e-9)
        assert payload["best_angles"] == {q: angle.phi
                                          for q, angle in result.best_angles._asdict().items()}
        assert payload["best_margin"] == result.best_margin
        mirror = QuestionTriple.from_floats(0.0, 4 * math.pi / 3, 5 * math.pi / 3)
        assert wigner_conditional_check(predicted_conditional_triple(mirror)).margin == \
            payload["best_margin"]

    @pytest.mark.parametrize("flag", [["--grid", "360"], ["--refine-tol", "1e-9"],
                                      ["--floor-samples", "10"], ["--seed", "1"]])
    def test_search_takes_no_options(self, capsys, flag):
        # Exit 2 through argparse: its usage, one error line, nothing on stdout.
        with pytest.raises(SystemExit) as exit_info:
            main(["search", *flag])
        error = f"belltest: error: unrecognized arguments: {' '.join(flag)}\n"
        assert exit_info.value.code == 2
        assert capsys.readouterr() == ("", cli.build_parser().format_usage() + error)

    def test_interference_command(self, capsys):
        assert main(["interference", "--p", "0.75", "--p1", "0.25",
                     "--p2", "0.25"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficient"] == pytest.approx(0.5, abs=1e-12)
        assert payload["regime"] == "Trigonometric"

    @pytest.mark.parametrize("p1, p2", [("nan", "0.3"), ("inf", "0.3"), ("1.5", "0.3"),
                                        ("0.3", "-0.2"), ("0.3", "-inf")])
    def test_interference_alternative_outside_unit_interval_exit_2(self, capsys, p1, p2):
        assert main(["interference", "--p", "0.5", f"--p1={p1}", f"--p2={p2}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("interference: p") and "must be in [0, 1]" in err

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_outside_64_bits_exit_2(self, tmp_path, capsys, seed):
        out = tmp_path / "data.csv"
        code = main([
            "simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
            "--n", "10", "--seed", seed, "--out", str(out),
        ])
        assert code == 2
        assert "seed must be in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-7", str(2**64), "99999999999999999999999"])
    def test_test_seed_outside_64_bits_exit_2_before_reading(self, tmp_path, capsys, seed):
        # The dataset is missing: an error about the seed shows it was checked first.
        assert main(["test", str(tmp_path / "missing.csv"), "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"test: seed must be in [0, 2**64), got {seed}\n"

    def test_test_echoes_largest_seed(self, tmp_path, capsys):
        out = self.simulate(tmp_path)
        assert main(["test", str(out), "--seed", str(2**64 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2**64 - 1

    def test_largest_seed_runs(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main([
            "simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
            "--n", "10", "--seed", str(2**64 - 1), "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 31

    def test_workers_flag_keeps_bytes_identical(self, tmp_path):
        outputs = []
        for workers in ("1", "4", "8"):
            out = self.simulate(tmp_path, "--workers", workers)
            outputs.append(out.read_bytes())
            out.unlink()
        assert outputs[0] == outputs[1] == outputs[2]

    def test_workers_below_one_exit_2_before_simulating(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = main(["simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
                     "--n", "10", "--seed", "1", "--workers", "0", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "simulate: --workers must be >= 1, got 0\n"
        assert not out.exists()

    def test_symmetry_tolerance_flag_rejected(self, tmp_path, capsys):
        out = self.simulate(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["test", str(out), "--symmetry-tolerance", "0.1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --symmetry-tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, message", [
        ("--alpha=1e-17", "test: alpha must be in (0, 1) with 1 - alpha < 1"),
    ])
    def test_invalid_flag_exit_2_before_parsing_dataset(self, tmp_path, capsys, flag, message):
        headless = tmp_path / "headless.csv"
        headless.write_text("r0,BA,b,+1,a,+1\n")
        assert main(["test", str(headless)]) == 2
        assert "header must be exactly" in capsys.readouterr().err
        assert main(["test", str(headless), flag]) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("alpha", ["1e-16", "1.5e-16", repr(2.0**-53)])
    def test_tiny_alpha_gives_unit_intervals(self, tmp_path, alpha):
        # 1 - alpha is below 1, but 0.5 + 0.5 * (1 - alpha) rounds to 1: the
        # Wilson quantile is infinite and every interval is all of [0, 1].
        out = self.simulate(tmp_path)
        report_path = tmp_path / "report.json"
        assert main(["test", str(out), f"--alpha={alpha}", "--report", str(report_path)]) == 0
        nu = json.loads(report_path.read_text())["nu"]
        assert [entry["wilson_interval"] for entry in nu.values()] == [[0.0, 1.0]] * 3

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.csv"
        code = main(["simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
                     "--n", "10", "--seed", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("simulate: ") and err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_report_exit_2(self, tmp_path, capsys):
        out = self.simulate(tmp_path)
        report = tmp_path / "no-such-dir" / "report.json"
        assert main(["test", str(out), "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("test: ") and err.count("\n") == 1
        assert not report.exists()

class ProcessExit(Exception):
    """Raised in place of ``os._exit``, with the code it was called with."""


class TestRun:
    """``run`` is the process entry point: it calls ``main``, flushes stdout and
    stderr, and ends the process by ``os._exit``, which the in-process cases
    replace with one that records the code and the output captured so far."""

    @pytest.fixture
    def exits(self, monkeypatch, capsys):
        calls = []

        def exit_(code):
            calls.append((code, capsys.readouterr()))
            raise ProcessExit(code)

        monkeypatch.setattr(os, "_exit", exit_)
        return calls

    @staticmethod
    def run(monkeypatch, *argv):
        monkeypatch.setattr(sys, "argv", ["belltest", *argv])
        with pytest.raises(ProcessExit):
            cli.run()

    def test_report_on_stdout_is_flushed_before_exit_0(self, tmp_path, monkeypatch, exits):
        data, report = TestCli().simulate(tmp_path), tmp_path / "report.json"
        assert main(["test", str(data), "--report", str(report)]) == 0
        self.run(monkeypatch, "test", str(data))
        [(code, (out, err))] = exits
        assert (code, out.encode(), err) == (0, report.read_bytes(), "")

    def test_degenerate_survey_exits_3(self, tmp_path, monkeypatch, exits):
        data = tmp_path / "data.csv"
        assert main(["simulate", "--model", "classical", "--atoms", "1", "0", "0", "0", "0",
                     "0", "0", "0", "--symmetrize", "--n", "500", "--seed", "5",
                     "--out", str(data)]) == 0
        self.run(monkeypatch, "test", str(data), "--report", str(tmp_path / "report.json"))
        assert [code for code, _ in exits] == [3]

    def test_unwritable_report_exits_2(self, tmp_path, monkeypatch, exits):
        data, report = TestCli().simulate(tmp_path), tmp_path / "no-such-dir" / "report.json"
        self.run(monkeypatch, "test", str(data), "--report", str(report))
        [(code, (out, err))] = exits
        assert code == 2 and out == "" and err.startswith("test: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["test", "--bogus"], 2)])
    def test_argparse_exit_raises_without_os_exit(self, monkeypatch, exits, argv, code):
        monkeypatch.setattr(sys, "argv", ["belltest", *argv])
        with pytest.raises(SystemExit) as raised:
            cli.run()
        assert raised.value.code == code
        assert exits == []

    def test_stdout_that_cannot_flush_exits_2_with_one_line(self, monkeypatch, exits):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", ClosedPipe())
            self.run(patch, "interference", "--p", "0.75", "--p1", "0.25", "--p2", "0.25")
        [(code, (_, err))] = exits
        assert (code, err) == (2, "belltest: cannot write output: [Errno 32] Broken pipe\n")

    def test_stdout_closed_at_start_is_not_flushed(self, tmp_path, monkeypatch, exits):
        # Python sets sys.stdout to None when fd 1 is closed as it starts.
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", None)
            self.run(patch, "simulate", "--model", "quantum", "--angles", WITNESS_ARGS,
                     "--n", "10", "--seed", "1", "--out", str(tmp_path / "data.csv"))
        assert [code for code, _ in exits] == [0]

    STDOUT_ARGS = {"search": [],
                   "interference": ["--p", "0.75", "--p1", "0.25", "--p2", "0.25"]}

    @pytest.mark.parametrize("command", ["test", "search", "interference"])
    def test_stdout_closed_at_start_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                           command):
        # Every command that writes to stdout fails through main, as any other
        # unwritable output does, rather than losing its output or raising.
        args = (self.STDOUT_ARGS[command] if command in self.STDOUT_ARGS
                else [str(TestCli().simulate(tmp_path))])
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", None)
            code = main([command, *args])
        assert (code, capsys.readouterr().err) == (2, f"{command}: stdout is closed\n")

    def test_report_file_with_stdout_closed_at_start_exits_0(self, tmp_path, monkeypatch,
                                                              exits):
        data, report = TestCli().simulate(tmp_path), tmp_path / "report.json"
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", None)
            self.run(patch, "test", str(data), "--report", str(report))
        assert [(code, err) for code, (_, err) in exits] == [(0, "")]
        assert json.loads(report.read_text())["verdict"] == "quantum-like-violation"

    def test_process_with_stdout_closed_exits_2_without_traceback(self, tmp_path):
        # fd 1 closed before Python starts, so sys.stdout is None in the process.
        data = TestCli().simulate(tmp_path)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(["sh", "-c", 'exec "$0" -m belltest.cli test "$1" >&-',
                               sys.executable, str(data)],
                              env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stderr) == (2, b"test: stdout is closed\n")

    def test_piped_report_equals_report_file(self, tmp_path):
        # Block-buffered stdout, as on a pipe by default: the report reaches the
        # pipe only through run's flush, since os._exit flushes nothing.
        data, report = TestCli().simulate(tmp_path), tmp_path / "report.json"
        assert main(["test", str(data), "--report", str(report)]) == 0
        env = dict(os.environ)
        env.pop("PYTHONUNBUFFERED", None)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "belltest.cli", "test", str(data)],
                              env=env, capture_output=True, timeout=120)
        assert (done.returncode, done.stdout, done.stderr) == (0, report.read_bytes(), b"")

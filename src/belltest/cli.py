"""Command-line entry points.

Subcommands:

    simulate   run a survey over a classical or quantum population -> CSV
    test       analyze a CSV dataset -> JSON report
    search     print the closed-form quantum optimum and classical floor
    interference  classify an observed probability against additivity

Exit codes: 0 success, 2 validation error or out of memory, 3 degenerate/inconclusive.
``main`` maps every error to 2 or 3; ``test``'s code follows its report's verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# belltest makes no BLAS calls, so numpy's OpenBLAS need not start a thread
# pool as it loads (about 60 ms of each run), whichever command first imports
# numpy.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dataio import VERDICT_DEGENERATE, emit_report, format_dataset, parse_dataset, verdict
from .errors import (
    BellTestError,
    DegenerateAlternatives,
    DegenerateVariance,
    EmptyConditioningBranch,
    require_int,
)
from .protocol import (
    ClassicalHiddenVariable,
    DesignVariant,
    ProtocolDesign,
    QuantumUnpolarized,
    check_symmetry,
    estimate_frequencies,
    infer_design,
    run_protocol,
)
from .stats import validate_alpha, violation_test

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3

# The flags that only one --model reads; giving one with the other model is an error.
_MODEL_FLAGS = {"quantum": ("angles",), "classical": ("atoms", "symmetrize")}


def _angles(text: str) -> QuestionTriple:
    from .qubit import QuestionTriple

    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated angles")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric angle in {text!r}") from None
    try:
        return QuestionTriple.from_floats(a, b, c)
    except ValueError as exc:  # a non-finite angle: BlochAngle's message
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belltest",
        description="Classical-vs-quantum-like tests for dichotomic survey data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a survey, write a CSV dataset")
    sim.set_defaults(run=_cmd_simulate)
    sim.add_argument("--model", choices=list(_MODEL_FLAGS), required=True)
    sim.add_argument("--angles", type=_angles, help="question angles a,b,c in radians")
    sim.add_argument(
        "--atoms", type=float, nargs=8, metavar="W",
        help="8 atom weights in canonical order (+++ ++- +-+ +-- -++ -+- --+ ---)",
    )
    sim.add_argument("--symmetrize", action="store_true",
                     help="average the classical law with its global sign flip")
    sim.add_argument("--design", choices=[v.value for v in DesignVariant], default="three")
    sim.add_argument("--n", type=int, required=True, help="agents per branch")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--workers", type=int, default=1, help="at least 1; no effect on output")
    sim.add_argument("--out", type=Path, required=True)

    tst = sub.add_parser("test", help="analyze a CSV dataset, write a JSON report")
    tst.set_defaults(run=_cmd_test)
    tst.add_argument("dataset", type=Path)
    tst.add_argument("--alpha", type=float, default=0.05)
    tst.add_argument("--seed", type=int, default=None,
                     help="seed to echo into the report, if known")
    tst.add_argument("--report", type=Path, default=None,
                     help="report path (default: stdout)")

    sea = sub.add_parser("search", help="print the closed-form optimum and classical floor")
    sea.set_defaults(run=_cmd_search)

    inter = sub.add_parser("interference", help="classify an interference coefficient")
    inter.set_defaults(run=_cmd_interference)
    inter.add_argument("--p", type=float, required=True)
    inter.add_argument("--p1", type=float, required=True)
    inter.add_argument("--p2", type=float, required=True)

    return parser


def _cmd_simulate(args) -> tuple[int, str | None]:
    from .probability import JointDistribution3, symmetrize

    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    for model, flags in _MODEL_FLAGS.items():
        for flag in flags:
            if model != args.model and getattr(args, flag):
                raise ValueError(f"--{flag} is only used with --model {model}")
    if args.model == "quantum":
        if args.angles is None:
            raise ValueError("--angles is required with --model quantum")
        pop = QuantumUnpolarized(questions=args.angles)
    else:
        if args.atoms is None:
            raise ValueError("--atoms is required with --model classical")
        joint = JointDistribution3(tuple(args.atoms))
        pop = ClassicalHiddenVariable(joint=symmetrize(joint) if args.symmetrize else joint)
    design = ProtocolDesign(variant=DesignVariant(args.design), n_per_branch=args.n)
    data = run_protocol(pop, design, seed=args.seed)
    args.out.write_text(format_dataset(data))
    return EXIT_OK, None


def _cmd_test(args) -> tuple[int, str | None]:
    validate_alpha(args.alpha)
    if args.seed is not None:
        # run_protocol's bounds: a report echoes no seed that simulate rejects.
        require_int("seed", args.seed, 0, 2**64, "in [0, 2**64)")
    # UTF-8 whatever the locale; a spreadsheet export's leading BOM is dropped.
    data = parse_dataset(args.dataset.read_text(encoding="utf-8-sig"))
    design = infer_design(data).value
    symmetry = check_symmetry(data)
    table = estimate_frequencies(data)
    try:
        test = violation_test(table, alpha=args.alpha)
    except DegenerateVariance as exc:
        test = exc
    text = emit_report(test, table, symmetry, seed=args.seed, design=design, alpha=args.alpha)
    if args.report is not None:
        args.report.write_text(text)
        text = None
    return EXIT_DEGENERATE if verdict(test) == VERDICT_DEGENERATE else EXIT_OK, text


def _cmd_search(args) -> tuple[int, str | None]:
    from .inequalities import wigner_conditional_check
    from .qubit import OPTIMUM, predicted_conditional_triple

    angles = {q: angle.phi for q, angle in OPTIMUM._asdict().items()}
    margin = wigner_conditional_check(predicted_conditional_triple(OPTIMUM)).margin
    payload = {"best_angles": angles, "best_margin": margin, "classical_floor": 0.0}
    return EXIT_OK, json.dumps(payload, indent=2) + "\n"


def _cmd_interference(args) -> tuple[int, str | None]:
    from .inequalities import interference_coefficient

    result = interference_coefficient(args.p, args.p1, args.p2)
    payload = {"p": args.p, "p1": args.p1, "p2": args.p2,
               "coefficient": result.coefficient, "regime": result.regime.value}
    return EXIT_OK, json.dumps(payload, indent=2) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.run(args)
        if text is not None:
            if sys.stdout is None:  # fd 1 was closed as the process started
                raise OSError("stdout is closed")
            sys.stdout.write(text)
        return code
    except (BellTestError, ValueError, OSError, MemoryError) as exc:
        print(f"{args.command}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        degenerate = isinstance(exc, (EmptyConditioningBranch, DegenerateAlternatives))
        return EXIT_DEGENERATE if degenerate else EXIT_VALIDATION


def run() -> None:
    """``main`` as a process: flush, then ``os._exit`` with its code, skipping teardown."""
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None: fd closed at start
            stream.flush()
    except OSError as exc:  # say, a closed pipe
        print(f"belltest: cannot write output: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    os._exit(code)


if __name__ == "__main__":
    run()

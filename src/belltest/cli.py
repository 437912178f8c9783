"""Command-line entry points.

Subcommands:

    simulate   run a survey over a classical or quantum population -> CSV
    test       analyze a CSV dataset -> JSON report
    search     find the angle triple with the most negative predicted margin
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


def _angles(text: str) -> QuestionTriple:
    from .qubit import QuestionTriple

    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated angles")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric angle in {text!r}") from None
    return QuestionTriple.from_floats(a, b, c)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="belltest",
        description="Classical-vs-quantum-like tests for dichotomic survey data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a survey, write a CSV dataset")
    sim.add_argument("--model", choices=["quantum", "classical"], required=True)
    sim.add_argument("--angles", type=_angles, help="question angles a,b,c in radians")
    sim.add_argument(
        "--atoms", type=float, nargs=8, metavar="W",
        help="8 atom weights in canonical order (+++ ++- +-+ +-- -++ -+- --+ ---)",
    )
    sim.add_argument("--symmetrize", action="store_true",
                     help="average the classical law with its global sign flip")
    sim.add_argument("--design", choices=["three", "two"], default="three")
    sim.add_argument("--n", type=int, required=True, help="agents per branch")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--workers", type=int, default=1, help="at least 1; no effect on output")
    sim.add_argument("--out", type=Path, required=True)

    tst = sub.add_parser("test", help="analyze a CSV dataset, write a JSON report")
    tst.add_argument("dataset", type=Path)
    tst.add_argument("--alpha", type=float, default=0.05)
    tst.add_argument("--seed", type=int, default=None,
                     help="seed to echo into the report, if known")
    tst.add_argument("--report", type=Path, default=None,
                     help="report path (default: stdout)")

    sea = sub.add_parser("search", help="maximize the predicted quantum violation")
    sea.add_argument("--grid", type=int, default=360)
    sea.add_argument("--refine-tol", type=float, default=1e-9)
    sea.add_argument("--floor-samples", type=int, default=0,
                     help="also certify the classical margin floor on N samples"
                     " (0: no floor)")
    sea.add_argument("--seed", type=int, default=0)

    inter = sub.add_parser("interference", help="classify an interference coefficient")
    inter.add_argument("--p", type=float, required=True)
    inter.add_argument("--p1", type=float, required=True)
    inter.add_argument("--p2", type=float, required=True)

    return parser


# The flags that only one --model reads; giving one with the other model is an error.
_MODEL_FLAGS = {"quantum": ("angles",), "classical": ("atoms", "symmetrize")}


def _write_stdout(text: str) -> None:
    """Write ``text`` to stdout; raises OSError when stdout was closed as the process started."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    sys.stdout.write(text)


def _cmd_simulate(args) -> int:
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
    return EXIT_OK


def _cmd_test(args) -> int:
    validate_alpha(args.alpha)
    if args.seed is not None:
        # run_protocol's bounds: a report echoes no seed that simulate rejects.
        require_int("seed", args.seed, 0, 2**64, "in [0, 2**64)")
    data = parse_dataset(args.dataset.read_text())
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
    else:
        _write_stdout(text)
    return EXIT_DEGENERATE if verdict(test) == VERDICT_DEGENERATE else EXIT_OK


def _cmd_search(args) -> int:
    import numpy as np
    from .search import classical_margin_floor, maximize_quantum_violation

    if args.floor_samples < 0:
        raise ValueError(f"--floor-samples must be >= 0, got {args.floor_samples}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    result = maximize_quantum_violation(grid_steps=args.grid, refine_tol=args.refine_tol)
    payload = {
        "best_angles": {
            "a": result.best_angles.a.phi,
            "b": result.best_angles.b.phi,
            "c": result.best_angles.c.phi,
        },
        "best_margin": result.best_margin,
        "evaluations": result.evaluations,
        "refinement_tolerance": result.refinement_tolerance,
    }
    if args.floor_samples > 0:
        rng = np.random.default_rng(args.seed)
        floor = classical_margin_floor(args.floor_samples, rng)
        payload["classical_floor"] = {
            "min_margin": floor.min_margin,
            "samples_evaluated": floor.samples_evaluated,
            "skipped": floor.skipped,
        }
    _write_stdout(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_interference(args) -> int:
    from .inequalities import interference_coefficient

    result = interference_coefficient(args.p, args.p1, args.p2)
    payload = {"p": args.p, "p1": args.p1, "p2": args.p2,
               "coefficient": result.coefficient, "regime": result.regime.value}
    _write_stdout(json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "test": _cmd_test,
        "search": _cmd_search,
        "interference": _cmd_interference,
    }
    try:
        return handlers[args.command](args)
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

"""Run workloads over several seeds, print every metric and check, summarise.

Usage:
    python3 bench/suite.py                      # all four workloads, seed 1, tracing off
    python3 bench/suite.py --trace 1            # the traced run: per-layer metrics
    python3 bench/suite.py --workloads survey-large --seeds 1-10 --out bench/results/x.json

Each (workload, seed) is one ``bench/run.py`` process whose check and
metric lines are echoed.  For metrics with at least four runs the summary
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, (q3 - q1) / median, against the metric's bound in BENCHMARK.json.
``--out`` writes every run and the summary with the environment: Python,
numpy and scipy versions, CPU count and model, seeds and git commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "n": len(values)}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / abs(median) if median else float("inf"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=[1])
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {
        "env": {**run.environment(), "cpu_model": cpu_model()},
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "workloads": {},
    }
    all_correct = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            print(f"== {workload} seed {seed}", flush=True)
            proc = subprocess.run(
                [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith(("check", "metric", "detail")):
                    print("  " + line)
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                all_correct = False
                continue
            result = json.loads(lines[-1])
            all_correct &= result["correct"] and result["failed"] == 0
            runs.append({"seed": seed, **result})
        names = runs[0]["metrics"] if runs else {}
        table = {name: {**summary([r["metrics"][name]["value"] for r in runs]),
                        "unit": runs[0]["metrics"][name]["unit"]} for name in names}
        report["workloads"][workload] = {"runs": runs, "summary": table}
        print(f"-- {workload}: {len(runs)} runs")
        for name, s in table.items():
            line = f"   {name:40s} median {s['median']:.6g} {s['unit']}"
            if "spread" in s:
                line += f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}"
                if name in bounds:
                    b = bounds[name]
                    line += f"  bound {b}  {'steady' if s['spread'] < b / 3 else 'within' if s['spread'] < b else 'WIDE'}"
            print(line)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""The belltest benchmark: one workload per process.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src/`` directory and scratch files go to ``.bench_work/``.  The workloads,
their metrics and the layer each metric belongs to are documented in
``bench/README.md``.

With ``--trace 0`` the run sets up ``SETUP_REPS`` times, then repeats the
workload's pass in a closed loop for about S seconds and reports the
end-to-end metrics.  With ``--trace 1`` it runs the same passes untraced
for S/2 seconds, then again with spans around every layer call, then a
small probe of the layers the workload does not reach, and reports the
per-layer metrics and the tracing overhead.  Every pass's outputs are
checked.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from tracecli import COUNTS, instrument_cli
from tracing import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5
CHILD_TIMEOUT_S = 150.0
WITNESS_ANGLES = (0.0, 2.0943951, 1.0471976)  # margin -0.25
WITNESS_ARG = ",".join(str(a) for a in WITNESS_ANGLES)
SURVEY_N = 200_000  # agents per branch in survey-large
# The documented dataset header, kept here so the generator does not depend
# on the package it feeds.
CSV_HEADER = "respondent_id,branch,first_question,first_answer,second_question,second_answer"


@dataclass
class Pass:
    """One timed pass of a workload; ``wall_s`` excludes the output checks.

    ``scale`` converts its seconds to reference seconds (see ``HostClock``);
    process workloads set it per command, ``measure`` sets it otherwise.
    """

    wall_s: float
    items: int
    attempted: int
    failed: int
    checks: list = field(default_factory=list)
    parts: dict = field(default_factory=dict)
    outcomes: tuple = ()
    scale: float | None = None

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def reference_unit() -> None:
    """Fixed work that never touches the package, in two halves of similar
    length: interpreter-bound dict, tuple and string churn with small numpy
    calls, and memory-bound fresh pages and object allocation.  Host load
    slows the two kinds differently, and the workloads mix both."""
    counts: dict[str, int] = {}
    for i in range(6000):
        key = f"r{i % 97:03d}"
        counts[key] = counts.get(key, 0) + (i * 7) % 13
    values = np.arange(2000.0)
    for _ in range(20):
        values = np.cos(values) * 0.5
    np.ones(2_000_000).sum()
    pairs = [(i, str(i)) for i in range(15000)]
    dict(pairs)


class HostClock:
    """Host speed, sampled by timing ``reference_unit`` between passes.

    The host's CPU speed drifts by up to 2x over seconds while other tenants
    load it, and the workloads' own times drift with it.  Gated timings are
    therefore reported in reference seconds: the measured seconds times
    REF_NOMINAL_S over the reference's time sampled just before and just
    after the pass.  REF_NOMINAL_S is the reference's typical time on the
    2-CPU machine the benchmark was defined on, so reference seconds read
    close to real seconds there.
    """

    REF_NOMINAL_S = 0.012
    CALLS = 5  # reference calls per sample; the median resists one stalled call
    EVERY_S = 0.25  # workload seconds between samples

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> float:
        calls = []
        for _ in range(self.CALLS):
            start = time.perf_counter()
            reference_unit()
            calls.append(time.perf_counter() - start)
        self.samples.append(statistics.median(calls))
        return self.samples[-1]

    def scale(self, before: float, after: float) -> float:
        return 2.0 * self.REF_NOMINAL_S / (before + after)


class Context:
    """Child processes of one run: environment, timeout and peak RSS."""

    def __init__(self) -> None:
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))
        self.peak_rss_mb = 0.0
        self.import_walls: list[float] = []
        self.clock = HostClock()
        WORK.mkdir(exist_ok=True)

    def spawn(self, args: list[str]) -> tuple[float, int]:
        """Run ``python3 ARGS`` to completion; returns (wall seconds, exit code)."""
        err_path = WORK / "child-stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's peak RSS, not the cumulative
                # maximum over all children that RUSAGE_CHILDREN reports.
                # Linux folds the parent's peak at spawn into it, so process
                # workloads keep this process (about 50 MB) smaller than
                # any belltest child (about 100 MB) by never importing the
                # package here.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            sys.stderr.write(f"child {args[:2]} exited {proc.returncode}:\n"
                             + err_path.read_text(errors="replace")[-2000:])
        return wall, proc.returncode

    def cli(self, args: list[str], tracer: Tracer | None) -> tuple[float, int, float]:
        """One ``belltest`` command in its own process, traced if asked.

        Returns (wall seconds, exit code, reference seconds), the last from
        host clock samples just before and just after the command.
        """
        before = self.clock.sample()
        if tracer is None:
            wall, code = self.spawn(["-m", "belltest.cli", *args])
        else:
            spans = WORK / "child-spans.json"
            spans.unlink(missing_ok=True)
            wall, code = self.spawn([str(Path(__file__).with_name("tracecli.py")), str(spans), *args])
            if spans.exists():
                tracer.extend(json.loads(spans.read_text()))
        return wall, code, wall * self.clock.scale(before, self.clock.sample())


def traced_api(tracer: Tracer | None, names: list[str]) -> SimpleNamespace:
    """The package's public functions, each wrapped in a span if traced."""
    import belltest

    fns = {name: getattr(belltest, name) for name in names}
    if tracer is not None:
        fns = {name: tracer.wrap(fn, count=COUNTS.get(name)) for name, fn in fns.items()}
    return SimpleNamespace(**fns)


class Workload:
    API: list[str] = []  # package functions an in-process workload calls
    MIN_PASSES = 1

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx, self.seed = ctx, seed
        self.dir = WORK / self.name
        self._api: tuple | None = None

    def api(self, tracer: Tracer | None) -> SimpleNamespace:
        if self._api is None or self._api[0] is not tracer:
            self._api = (tracer, traced_api(tracer, self.API))
        return self._api[1]

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        if self.API:
            self.api(None)  # imports the package in-process before any timing

    def final_checks(self, passes: list[Pass]) -> list:
        return []


class SurveyLarge(Workload):
    """simulate 3 x 200k quantum agents with --workers 2, then test the CSV."""

    name = "survey-large"
    # A pass takes most of a run's seconds; the median of two halves the
    # run-to-run spread that a single pass of two processes shows.
    MIN_PASSES = 2

    def setup(self) -> None:
        super().setup()
        self.digests_path = self.dir / "digests.json"
        self.digests = json.loads(self.digests_path.read_text()) if self.digests_path.exists() else {}

    def run_pass(self, index: int, tracer: Tracer | None) -> Pass:
        csv, report = self.dir / "survey.csv", self.dir / "report.json"
        for path in (csv, report):
            path.unlink(missing_ok=True)
        sim_s, sim_code, sim_ref = self.ctx.cli(
            ["simulate", "--model", "quantum", "--angles", WITNESS_ARG, "--design", "three",
             "--n", str(SURVEY_N), "--seed", str(self.seed), "--workers", "2", "--out", str(csv)],
            tracer)
        test_s, test_code, test_ref = self.ctx.cli(
            ["test", str(csv), "--seed", str(self.seed), "--report", str(report)], tracer)
        found = [("survey.exit", sim_code == 0 and test_code == 0, f"simulate {sim_code}, test {test_code}")]
        if sim_code == 0 and test_code == 0:
            data = csv.read_bytes()
            key = str(self.seed)
            found += checks.check_survey(data, json.loads(report.read_text()), SURVEY_N,
                                         self.digests.get(key))
            if key not in self.digests:
                self.digests[key] = checks.csv_digest(data)
                self.digests_path.write_text(json.dumps(self.digests))
        failed = (sim_code != 0) + (test_code != 0 or not all(ok for _, ok, _ in found))
        return Pass(sim_s + test_s, 3 * SURVEY_N, 2, failed, found,
                    {"simulate_s": sim_s, "test_s": test_s},
                    scale=(sim_ref + test_ref) / (sim_s + test_s))

    def details(self, passes: list[Pass]) -> dict:
        wall = sum(p.wall_s for p in passes)
        return {
            "simulate_s": (statistics.median(p.parts["simulate_s"] for p in passes), "s"),
            "test_s": (statistics.median(p.parts["test_s"] for p in passes), "s"),
            "records_per_s": (sum(p.items for p in passes) / wall, "1/s"),
        }


# Atom k of the canonical order has signs (a, b, c) below; see belltest.probability.
ATOM_SIGNS = np.array([[1 - 2 * (k >> 2 & 1), 1 - 2 * (k >> 1 & 1), 1 - 2 * (k & 1)]
                       for k in range(8)])
ID_ALPHABET = np.array(list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-:"))
QUESTION = ("a", "b", "c")


def ingest_law(rng: np.random.Generator) -> np.ndarray:
    """A symmetrised classical law whose conditional-form margin is >= 0.2."""
    while True:
        w = rng.dirichlet(np.ones(8))
        w = 0.5 * (w + w[::-1])
        # With fair marginals the margin is 2 (w[++-] + w[--+]) = 4 w[1].
        if 4.0 * w[1] >= 0.2:
            return w


def respondent_ids(rng: np.random.Generator, m: int) -> list[str]:
    """Unique ids of 2 to 21 characters: a random prefix, '.', a number."""
    lengths = rng.integers(0, 15, size=m)
    chars = "".join(ID_ALPHABET[rng.integers(0, len(ID_ALPHABET), size=int(lengths.sum()))])
    ends = np.cumsum(lengths)
    return [f"{chars[end - n:end]}.{k}" for k, (n, end) in enumerate(zip(lengths, ends))]


def write_ingest_file(rng: np.random.Generator, path: Path, n: int) -> dict:
    """A two-ensemble survey CSV of 3n rows in shuffled order.

    Returns the three (numerator, denominator) counts an exact analysis
    must report, computed here independently of the package.
    """
    law = ingest_law(rng)
    s1 = ATOM_SIGNS[rng.choice(8, size=2 * n, p=law)]
    s2 = ATOM_SIGNS[rng.choice(8, size=n, p=law)]
    # S1 asks b, then a after "yes" and c after "no"; S2 asks c, then a.
    s1_second = np.where(s1[:, 1] > 0, 0, 2)
    branch = np.array(["S1"] * (2 * n) + ["S2"] * n)
    q1 = np.r_[np.full(2 * n, 1), np.full(n, 2)]
    a1 = np.r_[s1[:, 1], s2[:, 2]]
    q2 = np.r_[s1_second, np.zeros(n, dtype=int)]
    a2 = np.r_[s1[np.arange(2 * n), s1_second], s2[:, 0]]
    expected = {}
    for key, (first, sign, second) in zip(checks.NU_KEYS, ((1, 1, 0), (1, -1, 2), (2, 1, 0))):
        reached = (q1 == first) & (a1 == sign) & (q2 == second)
        expected[key] = (int(np.sum(reached & (a2 > 0))), int(np.sum(reached)))
    order = rng.permutation(3 * n)
    ids = respondent_ids(rng, 3 * n)
    lines = [CSV_HEADER]
    for rid, k in zip(ids, order):
        lines.append(f"{rid},{branch[k]},{QUESTION[q1[k]]},{a1[k]:+d},{QUESTION[q2[k]]},{a2[k]:+d}")
    path.write_text("\n".join(lines) + "\n")
    return expected


class IngestSmall(Workload):
    """`belltest test` on survey-sized CSVs the benchmark wrote, one per process."""

    name = "ingest-small"
    # Agents per branch of each file; S1 gets 2n, so 2400 to 4800 rows.  The
    # sizes are fixed so that records per second compare across seeds.
    SIZES = (800, 1371, 1029, 1600, 914, 1486, 1143, 1257)

    def setup(self) -> None:
        super().setup()
        rng = np.random.default_rng(self.seed)
        self.files = []
        for k, n in enumerate(self.SIZES):
            path = self.dir / f"survey-{k}.csv"
            self.files.append((path, write_ingest_file(rng, path, n), 3 * n))

    def run_pass(self, index: int, tracer: Tracer | None) -> Pass:
        path, expected, rows = self.files[index % len(self.files)]
        report = self.dir / "report.json"
        report.unlink(missing_ok=True)
        wall, code, ref = self.ctx.cli(["test", str(path), "--report", str(report)], tracer)
        found = [("ingest.exit", code == 0, f"exit {code}")]
        if code == 0:
            found += checks.check_ingest(json.loads(report.read_text()), expected)
        return Pass(wall, rows, 1, int(not all(ok for _, ok, _ in found)), found, scale=ref / wall)

    def details(self, passes: list[Pass]) -> dict:
        wall = sum(p.wall_s for p in passes)
        return {
            "files_per_s": (len(passes) / wall, "1/s"),
            "records_per_s": (sum(p.items for p in passes) / wall, "1/s"),
        }


class ReplicateSmall(Workload):
    """An in-process power study: n = 50 per branch, three-ensemble design."""

    name = "replicate-small"
    API = ["run_protocol", "check_symmetry", "estimate_frequencies", "violation_test"]
    N = 50
    PAIRS = 10
    # Interior symmetric law (every atom > 0) with margin 4 * 0.025 = 0.1.
    CLASSICAL_WEIGHTS = (0.2, 0.025, 0.1, 0.175, 0.175, 0.1, 0.025, 0.2)

    def setup(self) -> None:
        super().setup()
        from belltest import (ClassicalHiddenVariable, DesignVariant, JointDistribution3,
                              ProtocolDesign, QuantumUnpolarized, QuestionTriple)

        self.populations = (
            QuantumUnpolarized(questions=QuestionTriple.from_floats(*WITNESS_ANGLES)),
            ClassicalHiddenVariable(joint=JointDistribution3(self.CLASSICAL_WEIGHTS)),
        )
        self.design = ProtocolDesign(variant=DesignVariant.THREE_ENSEMBLE, n_per_branch=self.N)

    def run_pass(self, index: int, tracer: Tracer | None) -> Pass:
        """PAIRS quantum and PAIRS classical replicates, alternating; a pass
        long enough to average over both kinds keeps pass times unimodal."""
        from belltest import DegenerateVariance, EmptyConditioningBranch

        api = self.api(tracer)
        outcomes = []
        start = time.perf_counter()
        for k in range(2 * self.PAIRS):
            kind = ("quantum", "classical")[k % 2]
            seed = (self.seed * 1_000_003 + 2 * self.PAIRS * index + k) % 2**63
            try:
                data = api.run_protocol(self.populations[k % 2], self.design, seed=seed)
                api.check_symmetry(data, tolerance=0.05)
                table = api.estimate_frequencies(data)
                rejected = api.violation_test(table, alpha=0.05).significant_violation
                outcome = "reject" if rejected else "accept"
            except (DegenerateVariance, EmptyConditioningBranch):
                outcome = "degenerate"  # an expected result at n = 50, not a failure
            except Exception:  # noqa: BLE001 - counted as a failed replicate
                traceback.print_exc()
                outcome = "error"
            outcomes.append(f"{kind}:{outcome}")
        wall = time.perf_counter() - start
        errors = sum(o.endswith(":error") for o in outcomes)
        return Pass(wall, len(outcomes), len(outcomes), errors, outcomes=tuple(outcomes))

    def final_checks(self, passes: list[Pass]) -> list:
        counts = Counter(o for p in passes for o in p.outcomes)
        totals = Counter(o.split(":")[0] for p in passes for o in p.outcomes)
        return checks.check_replicates(counts["quantum:reject"], totals["quantum"],
                                       counts["classical:reject"], totals["classical"])

    def details(self, passes: list[Pass]) -> dict:
        return {"replicates_per_s": (sum(p.items for p in passes) / sum(p.wall_s for p in passes), "1/s")}


class ModelSpace(Workload):
    """Violation search, classical floor, and scalar fuzz of the model core."""

    name = "model-space"
    API = ["maximize_quantum_violation", "classical_margin_floor", "random_joint", "symmetrize",
           "conditional", "bell_covariance_check", "wigner_joint_check",
           "wigner_conditional_check", "predicted_conditional_triple"]

    def __init__(self, ctx: Context, seed: int, grid: int = 1440, tol: float = 1e-12,
                 floor: int = 2_000_000, fuzz: int = 2000) -> None:
        super().__init__(ctx, seed)
        self.grid, self.tol, self.floor, self.fuzz = grid, tol, floor, fuzz

    def run_pass(self, index: int, tracer: Tracer | None) -> Pass:
        from belltest import CondTriple, Outcome, QuestionTriple, VariableIndex

        a_plus, b_plus = (VariableIndex.A, Outcome.PLUS), (VariableIndex.B, Outcome.PLUS)
        c_plus, b_minus = (VariableIndex.C, Outcome.PLUS), (VariableIndex.B, Outcome.MINUS)
        api = self.api(tracer)
        rng = np.random.default_rng([self.seed, index])
        angles = rng.uniform(0.0, 2.0 * np.pi, size=(self.fuzz, 3))
        start = time.perf_counter()
        search = api.maximize_quantum_violation(grid_steps=self.grid, refine_tol=self.tol)
        floor = api.classical_margin_floor(self.floor, rng)
        fuzz_min, bad = np.inf, 0
        for _ in range(self.fuzz):
            law = api.random_joint(rng)
            fair = api.symmetrize(law)
            cond = CondTriple(api.conditional(fair, a_plus, b_plus),
                              api.conditional(fair, c_plus, b_minus),
                              api.conditional(fair, a_plus, c_plus))
            margin = min(api.bell_covariance_check(law).margin,
                         api.wigner_joint_check(law).margin,
                         api.wigner_conditional_check(cond).margin)
            bad += margin < -1e-9
            fuzz_min = min(fuzz_min, margin)
        triple_min = np.inf
        for a, b, c in angles:
            predicted = api.predicted_conditional_triple(QuestionTriple.from_floats(a, b, c))
            margin = api.wigner_conditional_check(predicted).margin
            bad += margin < checks.QUANTUM_MARGIN - 1e-9
            triple_min = min(triple_min, margin)
        wall = time.perf_counter() - start
        found = checks.check_model_space(search.best_margin, floor.min_margin, fuzz_min, triple_min)
        failed = bad + (not found[0][1]) + (not found[1][1])
        evaluations = search.evaluations + floor.samples_evaluated + 4 * self.fuzz
        return Pass(wall, evaluations, 2 + 2 * self.fuzz, int(failed), found,
                    {"best_margin": search.best_margin, "floor_min": floor.min_margin,
                     "fuzz_min": fuzz_min, "triple_min": triple_min})

    def details(self, passes: list[Pass]) -> dict:
        return {"evals_per_s": (sum(p.items for p in passes) / sum(p.wall_s for p in passes), "1/s")}


WORKLOADS = {w.name: w for w in (SurveyLarge, IngestSmall, ReplicateSmall, ModelSpace)}


def measure(workload: Workload, seconds: float, tracer: Tracer | None = None,
            count: int | None = None) -> list[Pass]:
    """Closed loop: passes back to back until ``seconds`` have gone by and
    the workload's MIN_PASSES are done, or exactly ``count`` passes.

    The host clock is sampled before the first pass, after the last, and
    whenever EVERY_S of pass time has gone by; each pass is scaled by the
    two samples around it.
    """
    clock = workload.ctx.clock
    passes: list[Pass] = []
    pending: list[Pass] = []  # passes still waiting for their scale
    before, since = clock.sample(), 0.0
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes), tracer))
        if passes[-1].scale is None:
            pending.append(passes[-1])
            since += passes[-1].wall_s
        done = len(passes) >= count if count is not None \
            else time.perf_counter() - start >= seconds and len(passes) >= workload.MIN_PASSES
        if pending and (done or since >= clock.EVERY_S):
            after = clock.sample()
            for p in pending:
                p.scale = clock.scale(before, after)
            before, since, pending = after, 0.0, []
        if done:
            return passes


def timed_setup(ctx: Context, workload: Workload) -> float:
    """Median of SETUP_REPS set-ups: import check in a fresh interpreter,
    then the workload's own inputs."""
    times = []
    before = ctx.clock.sample()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        wall, code = ctx.spawn(["-c", "import belltest.cli"])
        if code != 0:
            raise SystemExit(f"belltest.cli does not import from {SRC}")
        ctx.import_walls.append(wall)
        workload.setup()
        elapsed = time.perf_counter() - start
        after = ctx.clock.sample()
        times.append(elapsed * ctx.clock.scale(before, after))
        before = after
    return statistics.median(times)


def probe(ctx: Context, seed: int, tracer: Tracer) -> list:
    """Trace one small pass through every layer, for layers a workload skips.

    Streams are always probed here, over exactly the draws survey-large's
    simulate consumes: two uniforms per agent on each of its three branches.
    """
    import belltest.cli as cli
    from belltest.streams import counter_uniforms

    uniforms = tracer.wrap(counter_uniforms, count=COUNTS["counter_uniforms"])
    indices = np.arange(SURVEY_N, dtype=np.uint64)
    for stream in (1, 2, 3):
        for draw in (0, 1):
            uniforms(seed, stream, indices, draw)
    work = WORK / "probe"
    work.mkdir(exist_ok=True)
    csv, report = work / "survey.csv", work / "report.json"
    main, restore = instrument_cli(cli, tracer)
    try:
        codes = (main(["simulate", "--model", "quantum", "--angles", WITNESS_ARG, "--design", "three",
                       "--n", "2000", "--seed", str(seed), "--out", str(csv)]),
                 main(["test", str(csv), "--report", str(report)]))
    finally:
        restore()
    found = [("probe.cli_exit", codes == (0, 0), f"exit codes {codes}")]
    model = ModelSpace(ctx, seed, grid=360, tol=1e-9, floor=100_000, fuzz=200)
    found += model.run_pass(0, tracer).checks
    return found


def layer_metrics(work: dict, passes: int, probe_spans: dict, overhead_s: float,
                  untraced_s: float, import_s: float, spans: int) -> dict:
    """Per-layer metrics, per pass, from the workload's spans where it calls
    the function and from the probe's otherwise."""

    def source(name):
        return (work[name], passes) if name in work else (probe_spans[name], 1)

    def per_pass(name, key="total_s"):
        entry, n = source(name)
        return entry[key] / n

    def rate(name, scale=1.0):
        entry, _ = source(name)
        return entry["count"] * scale / entry["total_s"]

    def mean_us(*names):
        entries = [source(name)[0] for name in names]
        return 1e6 * sum(e["total_s"] for e in entries) / sum(e["calls"] for e in entries)

    stats_entry, stats_passes = source("stats.violation_test")
    return {
        "streams.counter_uniforms_s": (per_pass("streams.counter_uniforms"), "s"),
        "streams.uniforms_per_s": (rate("streams.counter_uniforms"), "1/s"),
        "protocol.run_protocol_s": (per_pass("protocol.run_protocol"), "s"),
        "protocol.run_protocol_records_per_s": (rate("protocol.run_protocol"), "1/s"),
        "protocol.records": (per_pass("protocol.run_protocol", "count"), "count"),
        "protocol.estimate_frequencies_s": (per_pass("protocol.estimate_frequencies"), "s"),
        "protocol.check_symmetry_s": (per_pass("protocol.check_symmetry"), "s"),
        "dataio.format_dataset_s": (per_pass("dataio.format_dataset"), "s"),
        "dataio.format_mb_per_s": (rate("dataio.format_dataset", 1e-6), "MB/s"),
        "dataio.csv_bytes": (per_pass("dataio.format_dataset", "count"), "bytes"),
        "dataio.parse_dataset_s": (per_pass("dataio.parse_dataset"), "s"),
        "dataio.parse_mb_per_s": (rate("dataio.parse_dataset", 1e-6), "MB/s"),
        "dataio.emit_report_s": (per_pass("dataio.emit_report"), "s"),
        "stats.violation_test_s": (per_pass("stats.violation_test"), "s"),
        "stats.us_per_call": (mean_us("stats.violation_test"), "us"),
        "stats.calls": (stats_entry["calls"], "count"),
        "stats.tested_ratio": (stats_entry["calls"] / stats_passes, "ratio"),
        "search.maximize_quantum_violation_s": (per_pass("search.maximize_quantum_violation"), "s"),
        "search.evaluations": (per_pass("search.maximize_quantum_violation", "count"), "count"),
        "search.classical_margin_floor_s": (per_pass("search.classical_margin_floor"), "s"),
        "search.floor_samples_per_s": (rate("search.classical_margin_floor"), "1/s"),
        "qubit.predicted_conditional_triple_us": (mean_us("qubit.predicted_conditional_triple"), "us"),
        "inequalities.checks_us": (mean_us("inequalities.bell_covariance_check",
                                           "inequalities.wigner_joint_check",
                                           "inequalities.wigner_conditional_check"), "us"),
        "probability.random_joint_us": (mean_us("probability.random_joint"), "us"),
        "probability.symmetrize_us": (mean_us("probability.symmetrize"), "us"),
        "cli.import_s": (import_s, "s"),
        "cli.read_s": (per_pass("cli.read"), "s"),
        "cli.write_s": (per_pass("cli.write"), "s"),
        "cli.self_s": (per_pass("cli.main", "self_s"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (overhead_s / untraced_s, "ratio"),
        "trace.spans": (spans / passes, "count"),
    }


def git_commit(root: Path) -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
    }


def summarize_checks(found: list) -> dict[str, list]:
    """Check name -> [passes, failures, detail of the first failure]."""
    out: dict[str, list] = {}
    for name, ok, detail in found:
        entry = out.setdefault(name, [0, 0, ""])
        entry[0 if ok else 1] += 1
        if not ok and not entry[2]:
            entry[2] = detail
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "belltest" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'belltest'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ctx = Context()
    workload = WORKLOADS[args.workload](ctx, args.seed)
    setup_s = timed_setup(ctx, workload)

    if args.trace:
        plain = measure(workload, args.seconds / 2)
        tracer = Tracer()
        traced = measure(workload, args.seconds, tracer, count=len(plain))
        probe_tracer = Tracer()
        probe_checks = probe(ctx, args.seed, probe_tracer)
        bare = statistics.median(ctx.spawn(["-c", "pass"])[0] for _ in range(SETUP_REPS))
        (WORK / f"spans-{args.workload}.json").write_text(
            json.dumps({"workload": tracer.spans, "probe": probe_tracer.spans}))
        # Reference seconds, so a drift in host speed between the two loops
        # does not read as tracing overhead.
        untraced_s = statistics.median(p.ref_s for p in plain)
        metrics = layer_metrics(
            summarize(tracer.spans), len(traced), summarize(probe_tracer.spans),
            statistics.median(p.ref_s for p in traced) - untraced_s, untraced_s,
            statistics.median(ctx.import_walls) - bare, len(tracer.spans))
        passes = plain + traced
        extra_checks = probe_checks
        details = {}
    else:
        passes = measure(workload, args.seconds)
        if workload.API:  # the package ran in this process too
            ctx.peak_rss_mb = max(ctx.peak_rss_mb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.ref_s for p in passes), "s"),
            "items_per_s": (sum(p.items for p in passes) / sum(p.ref_s for p in passes), "1/s"),
            "peak_rss_mb": (ctx.peak_rss_mb, "MB"),
        }
        extra_checks = []
        details = workload.details(passes)

    final = workload.final_checks(passes)
    found = [c for p in passes for c in p.checks] + final + extra_checks
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + sum(not ok for _, ok, _ in final + extra_checks)
    details["raw_wall_s"] = (statistics.median(p.wall_s for p in passes), "s")
    details["reference_unit_s"] = (statistics.median(ctx.clock.samples), "s")
    details["fail_frac"] = (failed / attempted, "ratio")
    details["passes"] = (len(passes), "count")

    print("env " + json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, **environment()}))
    check_table = summarize_checks(found)
    for name, (ok, bad, detail) in check_table.items():
        print(f"check {name} {'PASS' if not bad else 'FAIL'} {ok}/{ok + bad}"
              + (f" ({detail})" if bad else ""))
    for name, (value, unit) in {**metrics, **details}.items():
        print(f"{'metric' if name in metrics else 'detail'} {name} {value:.6g} {unit}")
    correct = failed == 0 and all(bad == 0 for _, bad, _ in check_table.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

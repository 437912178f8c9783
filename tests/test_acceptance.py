"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s`.

Criterion 3 note: with the pinned transition rule cos^2(gap/2) and collapse
to the antipodal eigenstate on a "no", the conditional triple
(0.25, 0.25, 0.75) with margin -0.25 is produced by the angle gaps
(b - a, c - a) = (2*pi/3, pi/3) (up to rotation and reflection), which is
also where the exhaustive search lands.  The suite certifies those exact
values at that witness.
"""

import math

import numpy as np

from belltest import (
    CondTriple,
    JointDistribution3,
    Outcome,
    ProtocolDesign,
    QuantumUnpolarized,
    ClassicalHiddenVariable,
    QuestionTriple,
    VariableIndex,
    bell_covariance_check,
    check_symmetry,
    classical_margin_floor,
    conditional,
    estimate_frequencies,
    interference_coefficient,
    maximize_quantum_violation,
    predicted_conditional_triple,
    random_joint,
    run_protocol,
    symmetrize,
    violation_test,
    wigner_conditional_check,
    wigner_joint_check,
)
from belltest.cli import main
from belltest.probability import atom_index
from belltest.protocol import DesignVariant

A, B, C = VariableIndex.A, VariableIndex.B, VariableIndex.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

WITNESS = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)
THREE = DesignVariant.THREE_ENSEMBLE
TWO = DesignVariant.TWO_ENSEMBLE


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def cond_triple(joint):
    return CondTriple(
        p_a_given_b_plus=conditional(joint, (A, PLUS), (B, PLUS)),
        p_c_given_b_minus=conditional(joint, (C, PLUS), (B, MINUS)),
        p_a_given_c_plus=conditional(joint, (A, PLUS), (C, PLUS)),
    )


def test_criterion_1_classical_soundness_fuzz():
    rng = np.random.default_rng(101)
    n = 100_000
    worst_bell = worst_joint = math.inf
    for _ in range(n):
        joint = random_joint(rng)
        worst_bell = min(worst_bell, bell_covariance_check(joint).margin)
        worst_joint = min(worst_joint, wigner_joint_check(joint).margin)
    worst_cond = math.inf
    for _ in range(n):
        sym = symmetrize(random_joint(rng))
        worst_cond = min(worst_cond, wigner_conditional_check(cond_triple(sym)).margin)
    ok = worst_bell >= -1e-12 and worst_joint >= -1e-12 and worst_cond >= -1e-12
    report(
        "criterion 1: classical soundness fuzz (1e5 joints per inequality)",
        ok,
        f"min margins: covariance {worst_bell:.2e}, joint {worst_joint:.2e}, "
        f"conditional {worst_cond:.2e}",
    )


def test_criterion_2_joint_margin_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        joint = random_joint(rng)
        w = joint.weights
        expected = w[atom_index((1, 1, -1))] + w[atom_index((-1, -1, 1))]
        worst = max(worst, abs(wigner_joint_check(joint).margin - expected))
    report(
        "criterion 2: joint-form margin equals w(++-) + w(--+) (1e4 joints)",
        worst <= 1e-15,
        f"max deviation {worst:.2e}",
    )


def test_criterion_3_analytic_quantum_violation():
    triple = predicted_conditional_triple(WITNESS)
    margin = wigner_conditional_check(triple).margin
    values_ok = all(
        abs(got - want) <= 1e-14
        for got, want in zip(tuple(triple), (0.25, 0.25, 0.75))
    )
    report(
        "criterion 3: analytic conditional triple (0.25, 0.25, 0.75), margin -0.25",
        values_ok and abs(margin - (-0.25)) <= 1e-14,
        f"triple {tuple(triple)}, margin {margin}",
    )


def test_criterion_4_search_optimum_and_classical_floor():
    result = maximize_quantum_violation(grid_steps=360, refine_tol=1e-9)
    floor = classical_margin_floor(100_000, np.random.default_rng(104))
    gap = floor.min_margin - result.best_margin
    ok = (
        abs(result.best_margin - (-0.25)) <= 1e-8
        and floor.min_margin >= -1e-12
        and abs(gap - 0.25) <= 1e-8
    )
    report(
        "criterion 4: search optimum -0.25, classical floor >= -1e-12, gap 0.25",
        ok,
        f"best {result.best_margin:.10f} at gaps "
        f"({result.best_angles.b.phi:.6f}, {result.best_angles.c.phi:.6f}), "
        f"floor {floor.min_margin:.2e}",
    )


def test_criterion_5_end_to_end_monte_carlo():
    n = 100_000
    design = ProtocolDesign(THREE, n)
    quantum = run_protocol(QuantumUnpolarized(WITNESS), design, seed=105)
    q_table = estimate_frequencies(quantum)
    q_test = violation_test(q_table, alpha=0.05)
    q_ok = (
        abs(q_test.margin_estimate - (-0.25)) < 0.01
        and q_test.p_value < 1e-6
        and q_test.significant_violation
    )

    law = symmetrize(random_joint(np.random.default_rng(1055)))
    classical = run_protocol(ClassicalHiddenVariable(law), design, seed=106)
    c_test = violation_test(estimate_frequencies(classical), alpha=0.05)
    c_ok = not c_test.significant_violation
    report(
        "criterion 5: end-to-end Monte Carlo verdicts at n = 1e5 per branch",
        q_ok and c_ok,
        f"quantum margin {q_test.margin_estimate:.4f} p {q_test.p_value:.2e}; "
        f"classical margin {c_test.margin_estimate:.4f} p {c_test.p_value:.2f}",
    )


def test_criterion_6_design_equivalence():
    n = 100_000
    pop = QuantumUnpolarized(WITNESS)
    t3 = estimate_frequencies(run_protocol(pop, ProtocolDesign(THREE, n), seed=107))
    t2 = estimate_frequencies(run_protocol(pop, ProtocolDesign(TWO, n), seed=108))
    max_sigma = 0.0
    for (n1, d1), (n2, d2) in zip(
        (t3.nu_a_given_b_plus, t3.nu_c_given_b_minus, t3.nu_a_given_c_plus),
        (t2.nu_a_given_b_plus, t2.nu_c_given_b_minus, t2.nu_a_given_c_plus),
    ):
        p1, p2 = n1 / d1, n2 / d2
        pooled_se = math.sqrt(p1 * (1 - p1) / d1 + p2 * (1 - p2) / d2)
        max_sigma = max(max_sigma, abs(p1 - p2) / pooled_se)
    report(
        "criterion 6: two- and three-ensemble estimates agree within 4 pooled SE",
        max_sigma <= 4.0,
        f"max discrepancy {max_sigma:.2f} pooled SE",
    )


def test_criterion_7_symmetry_gate():
    n = 10_000
    tolerance = 0.05
    # Biased classical law: P(b = +1) = 0.7 (and a, c fair).
    biased = JointDistribution3(
        tuple(
            0.125 * (1.4 if sb > 0 else 0.6)
            for (sa, sb, sc) in [
                (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
                (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
            ]
        )
    )
    flags = 0
    runs = 200
    for k in range(runs):
        data = run_protocol(
            ClassicalHiddenVariable(biased), ProtocolDesign(THREE, n), seed=2000 + k
        )
        rep = check_symmetry(data, tolerance=tolerance)
        flags += any(e.question is B and e.flagged for e in rep.entries)
    power = flags / runs

    quantum = run_protocol(
        QuantumUnpolarized(WITNESS), ProtocolDesign(THREE, n), seed=109
    )
    quantum_passes = check_symmetry(quantum, tolerance=tolerance).passed
    report(
        "criterion 7: symmetry gate flags P(b+) = 0.7 and passes unpolarized agents",
        power >= 0.99 and quantum_passes,
        f"power {power:.3f}, quantum passed {quantum_passes}",
    )


def test_criterion_8_interference_round_trip():
    rng = np.random.default_rng(110)
    n = 100_000
    p1_true = p2_true = 0.25
    p_true = p1_true + p2_true + 2 * 0.5 * math.sqrt(p1_true * p2_true)
    p1_hat = rng.binomial(n, p1_true) / n
    p2_hat = rng.binomial(n, p2_true) / n
    p_hat = rng.binomial(n, p_true) / n
    coef = interference_coefficient(p_hat, p1_hat, p2_hat).coefficient
    report(
        "criterion 8: interference coefficient 0.5 recovered within 0.02 at N = 1e5",
        abs(coef - 0.5) <= 0.02,
        f"estimate {coef:.4f}",
    )


def test_criterion_9_determinism_across_workers(tmp_path):
    datasets = []
    reports = []
    for workers in ("1", "4", "8"):
        out = tmp_path / f"d{workers}.csv"
        rep = tmp_path / f"r{workers}.json"
        assert main([
            "simulate", "--model", "quantum",
            "--angles", f"0,{2 * math.pi / 3},{math.pi / 3}",
            "--design", "three", "--n", "20000", "--seed", "111",
            "--workers", workers, "--out", str(out),
        ]) == 0
        assert main(["test", str(out), "--seed", "111", "--report", str(rep)]) == 0
        datasets.append(out.read_bytes())
        reports.append(rep.read_bytes())
    ok = datasets[0] == datasets[1] == datasets[2] and reports[0] == reports[1] == reports[2]
    report("criterion 9: byte-identical datasets and reports for workers 1/4/8", ok)

import math

import numpy as np
import pytest

from belltest import (
    Branch,
    ClassicalHiddenVariable,
    DesignVariant,
    EmptyConditioningBranch,
    JointDistribution3,
    Outcome,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    ResponseDataset,
    ResponseRecord,
    VariableIndex,
    check_perfect_correlation,
    check_symmetry,
    estimate_frequencies,
    random_joint,
    run_protocol,
    sample_entangled_pairs,
)
from belltest.dataio import format_dataset

A, B, C = VariableIndex.A, VariableIndex.B, VariableIndex.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

WITNESS = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)
PERFECT = JointDistribution3.from_atoms({(1, 1, 1): 0.5, (-1, -1, -1): 0.5})
THREE = DesignVariant.THREE_ENSEMBLE
TWO = DesignVariant.TWO_ENSEMBLE


def make_record(rid, branch, q1, a1, q2, a2):
    return ResponseRecord(
        respondent_id=rid,
        branch=branch,
        first_question=q1,
        first_answer=a1,
        second_question=q2,
        second_answer=a2,
    )


class TestResponseRecord:
    def test_rejects_repeated_question(self):
        with pytest.raises(ValueError):
            make_record("r0", Branch.BA, B, PLUS, B, PLUS)


class TestRunProtocol:
    def test_three_ensemble_branch_structure(self):
        design = ProtocolDesign(THREE, 10)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=0)
        assert len(data) == 30
        by_branch = {}
        for rec in data:
            by_branch.setdefault(rec.branch, []).append(rec)
        assert set(by_branch) == {Branch.BA, Branch.BC, Branch.CA}
        assert all(r.first_question is B and r.second_question is A for r in by_branch[Branch.BA])
        assert all(r.first_question is B and r.second_question is C for r in by_branch[Branch.BC])
        assert all(r.first_question is C and r.second_question is A for r in by_branch[Branch.CA])

    def test_two_ensemble_routing(self):
        design = ProtocolDesign(TWO, 50)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=0)
        assert len(data) == 150
        for rec in data:
            if rec.branch is Branch.S1:
                assert rec.first_question is B
                expected = A if rec.first_answer is PLUS else C
                assert rec.second_question is expected
            else:
                assert rec.branch is Branch.S2
                assert (rec.first_question, rec.second_question) == (C, A)
        assert data.metadata["s1_size"] == 100

    def test_deterministic_agents_give_exact_frequencies(self):
        design = ProtocolDesign(THREE, 200)
        data = run_protocol(ClassicalHiddenVariable(PERFECT), design, seed=7)
        table = estimate_frequencies(data)
        # b = -1 agents are the all-minus ones, so their c answer is -1.
        assert table.proportions() == (1.0, 0.0, 1.0)

    def test_worker_count_does_not_change_output(self):
        design = ProtocolDesign(THREE, 500)
        pop = QuantumUnpolarized(WITNESS)
        base = format_dataset(run_protocol(pop, design, seed=9, workers=1))
        for workers in (4, 8):
            assert format_dataset(run_protocol(pop, design, seed=9, workers=workers)) == base

    def test_dataset_rebuilt_from_records_is_identical(self):
        design = ProtocolDesign(TWO, 200)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=12)
        rebuilt = ResponseDataset(records=data.records)
        assert rebuilt == data
        assert rebuilt != run_protocol(QuantumUnpolarized(WITNESS), design, seed=13)
        assert format_dataset(rebuilt) == format_dataset(data)
        assert (rebuilt.counts == data.counts).all()

    def test_same_seed_same_dataset(self):
        design = ProtocolDesign(TWO, 300)
        pop = ClassicalHiddenVariable(random_joint(np.random.default_rng(5)))
        d1 = run_protocol(pop, design, seed=11)
        d2 = run_protocol(pop, design, seed=11)
        assert d1.records == d2.records

    def test_quantum_frequencies_near_prediction(self):
        design = ProtocolDesign(THREE, 100_000)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=1)
        nu = estimate_frequencies(data).proportions()
        assert nu == pytest.approx((0.25, 0.25, 0.75), abs=0.005)

    def test_angle_draw_path_matches_fair_coin_path(self):
        # Same statistics from the two unpolarized implementations.
        design = ProtocolDesign(THREE, 50_000)
        coin = estimate_frequencies(
            run_protocol(QuantumUnpolarized(WITNESS), design, seed=2)
        ).proportions()
        drawn = estimate_frequencies(
            run_protocol(
                QuantumUnpolarized(WITNESS, draw_initial_angle=True), design, seed=3
            )
        ).proportions()
        for x, y in zip(coin, drawn):
            assert abs(x - y) < 0.01

    def test_classical_order_invariance(self):
        # Predetermined triples: swapping the question order within a branch
        # leaves the joint answer distribution unchanged. Compare BA-derived
        # counts of (b, a) sign pairs against the joint law itself.
        joint = random_joint(np.random.default_rng(8))
        design = ProtocolDesign(THREE, 50_000)
        data = run_protocol(ClassicalHiddenVariable(joint), design, seed=4)
        n = pairs = 0
        for rec in data:
            if rec.branch is Branch.BA:
                n += 1
                if rec.first_answer is PLUS and rec.second_answer is PLUS:
                    pairs += 1
        expected = joint.atom((1, 1, 1)) + joint.atom((1, 1, -1))
        assert abs(pairs / n - expected) < 0.01


class TestEstimateFrequencies:
    def test_hand_counted_example(self):
        # 4 respondents in BA: b answers (+, +, -, +); among the b = +1
        # answerers the a answers are (+, -, +), so nu(a|b+) = 2/3.
        records = [
            make_record("r0", Branch.BA, B, PLUS, A, PLUS),
            make_record("r1", Branch.BA, B, PLUS, A, MINUS),
            make_record("r2", Branch.BA, B, MINUS, A, MINUS),
            make_record("r3", Branch.BA, B, PLUS, A, PLUS),
            make_record("r4", Branch.BC, B, MINUS, C, PLUS),
            make_record("r5", Branch.CA, C, PLUS, A, MINUS),
        ]
        table = estimate_frequencies(ResponseDataset(records=tuple(records)))
        assert table.nu_a_given_b_plus == (2, 3)
        assert table.nu_c_given_b_minus == (1, 1)
        assert table.nu_a_given_c_plus == (0, 1)
        assert table.first_answer_counts[B] == (3, 5)

    def test_matches_record_loop(self):
        # Reference: count records one by one, as the estimator once did.
        data = run_protocol(
            ClassicalHiddenVariable(random_joint(np.random.default_rng(14))),
            ProtocolDesign(TWO, 500),
            seed=15,
        )
        pairs = {(B, PLUS, A): [0, 0], (B, MINUS, C): [0, 0], (C, PLUS, A): [0, 0]}
        first = {}
        for rec in data:
            fc = first.setdefault(rec.first_question, [0, 0])
            fc[0] += rec.first_answer is PLUS
            fc[1] += 1
            key = (rec.first_question, rec.first_answer, rec.second_question)
            if key in pairs:
                pairs[key][0] += rec.second_answer is PLUS
                pairs[key][1] += 1
        table = estimate_frequencies(data)
        assert [table.nu_a_given_b_plus, table.nu_c_given_b_minus,
                table.nu_a_given_c_plus] == [tuple(v) for v in pairs.values()]
        assert table.first_answer_counts == {q: tuple(v) for q, v in sorted(first.items())}

    def test_empty_conditioning_branch(self):
        records = [
            make_record("r0", Branch.BA, B, MINUS, A, PLUS),
            make_record("r1", Branch.BC, B, MINUS, C, PLUS),
            make_record("r2", Branch.CA, C, PLUS, A, PLUS),
        ]
        with pytest.raises(EmptyConditioningBranch):
            estimate_frequencies(ResponseDataset(records=tuple(records)))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            estimate_frequencies(ResponseDataset(records=()))


class TestCheckSymmetry:
    def test_unpolarized_population_passes(self):
        design = ProtocolDesign(THREE, 20_000)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=6)
        report = check_symmetry(data, tolerance=0.05)
        assert report.passed
        assert {e.question for e in report.entries} == {B, C}

    def test_deterministic_population_flagged(self):
        design = ProtocolDesign(THREE, 100)
        data = run_protocol(
            ClassicalHiddenVariable(JointDistribution3.point_mass((1, 1, 1))),
            design,
            seed=6,
        )
        report = check_symmetry(data, tolerance=0.05)
        assert not report.passed
        for entry in report.entries:
            assert entry.plus_fraction == 1.0
            assert entry.flagged

    def test_unasked_question_omitted(self):
        records = [make_record("r0", Branch.BA, B, PLUS, A, PLUS)]
        report = check_symmetry(ResponseDataset(records=tuple(records)), tolerance=0.05)
        assert [e.question for e in report.entries] == [B]


class TestPerfectCorrelation:
    def test_copy_sampler_passes(self):
        rng = np.random.default_rng(10)
        joint = random_joint(rng)
        pairs = sample_entangled_pairs(joint, 10_000, rng)
        assert check_perfect_correlation(pairs)

    def test_flipped_component_fails(self):
        pairs = [(((1, 1, 1)), ((1, -1, 1)))]
        assert not check_perfect_correlation(pairs)

    def test_empty_is_vacuously_true(self):
        assert check_perfect_correlation([])

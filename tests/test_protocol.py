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
    VariableIndex,
    check_perfect_correlation,
    check_symmetry,
    estimate_frequencies,
    random_joint,
    run_protocol,
    sample_entangled_pairs,
)
from belltest import protocol
from belltest.dataio import format_dataset
from belltest.probability import ATOMS
from belltest.protocol import CELL_FIELDS, CONSISTENT_CELLS
from belltest.qubit import TWO_PI, born
from belltest.streams import counter_uniforms, keyed_uniforms

A, B, C = VariableIndex.A, VariableIndex.B, VariableIndex.C
PLUS, MINUS = Outcome.PLUS, Outcome.MINUS

WITNESS = QuestionTriple.from_floats(0.0, 2 * math.pi / 3, math.pi / 3)
PERFECT = JointDistribution3.from_atoms({(1, 1, 1): 0.5, (-1, -1, -1): 0.5})
THREE = DesignVariant.THREE_ENSEMBLE
TWO = DesignVariant.TWO_ENSEMBLE


def dataset(*rows):
    """A dataset of responses given as (branch, q1, a1, q2, a2) tuples."""
    return ResponseDataset([CELL_FIELDS.index(row) for row in rows])


def fields(data):
    """Each response's (branch, q1, a1, q2, a2), in row order."""
    return [CELL_FIELDS[cell] for cell in data.cells.tolist()]


# Per design: its branches in file order, each with its agents per n_per_branch.
DESIGN_BRANCHES = {
    THREE: ((Branch.BA, 1), (Branch.BC, 1), (Branch.CA, 1)),
    TWO: ((Branch.S1, 2), (Branch.S2, 1)),
}
# Per branch: the first question, then the second after a "yes" and after a "no".
BRANCH_QUESTIONS = {
    Branch.BA: (B, A, A), Branch.BC: (B, C, C), Branch.CA: (C, A, A),
    Branch.S1: (B, A, C), Branch.S2: (C, A, A),
}
POPULATIONS = {
    "classical": ClassicalHiddenVariable(random_joint(np.random.default_rng(21))),
    "quantum": QuantumUnpolarized(WITNESS),
    "quantum-angle": QuantumUnpolarized(WITNESS, draw_initial_angle=True),
}


def reference_cells(pop, design, seed):
    """The survey simulated one branch at a time, straight from the model:
    branch code c draws from counter stream c + 1, slot 0 for the first
    answer, 1 for the second and 2 for the initial angle."""
    cells = []
    for branch, k in DESIGN_BRANCHES[design.variant]:
        index = np.arange(k * design.n_per_branch, dtype=np.uint64)
        stream = list(Branch).index(branch) + 1
        u_first, u_second, u_angle = (counter_uniforms(seed, stream, index, d) for d in range(3))
        first_q, after_yes, after_no = BRANCH_QUESTIONS[branch]
        if isinstance(pop, ClassicalHiddenVariable):
            cdf = np.cumsum(pop.joint.weights)
            signs = np.asarray(ATOMS)[np.searchsorted(cdf, u_first, side="right").clip(max=7)]
            first_plus = signs[:, first_q] > 0
            second_q = np.where(first_plus, after_yes, after_no)
            second_plus = signs[np.arange(len(index)), second_q] > 0
        else:
            q = pop.questions
            angles = np.array([q.a.phi, q.b.phi, q.c.phi])
            p_first = born(TWO_PI * u_angle, angles[first_q]) if pop.draw_initial_angle else 0.5
            first_plus = u_first < p_first
            second_q = np.where(first_plus, after_yes, after_no)
            state = np.where(first_plus, angles[first_q], angles[first_q] + np.pi)
            second_plus = u_second < born(state, angles[second_q])
        cells += [CELL_FIELDS.index((branch, first_q, PLUS if f else MINUS, VariableIndex(q2),
                                     PLUS if s else MINUS))
                  for f, q2, s in zip(first_plus, second_q, second_plus)]
    return np.array(cells, dtype=np.uint8)


class TestProtocolDesign:
    def test_rejects_variant_token(self):
        with pytest.raises(ValueError, match="DesignVariant"):
            ProtocolDesign("three", 10)

    def test_rejects_fractional_size(self):
        with pytest.raises(ValueError, match="int"):
            ProtocolDesign(THREE, 2.5)

    def test_rejects_empty_branches(self):
        with pytest.raises(ValueError, match="at least 1"):
            ProtocolDesign(TWO, 0)

    def test_rejects_bool_size(self):
        with pytest.raises(ValueError, match="int"):
            ProtocolDesign(THREE, True)


class TestSimulationKernel:
    """The blocked kernel against a per-branch reference and the public
    counter streams; blocks of 1, 7 and 64 agents cross branch boundaries."""

    @pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
    @pytest.mark.parametrize("variant", [THREE, TWO])
    @pytest.mark.parametrize("kind", sorted(POPULATIONS))
    def test_cells_do_not_depend_on_block_size(self, monkeypatch, block, variant, kind):
        design = ProtocolDesign(variant, 50)
        monkeypatch.setattr(protocol, "_BLOCK", block)
        for seed in (0, 2**64 - 1):
            data = run_protocol(POPULATIONS[kind], design, seed=seed)
            assert np.array_equal(data.cells, reference_cells(POPULATIONS[kind], design, seed))

    @pytest.mark.filterwarnings("error")  # the uint64 mixes must not overflow-warn
    @pytest.mark.parametrize("variant", [THREE, TWO])
    @pytest.mark.parametrize("kind", ["classical", "quantum-angle"])
    def test_kernel_uniforms_equal_counter_uniforms(self, monkeypatch, variant, kind):
        drawn = {}  # draw slot -> rows of uniforms, in call order

        def recording(keys, indices, draws):
            u = keyed_uniforms(keys, indices, draws)
            for slot, row in zip(np.ravel(draws).tolist(), u.reshape(-1, len(indices))):
                drawn.setdefault(slot, []).append(row)
            return u

        monkeypatch.setattr(protocol, "keyed_uniforms", recording)
        monkeypatch.setattr(protocol, "_BLOCK", 64)
        seed, design = 2**64 - 1, ProtocolDesign(variant, 50)
        run_protocol(POPULATIONS[kind], design, seed=seed)
        assert sorted(drawn) == ([0] if kind == "classical" else [0, 1, 2])
        for slot, rows in drawn.items():
            expected = [counter_uniforms(seed, list(Branch).index(branch) + 1,
                                         np.arange(k * 50, dtype=np.uint64), slot)
                        for branch, k in DESIGN_BRANCHES[variant]]
            assert np.array_equal(np.concatenate(rows), np.concatenate(expected))

    def test_consistent_cells_are_the_simulated_cells(self):
        seen = set()
        for variant in (THREE, TWO):
            seen.update(run_protocol(QuantumUnpolarized(WITNESS), ProtocolDesign(variant, 500),
                                     seed=5).cells.tolist())
        assert seen == CONSISTENT_CELLS


class TestRejectsBadArguments:
    """Invalid sizes, seeds and worker counts fail before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args):
            raise AssertionError("drew before validating")
        monkeypatch.setattr(protocol, "stream_keys", draw)
        monkeypatch.setattr(protocol, "keyed_uniforms", draw)

    @pytest.mark.parametrize("seed", [1.5, True, "1", -1, 2**64])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            run_protocol(QuantumUnpolarized(WITNESS), ProtocolDesign(THREE, 10), seed=seed)

    @pytest.mark.parametrize("workers", [1.5, True, "2", 0])
    def test_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers must be an int"):
            run_protocol(QuantumUnpolarized(WITNESS), ProtocolDesign(THREE, 10), seed=1,
                         workers=workers)


class TestRunProtocol:
    def test_three_ensemble_branch_structure(self):
        design = ProtocolDesign(THREE, 10)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=0)
        assert len(data) == 30
        by_branch = {}
        for branch, q1, _, q2, _ in fields(data):
            by_branch.setdefault(branch, set()).add((q1, q2))
        assert by_branch == {Branch.BA: {(B, A)}, Branch.BC: {(B, C)}, Branch.CA: {(C, A)}}

    def test_two_ensemble_routing(self):
        design = ProtocolDesign(TWO, 50)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=0)
        assert len(data) == 150
        for branch, q1, a1, q2, _ in fields(data):
            if branch is Branch.S1:
                assert q1 is B
                assert q2 is (A if a1 is PLUS else C)
            else:
                assert branch is Branch.S2
                assert (q1, q2) == (C, A)
        per_branch = dict(zip(Branch, data.counts.sum(axis=(1, 2, 3, 4)).tolist()))
        assert (per_branch[Branch.S1], per_branch[Branch.S2]) == (100, 50)

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

    def test_dataset_rebuilt_with_explicit_ids_is_identical(self):
        design = ProtocolDesign(TWO, 200)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=12)
        rebuilt = ResponseDataset(data.cells, data.respondent_ids)
        assert data.implicit_ids and not rebuilt.implicit_ids
        assert format_dataset(rebuilt) == format_dataset(data)
        assert (rebuilt.counts == data.counts).all()
        other = run_protocol(QuantumUnpolarized(WITNESS), design, seed=13)
        assert not np.array_equal(other.cells, data.cells)

    def test_numpy_integer_arguments_accepted(self):
        pop, design = QuantumUnpolarized(WITNESS), ProtocolDesign(TWO, 40)
        data = run_protocol(pop, ProtocolDesign(TWO, np.int64(40)), seed=np.uint64(9),
                            workers=np.int32(2))
        assert np.array_equal(data.cells, run_protocol(pop, design, seed=9).cells)

    def test_same_seed_same_dataset(self):
        design = ProtocolDesign(TWO, 300)
        pop = ClassicalHiddenVariable(random_joint(np.random.default_rng(5)))
        d1 = run_protocol(pop, design, seed=11)
        d2 = run_protocol(pop, design, seed=11)
        assert np.array_equal(d1.cells, d2.cells)
        assert d1.respondent_ids == d2.respondent_ids

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
        for branch, _, a1, _, a2 in fields(data):
            if branch is Branch.BA:
                n += 1
                if a1 is PLUS and a2 is PLUS:
                    pairs += 1
        expected = joint.atom((1, 1, 1)) + joint.atom((1, 1, -1))
        assert abs(pairs / n - expected) < 0.01


class TestEstimateFrequencies:
    def test_hand_counted_example(self):
        # 4 respondents in BA: b answers (+, +, -, +); among the b = +1
        # answerers the a answers are (+, -, +), so nu(a|b+) = 2/3.
        data = dataset(
            (Branch.BA, B, PLUS, A, PLUS),
            (Branch.BA, B, PLUS, A, MINUS),
            (Branch.BA, B, MINUS, A, MINUS),
            (Branch.BA, B, PLUS, A, PLUS),
            (Branch.BC, B, MINUS, C, PLUS),
            (Branch.CA, C, PLUS, A, MINUS),
        )
        table = estimate_frequencies(data)
        assert table.nu_a_given_b_plus == (2, 3)
        assert table.nu_c_given_b_minus == (1, 1)
        assert table.nu_a_given_c_plus == (0, 1)
        entries = check_symmetry(data, tolerance=0.05).entries
        assert [(e.question, e.plus_fraction, e.n_first_asked) for e in entries] == [
            (B, 3 / 5, 5), (C, 1.0, 1)]

    def test_matches_record_loop(self):
        # Reference: count records one by one, as the estimator once did.
        data = run_protocol(
            ClassicalHiddenVariable(random_joint(np.random.default_rng(14))),
            ProtocolDesign(TWO, 500),
            seed=15,
        )
        pairs = {(B, PLUS, A): [0, 0], (B, MINUS, C): [0, 0], (C, PLUS, A): [0, 0]}
        first = {}
        for _, q1, a1, q2, a2 in fields(data):
            fc = first.setdefault(q1, [0, 0])
            fc[0] += a1 is PLUS
            fc[1] += 1
            if (q1, a1, q2) in pairs:
                pairs[q1, a1, q2][0] += a2 is PLUS
                pairs[q1, a1, q2][1] += 1
        table = estimate_frequencies(data)
        assert [table.nu_a_given_b_plus, table.nu_c_given_b_minus,
                table.nu_a_given_c_plus] == [tuple(v) for v in pairs.values()]
        entries = check_symmetry(data, tolerance=0.05).entries
        assert [(e.question, e.plus_fraction, e.n_first_asked) for e in entries] == [
            (q, plus / n, n) for q, (plus, n) in sorted(first.items())]

    def test_empty_conditioning_branch(self):
        data = dataset(
            (Branch.BA, B, MINUS, A, PLUS),
            (Branch.BC, B, MINUS, C, PLUS),
            (Branch.CA, C, PLUS, A, PLUS),
        )
        with pytest.raises(EmptyConditioningBranch):
            estimate_frequencies(data)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="dataset is empty"):
            estimate_frequencies(ResponseDataset([]))
        with pytest.raises(ValueError, match="dataset is empty"):
            check_symmetry(ResponseDataset([]), tolerance=0.05)


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
        report = check_symmetry(dataset((Branch.BA, B, PLUS, A, PLUS)), tolerance=0.05)
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

import hashlib
import math
import re
from itertools import product

import numpy as np
import pytest

from belltest import (
    Branch,
    ClassicalHiddenVariable,
    DesignVariant,
    EmptyConditioningBranch,
    FrequencyTable,
    JointDistribution3,
    Outcome,
    ProtocolDesign,
    QuantumUnpolarized,
    QuestionTriple,
    ResponseDataset,
    VariableIndex,
    check_symmetry,
    estimate_frequencies,
    predicted_conditional_triple,
    random_joint,
    run_protocol,
    violation_test,
)
from belltest import protocol, streams
from belltest.probability import ATOMS, atom_index, event_probability
from belltest.protocol import CELL_FIELDS
from belltest.qubit import born, born_after_no, predicted_conditionals
from belltest.streams import _mix, counter_uniforms, keyed_bits, stream_keys

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
}


def reference_cells(pop, design, seed, uniforms=counter_uniforms):
    """The survey simulated one branch at a time, straight from the model:
    branch code c draws from counter stream c + 1, slot 0 for the first
    answer and 1 for the second, through ``uniforms(seed, stream, index, slot)``."""
    cells = []
    for branch, k in DESIGN_BRANCHES[design.variant]:
        index = np.arange(k * design.n_per_branch, dtype=np.uint64)
        stream = list(Branch).index(branch) + 1
        u_first, u_second = (uniforms(seed, stream, index, d) for d in range(2))
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
            first_plus = u_first < 0.5  # unpolarized: a fair first answer
            second_q = np.where(first_plus, after_yes, after_no)
            pair = angles[first_q], angles[second_q]
            second_plus = u_second < np.where(first_plus, born(*pair), born_after_no(*pair))
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
    @pytest.mark.parametrize("kind", sorted(POPULATIONS))
    def test_kernel_uniforms_equal_counter_uniforms(self, monkeypatch, variant, kind):
        drawn = {}  # draw slot -> rows of uniforms, in call order

        def recording(keys, words):
            bits = keyed_bits(keys, words)
            for slot, row in enumerate(bits.reshape(-1, len(keys))):  # row k: the words of slot k
                drawn.setdefault(slot, []).append(row * 2.0**-53)
            return bits

        monkeypatch.setattr(streams, "keyed_bits", recording)
        monkeypatch.setattr(protocol, "_BLOCK", 64)
        seed, design = 2**64 - 1, ProtocolDesign(variant, 50)
        run_protocol(POPULATIONS[kind], design, seed=seed)
        monkeypatch.undo()  # counter_uniforms below must not record its own draws
        assert sorted(drawn) == ([0] if kind == "classical" else [0, 1])
        for slot, rows in drawn.items():
            expected = [counter_uniforms(seed, list(Branch).index(branch) + 1,
                                         np.arange(k * 50, dtype=np.uint64), slot)
                        for branch, k in DESIGN_BRANCHES[variant]]
            assert np.array_equal(np.concatenate(rows), np.concatenate(expected))

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_stream_keys_equal_the_array_mixer(self, seed):
        streams = np.arange(1, 6, dtype=np.uint64)
        expected = _mix(_mix(np.array([seed], dtype=np.uint64)) ^ streams)
        for given in (seed, np.uint64(seed)):
            keys = stream_keys(given, streams)
            assert keys.dtype == np.uint64
            assert np.array_equal(keys, expected)

    def test_route_weights_equal_predicted_conditionals(self):
        # The routes that estimate p(a|b+), p(c|b-) and p(a|c+), as (branch, first answer).
        routes = (((Branch.BA, PLUS), (Branch.S1, PLUS)), ((Branch.BC, MINUS), (Branch.S1, MINUS)),
                  ((Branch.CA, PLUS), (Branch.S2, PLUS)))
        rng = np.random.default_rng(25)
        triples = [WITNESS] + [QuestionTriple.from_floats(*angles)
                               for angles in rng.uniform(0.0, 2 * math.pi, (200, 3))]
        # On arrays, as the kernel computes its weights.
        angles = np.array([[q.a.phi, q.b.phi, q.c.phi] for q in triples])
        predicted = np.transpose(predicted_conditionals(*angles.T))
        for q, conditionals in zip(triples, predicted.tolist()):
            second_yes = QuantumUnpolarized(q)._second_yes.tolist()
            for p, pair in zip(conditionals, routes):
                for branch, answer in pair:
                    route = 2 * list(Branch).index(branch) + (answer is MINUS)
                    assert second_yes[route] == p, (q, branch, answer)

    def test_atom_cells_carry_the_event_probabilities(self):
        # Per branch, the atoms sent to each consistent cell (q1, a1, q2, a2)
        # are those where q1 reads a1 and q2 reads a2.
        rng = np.random.default_rng(26)
        for _ in range(50):
            joint = random_joint(rng)
            for code, branch in enumerate(Branch):
                sent = {}
                for k, w in enumerate(joint.weights):
                    sent.setdefault(protocol._ATOM_CELL[8 * code + k], []).append(w)
                cells = [cell for cell, fields in enumerate(CELL_FIELDS) if fields[0] is branch]
                assert set(sent) <= set(cells)
                for cell in cells:
                    _, q1, a1, q2, a2 = CELL_FIELDS[cell]
                    expected = event_probability(joint, (q1, a1), (q2, a2))
                    assert math.fsum(sent.get(cell, [])) == expected, (branch, cell)

    def test_consistent_cells_are_the_simulated_cells(self):
        # Every cell code is a response that some branch produces.
        seen = set()
        for variant in (THREE, TWO):
            seen.update(run_protocol(QuantumUnpolarized(WITNESS), ProtocolDesign(variant, 500),
                                     seed=5).cells.tolist())
        assert seen == set(range(len(CELL_FIELDS)))

    @pytest.mark.parametrize("variant", [THREE, TWO])
    @pytest.mark.parametrize("kind", sorted(POPULATIONS))
    def test_dataset_holds_the_kernels_own_uint8_array(self, monkeypatch, variant, kind):
        # A one-block survey's cells reach the dataset as the kernel returned
        # them: uint8 arithmetic throughout (on numpy 1.x too), so no cast copy.
        returned = []

        def recording(*args):
            returned.append(simulate(*args))
            return returned[-1]

        simulate = protocol._simulate_block
        monkeypatch.setattr(protocol, "_simulate_block", recording)
        data = run_protocol(POPULATIONS[kind], ProtocolDesign(variant, 50), seed=1)
        assert len(returned) == 1 and returned[0].dtype == np.uint8
        assert data._cells is returned[0]


class TestBlockLayoutCache:
    """``run_protocol`` caches the last block's branch codes and within-branch
    indices, which depend on the design's sizes and the block's bounds only."""

    def test_alternating_calls_never_reuse_a_stale_layout(self, monkeypatch):
        designs = [ProtocolDesign(THREE, 50), ProtocolDesign(TWO, 50), ProtocolDesign(THREE, 51)]
        calls = list(product([1, 7, 64, 1 << 16], designs, sorted(POPULATIONS), [0, 2**64 - 1]))
        order = np.random.default_rng(27).permutation(2 * len(calls)) % len(calls)
        for block, design, kind, seed in (calls[i] for i in order.tolist()):
            monkeypatch.setattr(protocol, "_BLOCK", block)
            data = run_protocol(POPULATIONS[kind], design, seed=seed)
            assert np.array_equal(data.cells, reference_cells(POPULATIONS[kind], design, seed)), (
                block, design, kind, seed)

    def test_cached_arrays_are_read_only(self):
        run_protocol(POPULATIONS["quantum"], ProtocolDesign(THREE, 50), seed=1)
        hits = protocol._block_layout.cache_info().hits
        layout = protocol._block_layout((50, 50, 50, 0, 0), 0, 150)
        assert protocol._block_layout.cache_info().hits == hits + 1  # the run's own arrays
        for array in layout:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_a_large_survey_keeps_one_block_at_most(self):
        data = run_protocol(POPULATIONS["classical"], ProtocolDesign(THREE, 200_000), seed=3)
        assert len(data) == 600_000 > protocol._BLOCK
        assert protocol._block_layout.cache_info().currsize <= 1


# Laws whose CDF has plateaus (zero-weight atoms, the first among them) and ends
# at 1.0, and whose CDF values are all multiples of 2**-53, beside the witness.
THRESHOLD_POPULATIONS = {
    "plateaus": ClassicalHiddenVariable(JointDistribution3((0, 0.3, 0.2, 0, 0.1, 0.4, 0, 0))),
    "dyadic": ClassicalHiddenVariable(JointDistribution3(
        (0.125, 0.25, 0.0625, 0.0625, 0.125, 0.25, 0.0625, 0.0625))),
    "quantum": QuantumUnpolarized(WITNESS),
}


class TestIntegerThresholds:
    """The kernel compares each 53-bit draw with ``streams.thresholds(p)``, which
    must decide exactly as the uniform rule ``bits * 2**-53 >= p``."""

    def test_thresholds_decide_as_the_float_rule(self):
        rng = np.random.default_rng(28)
        p = np.concatenate([rng.random(2000) ** 2, rng.random(2000) * 1e-9,  # not on 2**-53's grid
                            rng.integers(0, 2**53, 2000) * 2.0**-53,
                            [0.0, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0]])
        thresholds = streams.thresholds(p)
        assert thresholds.dtype == np.uint64
        assert (thresholds.astype(float) * 2.0**-53 != p).sum() > 3000  # most p round up
        for offset in (-1, 0, 1):
            bits = thresholds.astype(np.int64) + offset
            drawn = (bits >= 0) & (bits < 2**53)  # every draw is in [0, 2**53)
            bits = bits[drawn].astype(np.uint64)
            assert np.array_equal(bits >= thresholds[drawn],
                                  bits.astype(float) * 2.0**-53 >= p[drawn]), offset

    @pytest.mark.parametrize("variant", [THREE, TWO])
    @pytest.mark.parametrize("kind", ["plateaus", "dyadic"])
    def test_counter_draws_match_the_reference(self, variant, kind):
        pop, design = THRESHOLD_POPULATIONS[kind], ProtocolDesign(variant, 500)
        assert np.cumsum(pop.joint.weights)[-1] == 1.0
        for seed in (0, 2**64 - 1):
            assert np.array_equal(run_protocol(pop, design, seed).cells,
                                  reference_cells(pop, design, seed))

    @pytest.mark.parametrize("variant", [THREE, TWO])
    @pytest.mark.parametrize("kind", sorted(THRESHOLD_POPULATIONS))
    def test_draws_next_to_each_threshold_match_the_reference(self, monkeypatch, variant, kind):
        pop = THRESHOLD_POPULATIONS[kind]
        if kind == "quantum":  # every Born weight a route can use, and the fair coin
            angles = np.array([[q.phi for q in WITNESS]])
            p = np.concatenate([born(angles, angles.T), born_after_no(angles, angles.T), [[0.5]]],
                               axis=None)
        else:
            p = np.cumsum(pop.joint.weights)
        near = np.add.outer(streams.thresholds(p).astype(np.int64), [-1, 0, 1])
        candidates = np.unique(near.clip(0, 2**53 - 1)).astype(np.uint64)

        def crafted(keys, words):  # each draw a candidate, picked by its true draw
            picks = keyed_bits(keys, words) % np.uint64(len(candidates))
            return candidates.take(picks.astype(np.intp))

        def uniforms(seed, stream, index, slot):
            keys = stream_keys(seed, np.array([stream], dtype=np.uint64))
            return crafted(keys, streams.counter_words(index, np.uint64(slot))) * 2.0**-53

        design = ProtocolDesign(variant, 500)
        monkeypatch.setattr(streams, "keyed_bits", crafted)
        cells = run_protocol(pop, design, seed=3).cells
        monkeypatch.undo()
        assert np.array_equal(cells, reference_cells(pop, design, 3, uniforms))


MAX_SEED = 2**64 - 1
# The replicate benchmark's populations: the witness agents and an interior
# symmetric classical law (every atom > 0, margin +0.1).
SURVEY_POPULATIONS = {
    "quantum": lambda: QuantumUnpolarized(WITNESS),
    "classical": lambda: ClassicalHiddenVariable(
        JointDistribution3((0.2, 0.025, 0.1, 0.175, 0.175, 0.1, 0.025, 0.2))),
}
SMALL_SURVEY_SEEDS = (0, 12345, MAX_SEED)
# Per (population, design, n per branch): the SHA-256 of the simulated cells
# at each of SMALL_SURVEY_SEEDS, each cell written as the index of its fields in
# the full product below, as cells were once numbered.  test_golden.py pins the
# CLI at n = 2 000 only.
ALL_FIELDS = list(product(Branch, VariableIndex, (PLUS, MINUS), VariableIndex, (PLUS, MINUS)))
PRODUCT_INDEX = np.array([ALL_FIELDS.index(fields) for fields in CELL_FIELDS], np.uint8)
SMALL_SURVEY_DIGESTS = {
    ("quantum", THREE, 1): (
        "4c7dcd56b395285e377a3d90addb118e8d574b4656511c1a45f2f50db18c1e25",
        "7fcc010227c8c5faf4777802b0119dd981ef463ac950df8837f3a332be3dc135",
        "7574bf11650b56c42a903d2fab18c1ba269edadc9259647a541f944d069dab6a",
    ),
    ("quantum", THREE, 7): (
        "ae9064bc0c585d890b28bb76fb9f00c9c101c242b816c18cc505679a75f6333d",
        "e1331d4366fe9c049bca5ffc50edbdf7d9c5eadb3d4f29474164465bf42d626e",
        "8855ddb9eff6e16ae61fa5f30989d5a7f2bf2fa44db5d33ef1eb4f59d3bc6a58",
    ),
    ("quantum", THREE, 50): (
        "793bbb16d4d8dc4ab536a9b3915295d0735d587f5474c7d9e76dd3f0f028f640",
        "25a66e315e159c4a9c3c2fecf14be586968b45c53b891a52143fc8b005185d43",
        "e86498af79e0e6dca72fb872ffee0e2887883e04102e7e72433939250219ef51",
    ),
    ("quantum", TWO, 1): (
        "8fd12cb53268496b719f569e18d576ae2b1a682ca1790283f360c62d71ca0c7d",
        "90fc38164d166f647a5eeb43b8c27a0f88164cf366bd57fe6383341238bbf036",
        "866256f0c58700a0d4c0b558830c6b185ed22b89f9d12b93a067e42ae233972b",
    ),
    ("quantum", TWO, 7): (
        "a5a7b136d76e106e843331a5fbb16174c6e7cc3e9e50842d3c676deeb21e9b96",
        "c673af58ed1bc55fd6367e9ea1f8ed3db5d9802b3e4a66077b4e558bc5207c51",
        "c1a41da05e93fb9b9fe9ecde56291d08277ba7911d6e5094d13453cca29b2dbe",
    ),
    ("quantum", TWO, 50): (
        "7ce041abdf0299f488a84e53e9cee0395b94a53a4b4abc378796d53ea3a0db03",
        "8cb982c22a93301aaa27de9734a4da70e6a97850e6071d83e527a1e956f5cad4",
        "26533ce4b0ac6460cb53483c0a97baf30d06a4156982d00fc888e419c6209d18",
    ),
    ("classical", THREE, 1): (
        "d76169d65b7b3935c1f8df0c8115271078d617097282b882fba8785fdf06b7ea",
        "960eec2daa1be6f147c80c566b35959ef5a990c276de4c04e1bbff6dcf03d1d1",
        "27237ec6fef25fc98d74c972a3bf1eac939369581715fb542b8aca09bb939e0f",
    ),
    ("classical", THREE, 7): (
        "4aa749038b15f4203bcf424dd2b3686ac9cd6e1aa29a32e31363db1451233c1c",
        "7f396a5339fb875dfcdfc41b794051ea4c40ae523e3b914417b7086cc44751e5",
        "b64edef3a3692cc2f307198729e56e5163afc211e685072374b04a862bbbe632",
    ),
    ("classical", THREE, 50): (
        "19bd479d471d201ab63d48fe2893e7c8c05d4874e673f4c05d8e1024bc9fa014",
        "f132457b633a0794ebc29cc85ea17fed40bf177964601e13323dc16602848064",
        "8ae672dcfcdaae71bf7ecb45cb4cc4167c351f228fb2dd1ee2314c0fcf848002",
    ),
    ("classical", TWO, 1): (
        "28a68146c1e3e28dc6b10d1f7fb0f705cbfa3846318e74bbf1518598b9a18273",
        "47ca3c91c94e5487c954d1300819f681899dc82f5852c3a045e94d9e4a29522e",
        "e7910f77562715cdd1f004e256ee9248f44c5f49206d0e57ed9c10dc7a19fe39",
    ),
    ("classical", TWO, 7): (
        "16559c4058e6e4dc3466658eeedc680f17f93221db7b26c3542ff17bf6453d82",
        "638bf3d1b00f26063462d7221029b8d3f354a0075a43daff115db1fafe316fc4",
        "7d6926eaaf6bc7ece9770d7c3b500c666ec1724d98b752adeef5718ac1c1eb03",
    ),
    ("classical", TWO, 50): (
        "761d74feef93ded4ce14813e83c87ad69b3c7ea793c16c1008142ef80dab9759",
        "3ea9d8a43025f4cf4d9efab6f32738548741536f56dbd2fce68a83c0fb840207",
        "8b149381cd62a8dd7a6320834dc11180a4f5d58d5ce40911d5d0ba92bd593293",
    ),
}


class TestSmallSurveys:
    """Small surveys keep their bits, and a population object reused across
    calls simulates exactly as a fresh, equal one."""

    @pytest.mark.parametrize("kind, variant, n", list(SMALL_SURVEY_DIGESTS))
    def test_cells_match_digests(self, kind, variant, n):
        digests = tuple(
            hashlib.sha256(PRODUCT_INDEX.take(run_protocol(
                SURVEY_POPULATIONS[kind](), ProtocolDesign(variant, n), seed).cells).tobytes()
            ).hexdigest()
            for seed in SMALL_SURVEY_SEEDS)
        assert digests == SMALL_SURVEY_DIGESTS[kind, variant, n]

    @pytest.mark.parametrize("kind, variant, seed, expected", [
        ("quantum", THREE, 12345, (
            -0.3272268907563025, 0.14388663914078606, -2.274199277363946,
            0.011477003842164116, True,
            ((0.11496313693401444, 0.4342968335542908), (0.13813862952122136, 0.4995638071608559),
             (0.6987194350454784, 0.9355055855521754)))),
        ("quantum", TWO, MAX_SEED, (
            -0.2775974025974026, 0.12252483974659766, -2.2656418337009994,
            0.011736660772222466, True,
            ((0.16957305418501722, 0.3959455592915515), (0.11153253070081295, 0.3450057806110165),
             (0.55100555994846, 0.8800063377140499)))),
        ("classical", THREE, 0, (
            -0.05210350290441823, 0.1650083798845803, -0.3157627687809763,
            0.3760912897626616, False,
            ((0.15364379087792282, 0.5398959232467252), (0.061500337235783575, 0.33531199328213473),
             (0.32962737336427417, 0.7076284258335334)))),
        ("classical", TWO, 12345, (
            0.39999999999999997, 0.1341640786499874, 2.981423969999719,
            0.9985654436039617, False,
            ((0.48150446930992985, 0.741372106898064), (0.1275391597021442, 0.3524154958125367),
             (0.26665638881067355, 0.6293266813020123)))),
    ])
    def test_violation_test_fields_at_fifty_per_branch(self, kind, variant, seed, expected):
        data = run_protocol(SURVEY_POPULATIONS[kind](), ProtocolDesign(variant, 50), seed)
        result = violation_test(estimate_frequencies(data), alpha=0.05)
        assert (result.margin_estimate, result.standard_error, result.z_statistic,
                result.p_value, result.significant_violation, result.term_intervals) == expected

    @pytest.mark.parametrize("kind", sorted(SURVEY_POPULATIONS))
    def test_reused_population_equals_fresh_one(self, kind):
        make = SURVEY_POPULATIONS[kind]
        shared = make()
        for variant, n, seed in product((THREE, TWO, THREE), (1, 7, 50), (0, MAX_SEED)):
            design = ProtocolDesign(variant, n)
            assert np.array_equal(run_protocol(shared, design, seed).cells,
                                  run_protocol(make(), design, seed).cells)
        # Tables computed on first use stay out of equality, hashing and repr.
        assert shared == make() and hash(shared) == hash(make()) and repr(shared) == repr(make())


class TestRejectsBadArguments:
    """Invalid sizes, seeds and worker counts fail before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def draw(*args):
            raise AssertionError("drew before validating")
        monkeypatch.setattr(streams, "stream_keys", draw)
        monkeypatch.setattr(streams, "keyed_bits", draw)

    @pytest.mark.parametrize("seed", [1.5, True, "1", -1, 2**64])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            run_protocol(QuantumUnpolarized(WITNESS), ProtocolDesign(THREE, 10), seed=seed)

    @pytest.mark.parametrize("pop", [JointDistribution3.uniform(), WITNESS, None],
                             ids=["joint", "questions", "none"])
    def test_bad_population(self, pop):
        with pytest.raises(ValueError, match="population must be a ClassicalHiddenVariable"
                                             " or QuantumUnpolarized, got "):
            run_protocol(pop, ProtocolDesign(THREE, 10), seed=1)

    def test_bad_design(self):
        with pytest.raises(ValueError, match="design must be a ProtocolDesign, got 'three'"):
            run_protocol(QuantumUnpolarized(WITNESS), "three", seed=1)

    def test_population_fields_checked(self):
        with pytest.raises(ValueError, match="questions must be a QuestionTriple"):
            QuantumUnpolarized((0.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="joint must be a JointDistribution3"):
            ClassicalHiddenVariable(WITNESS)


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
        per_branch = dict(zip(Branch, data.counts.sum(axis=(1, 2)).tolist()))
        assert (per_branch[Branch.S1], per_branch[Branch.S2]) == (100, 50)

    def test_deterministic_agents_give_exact_frequencies(self):
        design = ProtocolDesign(THREE, 200)
        data = run_protocol(ClassicalHiddenVariable(PERFECT), design, seed=7)
        table = estimate_frequencies(data)
        # b = -1 agents are the all-minus ones, so their c answer is -1.
        assert table.proportions() == (1.0, 0.0, 1.0)

    def test_different_seed_different_dataset(self):
        design = ProtocolDesign(TWO, 200)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=12)
        other = run_protocol(QuantumUnpolarized(WITNESS), design, seed=13)
        assert not np.array_equal(other.cells, data.cells)

    def test_numpy_integer_arguments_accepted(self):
        pop, design = QuantumUnpolarized(WITNESS), ProtocolDesign(TWO, 40)
        data = run_protocol(pop, ProtocolDesign(TWO, np.int64(40)), seed=np.uint64(9))
        assert np.array_equal(data.cells, run_protocol(pop, design, seed=9).cells)

    def test_same_seed_same_dataset(self):
        design = ProtocolDesign(TWO, 300)
        pop = ClassicalHiddenVariable(random_joint(np.random.default_rng(5)))
        d1 = run_protocol(pop, design, seed=11)
        d2 = run_protocol(pop, design, seed=11)
        assert np.array_equal(d1.cells, d2.cells)

    def test_quantum_frequencies_near_prediction(self):
        design = ProtocolDesign(THREE, 100_000)
        data = run_protocol(QuantumUnpolarized(WITNESS), design, seed=1)
        nu = estimate_frequencies(data).proportions()
        assert nu == pytest.approx((0.25, 0.25, 0.75), abs=0.005)

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
        expected = joint.weights[atom_index((1, 1, 1))] + joint.weights[atom_index((1, 1, -1))]
        assert abs(pairs / n - expected) < 0.01


def answer_pairs(data, q1, q2):
    """Counts of (first answer, second answer) codes over every branch and
    first answer after which q1 then q2 are asked, as a 2x2 array; code 0 is
    "yes" and 1 is "no"."""
    pairs = np.zeros((2, 2), np.int64)
    for code, branch in enumerate(Branch):
        first, *seconds = BRANCH_QUESTIONS[branch]
        for a1, second in enumerate(seconds):
            if (first, second) == (q1, q2):
                pairs[a1] += data.counts[code, a1]
    return pairs


class TestCollapse:
    """The unpolarized collapse model as the kernel simulates it: a fair first
    answer, then a second answer drawn by the Born rule from the eigenstate of
    the first."""

    @pytest.mark.parametrize("variant", [THREE, TWO])
    def test_repeated_question_repeats_the_answer(self, variant):
        # All three questions at one angle: the first answer leaves the state
        # on that answer's eigenstate, so every second answer repeats it.
        pop = QuantumUnpolarized(QuestionTriple.from_floats(1.1, 1.1, 1.1))
        counts = run_protocol(pop, ProtocolDesign(variant, 2_000), seed=0).counts
        assert counts[:, 0, 1].sum() == counts[:, 1, 0].sum() == 0
        assert counts[:, 0, 0].sum() > 0 and counts[:, 1, 1].sum() > 0

    @pytest.mark.parametrize("variant", [THREE, TWO])
    def test_opposite_question_flips_the_answer(self, variant):
        # a sits at b + pi: after a "yes" to b the state is a's "no" eigenstate.
        pop = QuantumUnpolarized(QuestionTriple.from_floats(1.1 + math.pi, 1.1, 2.0))
        pairs = answer_pairs(run_protocol(pop, ProtocolDesign(variant, 2_000), seed=1), B, A)
        assert pairs[0, 0] == pairs[1, 1] == 0
        assert pairs[0, 1] > 0

    @pytest.mark.parametrize("variant", [THREE, TWO])
    def test_first_answer_fair_in_every_branch(self, variant):
        # Questions far from the witness, so no angle makes 1/2 a coincidence.
        pop = QuantumUnpolarized(QuestionTriple.from_floats(0.3, 2.9, 4.4))
        data = run_protocol(pop, ProtocolDesign(variant, 50_000), seed=2)
        by_branch = data.counts.sum(axis=2)  # (branch, first answer)
        asked = by_branch.sum(axis=1) > 0
        assert asked.sum() == (3 if variant is THREE else 2)
        plus = by_branch[asked, 0] / by_branch[asked].sum(axis=1)
        assert plus == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("gap", [math.pi / 3, math.pi / 2, 2 * math.pi / 3])
    def test_unpolarized_is_order_symmetric(self, gap):
        # a and b at x, c at x + gap: BC asks x then x + gap and CA the
        # reverse.  Both orders have the joint law 1/2 * born(x, x + gap) for
        # equal answers and 1/2 * (1 - born) for unequal ones.
        x = 0.4
        pop = QuantumUnpolarized(QuestionTriple.from_floats(x, x, x + gap))
        data = run_protocol(pop, ProtocolDesign(THREE, 100_000), seed=3)
        p = born(x, x + gap)
        expected = 0.5 * np.array([[p, 1 - p], [1 - p, p]])
        for q1, q2 in ((B, C), (C, A)):
            pairs = answer_pairs(data, q1, q2)
            assert pairs / pairs.sum() == pytest.approx(expected, abs=0.01)

    @pytest.mark.parametrize("angles", [(0.0, 2 * math.pi / 3, math.pi / 2), (0.3, 2.9, 4.4)],
                             ids=["intermediate", "generic"])
    @pytest.mark.parametrize("variant", [THREE, TWO])
    def test_conditional_matches_prediction(self, variant, angles):
        questions = QuestionTriple.from_floats(*angles)
        data = run_protocol(QuantumUnpolarized(questions), ProtocolDesign(variant, 100_000),
                            seed=4)
        nu = estimate_frequencies(data).proportions()
        assert nu == pytest.approx(tuple(predicted_conditional_triple(questions)), abs=0.01)


class TestFrequencyTable:
    @pytest.mark.parametrize("bad", [(0, 0), (3, 2), (-1, 2)])
    def test_rejects_invalid_counts(self, bad):
        with pytest.raises(ValueError, match=rf"invalid counts \({bad[0]}, {bad[1]}\)"):
            FrequencyTable(bad, (1, 2), (1, 2))

    @pytest.mark.parametrize("bad", [(True, 2), (1, True), (1.5, 3), (1, 4.0),
                                     (np.float64(1), 2), (np.bool_(True), 2)])
    def test_rejects_counts_that_are_not_integers(self, bad):
        # A bool or a fractional count would otherwise reach the test as a ratio.
        with pytest.raises(ValueError, match=re.escape(f"invalid counts ({bad[0]}, {bad[1]})")):
            FrequencyTable(bad, (1, 2), (1, 2))

    def test_accepts_numpy_integers(self):
        table = FrequencyTable((np.int64(1), np.int64(2)), (np.uint8(1), 3), (1, np.int32(4)))
        assert table.proportions() == (0.5, 1 / 3, 0.25)


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

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0])
    def test_rejects_bad_tolerance(self, tolerance):
        data = dataset((Branch.BA, B, PLUS, A, PLUS))
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            check_symmetry(data, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [True, False, np.True_])
    def test_rejects_bool_tolerance(self, tolerance):
        data = dataset((Branch.BA, B, PLUS, A, PLUS))
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            check_symmetry(data, tolerance=tolerance)

    def test_zero_tolerance_flags_any_departure(self):
        data = dataset((Branch.BA, B, PLUS, A, PLUS), (Branch.BA, B, MINUS, A, PLUS),
                       (Branch.CA, C, PLUS, A, PLUS))
        report = check_symmetry(data, tolerance=0.0)
        assert report.tolerance == 0.0
        assert [(e.question, e.flagged) for e in report.entries] == [(B, False), (C, True)]
        assert check_symmetry(data) == check_symmetry(data, tolerance=0.05)


class TestCountTable:
    """The flat count table against numpy axis sums over an independent
    ``np.bincount``, and the constructor's refusal of codes outside [0, 20)."""

    CONSISTENT = (
        (Branch.BA, B, PLUS, A, MINUS),
        (Branch.BC, B, MINUS, C, PLUS),
        (Branch.CA, C, PLUS, A, PLUS),
    )

    def test_cell_of_no_branch_is_rejected(self):
        assert estimate_frequencies(dataset(*self.CONSISTENT)).nu_a_given_b_plus == (0, 1)
        # Cell 4 * branch + 2 * a1 + a2 holds the questions its branch asks
        # after a1, so a row that no branch's question order produces, such as
        # a CA row that asks b first, has no cell.
        assert list(CELL_FIELDS) == [
            (branch, first, a1, second, a2) for branch, (first, *seconds) in
            BRANCH_QUESTIONS.items() for a1, second in zip((PLUS, MINUS), seconds)
            for a2 in (PLUS, MINUS)]
        assert (Branch.CA, B, PLUS, A, PLUS) not in CELL_FIELDS

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_cell_beyond_the_table_is_rejected(self, as_array):
        # At construction, for every code a uint8 holds past the 20 cells.
        for code in range(len(CELL_FIELDS), 256):
            cells = [CELL_FIELDS.index(row) for row in self.CONSISTENT] + [code, 7]
            with pytest.raises(ValueError, match=rf"^row 3 holds {code}, which is not a cell"
                                                 r" code in \[0, 20\)$"):
                ResponseDataset(np.array(cells, np.uint8) if as_array else cells)

    @pytest.mark.parametrize("cells", [np.full((2, 3), 12, np.uint8), np.full((1, 1), 12),
                                       np.array(12), np.uint8(12)],
                             ids=["2-d", "1x1", "0-d", "scalar"])
    def test_cell_array_that_is_not_one_dimensional_is_rejected(self, cells):
        # Its len would count rows, and its counts would fail when first read.
        with pytest.raises(ValueError, match=r"^cells must be a one-dimensional array, got"
                                             rf" shape {re.escape(str(np.shape(cells)))}$"):
            ResponseDataset(cells)

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    def test_cells_are_read_only_once_counted(self, as_array):
        # The counts are cached, so a write through .cells would leave every
        # estimate on the old cells: the array handed out refuses writes.
        cells = [CELL_FIELDS.index(row) for row in self.CONSISTENT]
        data = ResponseDataset(np.array(cells, np.uint8) if as_array else cells)
        before = estimate_frequencies(data)
        with pytest.raises(ValueError, match="read-only"):
            data.cells[:] = data.cells[0]
        assert data.cells.tolist() == cells
        assert estimate_frequencies(data) == before
        assert protocol.infer_design(data) is THREE

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
    @pytest.mark.parametrize("variant", [THREE, TWO])
    @pytest.mark.parametrize("seed", range(6))
    def test_estimators_equal_numpy_axis_sums(self, seed, variant, as_array):
        rng = np.random.default_rng(seed)
        branches = {branch for branch, _ in DESIGN_BRANCHES[variant]}
        design_cells = [c for c, fields in enumerate(CELL_FIELDS) if fields[0] in branches]
        # Few rows leave some conditioning events empty; many rows fill them.
        n = int(rng.choice([1, 3, 8, 40, 500]))
        picked = rng.choice(design_cells, size=n, p=rng.dirichlet(np.ones(len(design_cells))))
        data = ResponseDataset(picked.astype(np.uint8) if as_array else picked.tolist())
        counts = np.bincount(np.asarray(picked), minlength=len(CELL_FIELDS)).reshape(
            protocol.COUNT_SHAPE)
        assert np.array_equal(data.counts, counts)
        per_branch = counts.sum(axis=(1, 2))
        assert set(np.flatnonzero(per_branch).tolist()) <= {list(Branch).index(b)
                                                            for b in branches}
        assert protocol.infer_design(data) is variant
        expected = []
        for q1, a1, q2 in ((B, 0, A), (B, 1, C), (C, 0, A)):
            plus, minus = answer_pairs(data, q1, q2)[a1].tolist()
            expected.append((plus, plus + minus) if plus + minus else None)
        if None in expected:
            with pytest.raises(EmptyConditioningBranch):
                estimate_frequencies(data)
        else:
            table = estimate_frequencies(data)
            assert [table.nu_a_given_b_plus, table.nu_c_given_b_minus,
                    table.nu_a_given_c_plus] == expected
        first = np.zeros((3, 2), np.int64)  # (first question, first answer)
        for code, branch in enumerate(Branch):
            first[BRANCH_QUESTIONS[branch][0]] += counts[code].sum(axis=1)
        first = first.tolist()
        entries = check_symmetry(data, tolerance=0.1).entries
        assert [(e.question, e.plus_fraction, e.n_first_asked, e.flagged) for e in entries] == [
            (q, plus / (plus + minus), plus + minus, abs(plus / (plus + minus) - 0.5) > 0.1)
            for q, (plus, minus) in zip(VariableIndex, first) if plus + minus]


    @pytest.mark.parametrize("cells, row, value", [
        (np.array([268, -243]), 0, "268"),
        (np.array([12, 13, -243]), 2, "-243"),
        (np.array([12.7, 13.2]), 0, "12.7"),
        (np.array([12.0, 13.0]), 0, "12.0"),
        (np.array([True, False]), 0, "True"),
    ])
    def test_cell_array_that_a_cast_would_change_is_rejected(self, cells, row, value):
        # Not read as cells: a uint8 cast wraps out-of-range values and truncates
        # fractions, and a float or bool array is no array of cell indices.
        message = rf"^row {row} holds {re.escape(value)}, which is not a cell code in \[0, 20\)$"
        with pytest.raises(ValueError, match=message):
            ResponseDataset(cells)
        with pytest.raises(ValueError, match=message):
            ResponseDataset(cells.tolist())

    @pytest.mark.parametrize("dtype", [np.int64, np.uint16, np.int8, np.uint8])
    def test_integer_cell_arrays_in_a_byte_are_accepted(self, dtype):
        cells = [CELL_FIELDS.index(row) for row in self.CONSISTENT]
        data = ResponseDataset(np.array(cells, dtype))
        assert data.cells.dtype == np.uint8 and data.cells.tolist() == cells
        assert np.array_equal(data.counts, dataset(*self.CONSISTENT).counts)

    @pytest.mark.parametrize("cells, row, value", [
        ([12.0, 12], 0, "12.0"),
        ([12, 12.0], 1, "12.0"),
        ([12, True], 1, "True"),
        ([False, 12], 0, "False"),
    ])
    def test_cell_list_of_other_than_ints_is_rejected(self, cells, row, value):
        # Counted, a float or bool equal to a cell index would count as that
        # cell, where an array of the same values is refused.
        message = rf"^row {row} holds {re.escape(value)}, which is not a cell code in \[0, 20\)$"
        with pytest.raises(ValueError, match=message):
            ResponseDataset(cells)

    @pytest.mark.parametrize("given", ["array", "view", "read-only view", "list"])
    def test_writes_by_the_caller_do_not_reach_the_dataset(self, given):
        # The counts are cached, so a dataset that shared the caller's cells
        # would show a later write in .cells and still count the old cells.
        cells = run_protocol(QuantumUnpolarized(WITNESS), ProtocolDesign(THREE, 100),
                             seed=1).cells.copy()
        original = cells.tolist()
        if given == "list":
            held = cells.tolist()
        else:
            held = cells if given == "array" else cells[:]
            held.flags.writeable = given != "read-only view"
        data = ResponseDataset(held)
        before = estimate_frequencies(data)
        cells[:150] = cells[150]
        if given == "list":
            held[:150] = [held[150]] * 150
        assert data.cells.tolist() == original
        assert estimate_frequencies(data) == before
        assert estimate_frequencies(ResponseDataset(data.cells.copy())) == before

    def test_read_only_array_of_its_own_is_kept(self):
        # run_protocol hands its cells over this way, with no copy.
        cells = np.array([CELL_FIELDS.index(row) for row in self.CONSISTENT], np.uint8)
        cells.flags.writeable = False
        assert np.shares_memory(ResponseDataset(cells).cells, cells)
        data = run_protocol(QuantumUnpolarized(WITNESS), ProtocolDesign(THREE, 10), seed=1)
        assert not data._cells.flags.writeable and data._cells.flags.owndata

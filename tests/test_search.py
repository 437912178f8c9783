import math
from itertools import combinations

import numpy as np
import pytest

from belltest import (
    ATOMS,
    CondTriple,
    JointDistribution3,
    Outcome,
    VariableIndex,
    classical_margin_floor,
    conditional,
    maximize_quantum_violation,
    predicted_conditional_triple,
    symmetrize,
    wigner_conditional_check,
)
from belltest import search
from belltest.qubit import QuestionTriple, predicted_conditionals
from belltest.search import _BLOCK_CELLS, SearchResult, _symmetrized_margins

TWO_PI = 2 * math.pi


def margin_grid(beta, gamma):
    p1, p2, p3 = predicted_conditionals(0.0, beta, gamma)
    return p1 + p2 - p3


def conditional_triple(joint):
    a_plus, b_plus = (VariableIndex.A, Outcome.PLUS), (VariableIndex.B, Outcome.PLUS)
    c_plus, b_minus = (VariableIndex.C, Outcome.PLUS), (VariableIndex.B, Outcome.MINUS)
    return CondTriple(conditional(joint, a_plus, b_plus),
                      conditional(joint, c_plus, b_minus),
                      conditional(joint, a_plus, c_plus))


def margin_at(a, b, c):
    return wigner_conditional_check(
        predicted_conditional_triple(QuestionTriple.from_floats(a, b, c))
    ).margin


class TestMaximizeQuantumViolation:
    def test_fine_grid_reaches_optimum(self):
        result = maximize_quantum_violation(grid_steps=360, refine_tol=1e-9)
        assert result.best_margin == pytest.approx(-0.25, abs=1e-8)
        gaps = (result.best_angles.b.phi, result.best_angles.c.phi)
        # Lexicographically smallest optimal gap pair.
        assert gaps == pytest.approx((2 * math.pi / 3, math.pi / 3), abs=1e-6)

    def test_coarse_grid_finds_violation_basin(self):
        result = maximize_quantum_violation(grid_steps=8, refine_tol=1e-3)
        assert result.best_margin <= -0.2

    def test_result_reproduces_margin_through_public_path(self):
        result = maximize_quantum_violation(grid_steps=36, refine_tol=1e-9)
        a = result.best_angles
        assert margin_at(a.a.phi, a.b.phi, a.c.phi) == pytest.approx(
            result.best_margin, abs=1e-12
        )

    @pytest.mark.parametrize("grid, tol", [(8, 1.0), (36, 1.0), (90, 1e-6), (97, 1e-12),
                                           (360, 1.0), (360, 1e-9)])
    def test_margin_is_exactly_the_public_path_at_the_best_angles(self, grid, tol):
        # At refine_tol 1.0 the pattern search never runs, so the best cell
        # comes straight from an array block; the reported margin must still
        # be the bits that wigner_conditional_check gives at best_angles.
        result = maximize_quantum_violation(grid_steps=grid, refine_tol=tol)
        public = wigner_conditional_check(predicted_conditional_triple(result.best_angles))
        assert result.best_margin == public.margin

    @pytest.mark.parametrize("beta, gamma", [(-0.1, 7.0), (2.0 + TWO_PI, -1.0), (1.5, 0.5)])
    def test_point_margin_wraps_gaps_as_the_public_path_does(self, beta, gamma):
        # The pattern search can step a gap outside [0, 2*pi); QuestionTriple
        # wraps it, so the search's own margin must wrap it the same way.
        assert search._margin(beta, gamma) == margin_at(0.0, beta, gamma)

    def test_degenerate_line_has_no_violation(self):
        # With b = a the first term is 1, so the margin cannot go negative.
        gammas = np.linspace(0.0, TWO_PI, 2000, endpoint=False)
        margins = margin_grid(np.zeros_like(gammas), gammas)
        assert margins.min() >= -1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            maximize_quantum_violation(grid_steps=4)
        for refine_tol in (0.0, -1e-9, math.inf, math.nan):
            with pytest.raises(ValueError, match="refine_tol must be positive and finite"):
                maximize_quantum_violation(grid_steps=8, refine_tol=refine_tol)

    def test_rejects_bool_refine_tol_before_searching(self, monkeypatch):
        monkeypatch.setattr(search, "_margin", None)  # any grid evaluation would fail
        for refine_tol in (True, False, np.True_):
            with pytest.raises(ValueError, match="refine_tol must be positive and finite"):
                maximize_quantum_violation(grid_steps=36, refine_tol=refine_tol)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        base = (0.3, 1.9, 5.1)
        reference = margin_at(*base)
        for _ in range(50):
            shift = rng.uniform(0.0, TWO_PI)
            assert margin_at(*(x + shift for x in base)) == pytest.approx(
                reference, abs=1e-12
            )

    def test_reflection_invariance(self):
        for angles in ((0.3, 1.9, 5.1), (0.0, 2.1, 0.7)):
            assert margin_at(*(-x for x in angles)) == pytest.approx(
                margin_at(*angles), abs=1e-12
            )


def whole_grid_reference(grid_steps, refine_tol):
    """The search with the full grid_steps**2 grid evaluated at once."""
    gaps = np.arange(grid_steps) * (TWO_PI / grid_steps)
    margins = margin_grid(*np.meshgrid(gaps, gaps, indexing="ij"))
    flat = int(np.argmin(margins))
    best = (gaps[flat // grid_steps], gaps[flat % grid_steps])
    best_margin, evaluations = float(margins.flat[flat]), margins.size
    step = TWO_PI / grid_steps
    while step > refine_tol:
        moved = False
        for db, dg in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = (best[0] + db, best[1] + dg)
            m = margin_at(0.0, *cand)
            evaluations += 1
            if m < best_margin:
                best, best_margin, moved = cand, m, True
        if not moved:
            step *= 0.5
    angles = QuestionTriple.from_floats(0.0, *best)
    return SearchResult(angles, margin_at(0.0, *best), evaluations, refine_tol)


class TestBlockedGrid:
    def test_grid_spanning_blocks_matches_whole_grid(self):
        grid = 1100
        assert _BLOCK_CELLS // grid < grid  # rows per block: at least 2 blocks
        assert maximize_quantum_violation(grid, 1e-9) == whole_grid_reference(grid, 1e-9)

    @pytest.mark.parametrize("block_cells", [1, 36, 36 * 5, 36 * 36 - 1])
    def test_block_size_does_not_change_result(self, monkeypatch, block_cells):
        expected = whole_grid_reference(36, 1e-6)
        monkeypatch.setattr(search, "_BLOCK_CELLS", block_cells)
        assert maximize_quantum_violation(36, 1e-6) == expected


def sampled_floor_reference(samples, rng):
    """The sampled part of the floor with all samples x 8 weights drawn at once."""
    weights = rng.dirichlet(np.ones(8), size=samples)
    weights = 0.5 * (weights + weights[:, ::-1])
    p1 = 2.0 * weights[:, [0, 1]].sum(axis=1)
    p2 = 2.0 * weights[:, [2, 6]].sum(axis=1)
    p3 = 2.0 * weights[:, [0, 2]].sum(axis=1)
    return float(np.min(p1 + p2 - p3))


class TestBlockedFloor:
    # The vertices' margin of exactly 0 is the minimum of nearly every run, so
    # the vertex block is cut to the one vertex of margin 2, the largest
    # possible margin; min_margin is then the minimum over the sampled laws.
    @pytest.fixture(autouse=True)
    def samples_only(self, monkeypatch):
        monkeypatch.setattr(search, "_VERTICES", np.eye(8)[[1]])

    def assert_matches_whole_array(self, samples, seed=11):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        cert = classical_margin_floor(samples, rng)
        assert cert.min_margin == sampled_floor_reference(samples, reference_rng)
        assert cert.samples_evaluated == samples + 8
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)])
    def test_matches_whole_array_around_block_edges(self, blocks, extra):
        self.assert_matches_whole_array(blocks * (_BLOCK_CELLS // 8) + extra)

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("samples", [1, 6, 7, 8, 26])
    def test_block_size_does_not_change_result(self, monkeypatch, rows, samples):
        monkeypatch.setattr(search, "_BLOCK_CELLS", 8 * rows)
        self.assert_matches_whole_array(samples, seed=samples)


class TestClassicalMarginFloor:
    def test_vertices_only(self):
        cert = classical_margin_floor(0)
        assert cert.min_margin == pytest.approx(0.0, abs=1e-15)
        assert cert.samples_evaluated == 8
        assert cert.skipped == 0

    def test_symmetrized_all_plus_vertex_margin_zero(self):
        sym = symmetrize(JointDistribution3.point_mass((1, 1, 1)))
        margin = wigner_conditional_check(conditional_triple(sym)).margin
        assert margin == pytest.approx(0.0, abs=1e-15)

    def test_symmetrized_plus_plus_minus_vertex_margin_two(self):
        # This vertex maximizes (not minimizes) the margin: both conditioning
        # events line up with "yes" answers.
        sym = symmetrize(JointDistribution3.point_mass((1, 1, -1)))
        margin = wigner_conditional_check(conditional_triple(sym)).margin
        assert margin == pytest.approx(2.0, abs=1e-15)

    def test_vertex_block_matches_scalar_path(self):
        # The floor's array formula, on the 8 vertices, against the public
        # scalar path through `conditional`, bit for bit.
        scalar = [
            wigner_conditional_check(
                conditional_triple(symmetrize(JointDistribution3.point_mass(atom)))
            ).margin
            for atom in ATOMS
        ]
        assert _symmetrized_margins(np.eye(8)).tolist() == scalar == [0, 2, 0, 0, 0, 0, 2, 0]

    def test_sampled_floor_non_negative(self):
        cert = classical_margin_floor(20_000, np.random.default_rng(3))
        assert cert.min_margin >= -1e-12
        assert cert.min_margin < 0.05  # the vertex minimum of 0 is attained
        assert cert.samples_evaluated == 20_008

    def test_requires_rng_with_samples(self):
        with pytest.raises(ValueError):
            classical_margin_floor(10)
        with pytest.raises(ValueError):
            classical_margin_floor(-1, np.random.default_rng(0))


def fancy_index_margins(weights):
    """The floor's margin formula as it stood before it read single columns:
    symmetrize all 8 columns, then sum fancy-indexed column pairs."""
    weights = 0.5 * (weights + weights[:, ::-1])
    p1 = 2.0 * weights[:, [0, 1]].sum(axis=1)
    p2 = 2.0 * weights[:, [2, 6]].sum(axis=1)
    p3 = 2.0 * weights[:, [0, 2]].sum(axis=1)
    return p1 + p2 - p3


def simplex_grid(steps):
    """Every law whose 8 weights are multiples of 1 / steps (stars and bars)."""
    bars = np.array(list(combinations(range(steps + 7), 7)))
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), steps + 7)])
    return np.diff(edges, axis=1) - 1


class TestSymmetrizedMargins:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fancy_index_formula(self, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.dirichlet(np.ones(8), size=50_000), rng.exponential(size=(1000, 8)),
                  rng.dirichlet(np.full(8, 0.05), size=1000), np.eye(8)]
        for weights in blocks:
            assert np.array_equal(_symmetrized_margins(weights), fancy_index_margins(weights))

    def test_minimum_over_simplex_grid_is_the_vertex_minimum(self):
        # The margin is linear in the weights, so its minimum over the
        # simplex is at a vertex.  Brute force every law on the grid of step
        # 1/12; the vertices are on it, so the minimum of 0 is attained.
        counts = simplex_grid(12)
        assert counts.shape == (50_388, 8)
        assert (counts.sum(axis=1) == 12).all() and len(np.unique(counts, axis=0)) == 50_388
        margins = _symmetrized_margins(counts / 12.0)
        vertex_min = float(np.min(_symmetrized_margins(np.eye(8))))
        assert vertex_min == 0.0
        assert float(margins.min()) == vertex_min
        assert (margins == vertex_min).sum() > 8  # attained, and not only at the vertices


class TestRejectsBadArguments:
    @pytest.mark.parametrize("samples", [True, False, 2.5, 3.0, "3", None, -1, np.float64(3)])
    def test_floor_sample_count(self, samples):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="samples must be a non-negative integer"):
            classical_margin_floor(samples, rng)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    @pytest.mark.parametrize("rng", ["x", 7, np.random.RandomState(0)],
                             ids=["str", "int", "RandomState"])
    @pytest.mark.parametrize("samples", [0, 3])
    def test_floor_rng_must_be_a_generator(self, rng, samples):
        with pytest.raises(ValueError, match="rng must be a Generator"):
            classical_margin_floor(samples, rng)

    def test_numpy_integer_counts_give_plain_ints(self):
        cert = classical_margin_floor(np.int64(3), np.random.default_rng(0))
        assert cert == classical_margin_floor(3, np.random.default_rng(0))
        assert type(cert.samples_evaluated) is int and cert.samples_evaluated == 11
        result = maximize_quantum_violation(np.int32(36), 1e-3)
        assert result == maximize_quantum_violation(36, 1e-3)
        assert type(result.evaluations) is int

    @pytest.mark.parametrize("grid_steps", [True, 360.0, 8.5, "360", None, 7, np.float64(36)])
    def test_grid_steps(self, grid_steps):
        with pytest.raises(ValueError, match="grid_steps must be an integer of at least 8"):
            maximize_quantum_violation(grid_steps)


def test_quantum_classical_separation():
    # The core claim: the model's best margin sits 0.25 below the certified
    # classical floor.
    best = maximize_quantum_violation(grid_steps=90, refine_tol=1e-9).best_margin
    floor = classical_margin_floor(5_000, np.random.default_rng(4)).min_margin
    assert floor - best == pytest.approx(0.25, abs=1e-8)

import math
import sys
import threading
import time
import tracemalloc
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
from belltest.qubit import OPTIMUM, QuestionTriple, predicted_conditionals
from belltest.search import _BLOCK_CELLS, SearchResult

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
        # The first strict minimum of the rounded grid margins, in row-major
        # order; at this grid it is the optimum (2*pi/3, pi/3), not its mirror.
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

    @pytest.mark.parametrize("grid", [36, 90, 360, 1440])
    def test_grid_divisible_by_6_lands_on_the_closed_form_optimum(self, grid):
        # The optimum gaps (2 pi / 3, pi / 3) are grid cells, the compass steps
        # never improve on them, and the margin is -1/4 up to one rounding.
        result = maximize_quantum_violation(grid, 1e-9)
        angles = (result.best_angles.a.phi, result.best_angles.b.phi, result.best_angles.c.phi)
        assert angles == (0.0, 2 * math.pi / 3, math.pi / 3)
        assert result.best_margin == -0.2500000000000001

    @pytest.mark.parametrize("grid", [77, 1000])
    def test_other_grids_refine_to_the_closed_form_optimum(self, grid):
        # The margin rises only quadratically off the optimum: a gap error of
        # 3e-8 rad moves it by less than one rounding of 1/4, so the pattern
        # search stops 1e-8 to 3e-8 rad away (both grids here do).
        result = maximize_quantum_violation(grid, 1e-9)
        assert result.best_angles.a.phi == 0.0
        assert result.best_angles.b.phi == pytest.approx(2 * math.pi / 3, abs=1e-7)
        assert result.best_angles.c.phi == pytest.approx(math.pi / 3, abs=1e-7)
        assert result.best_margin == pytest.approx(-0.25, abs=1e-15)

    def test_margin_never_below_minus_a_quarter(self):
        # The margin is 1/2 + (cos x + cos y + cos z) / 2 with x = a - b,
        # y = b - c + pi and x + y + z = 0, where the cosines sum to at least
        # -3/2: -1/4 is the exact minimum, missed here by a few roundings at most.
        beta, gamma = np.random.default_rng(8).uniform(0.0, TWO_PI, (2, 100_000))
        assert search._margin(beta, gamma).min() >= -0.25 - 4 * 2.0**-53

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
    return SearchResult(angles, margin_at(0.0, *best), evaluations)


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

    # Which optimum each grid returns: the first, (2 pi/3, pi/3), as grid cells;
    # the second, (4 pi/3, 5 pi/3), to 1e-7 rad; or neither exactly but the
    # first to 1e-7 rad.
    OPTIMUM = {8: "second", 42: "second", 77: "neither", 360: "first", 500: "second",
               1000: "neither", 1440: "first"}

    @pytest.mark.parametrize("grid", sorted(OPTIMUM))
    @pytest.mark.parametrize("blocks", [1, 2, 3, "odd"])
    def test_threaded_blocks_give_the_single_block_result(self, monkeypatch, grid, blocks):
        # Blocks hold _BLOCK_CELLS // 2 cells in whole rows; "odd" is the fewest
        # rows a block that make an odd count of blocks, more than the 32 that
        # one map call takes for every grid above 42.
        counts = {rows: -(-grid // rows) for rows in range(1, grid + 1)}  # blocks of rows
        rows = next(r for r, n in counts.items() if (n % 2 if blocks == "odd" else n == blocks))
        monkeypatch.setattr(search, "_BLOCK_CELLS", 2 * grid * grid)
        single = maximize_quantum_violation(grid, 1e-9)
        monkeypatch.setattr(search, "_BLOCK_CELLS", 2 * grid * rows)
        assert maximize_quantum_violation(grid, 1e-9) == single
        gaps = (single.best_angles.b.phi, single.best_angles.c.phi)
        first, second = (2 * math.pi / 3, math.pi / 3), (4 * math.pi / 3, 5 * math.pi / 3)
        near = second if self.OPTIMUM[grid] == "second" else first
        assert gaps == pytest.approx(near, abs=1e-7)
        assert (gaps == first) == (self.OPTIMUM[grid] == "first") and gaps != second

    def test_tie_across_blocks_goes_to_the_lower_cell_when_the_later_block_ends_first(
            self, monkeypatch):
        # At grid 36 the two optima, in rows 12 and 24, have the same rounded
        # margin and no other cell reaches it.  With 18 rows a block they sit
        # in different blocks, and the first block is held back until the
        # second has been scored.
        gaps = np.arange(36) * (TWO_PI / 36)
        margins = search._margin(gaps[:, None], gaps)
        assert margins[12, 6] == margins[24, 30] == margins.min()
        assert (margins == margins.min()).sum() == 2
        monkeypatch.setattr(search, "_BLOCK_CELLS", 2 * 36 * 36)
        single = maximize_quantum_violation(36, 1.0)
        margin, scored = search._margin, []

        def second_block_first(beta, gamma):
            if np.ndim(beta) and beta[0, 0] == 0.0:
                time.sleep(0.2)  # the first block's margins wait for the second's
            scored.append(float(np.min(beta)))
            return margin(beta, gamma)

        monkeypatch.setattr(search, "_margin", second_block_first)
        monkeypatch.setattr(search, "_BLOCK_CELLS", 2 * 36 * 18)
        result = maximize_quantum_violation(36, 1.0)  # no refinement: the grid cell
        assert scored[:2] == [gaps[18], 0.0]
        assert result == single
        assert (result.best_angles.b.phi, result.best_angles.c.phi) == (gaps[12], gaps[6])


class Injected(Exception):
    """The error a patched kernel raises on a later block."""


def bounded_call(function, *arguments, timeout=60.0):
    """``function(*arguments)`` in a daemon thread joined with a timeout, so a
    deadlock fails the test instead of hanging the suite: (result, error)."""
    outcome = [None, None]

    def target():
        try:
            outcome[0] = function(*arguments)
        except Exception as exc:  # handed to the test, which checks its type
            outcome[1] = exc

    threads = threading.active_count()
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{function.__name__} did not return in {timeout} s"
    assert threading.active_count() == threads  # no sweep thread outlives the call
    return tuple(outcome)


def failing_on_call(function, failing_call):
    """``function``, raising Injected on its ``failing_call``-th call (1-based)."""
    calls = iter(range(1, 1 << 30))

    def wrapped(*arguments, **keywords):
        if next(calls) == failing_call:
            raise Injected(f"call {failing_call}")
        return function(*arguments, **keywords)
    return wrapped


class TestThreadedSweeps:
    @pytest.mark.parametrize("failing_block", [2, 4])
    def test_grid_error_on_a_later_block_is_raised_by_the_call(self, monkeypatch,
                                                               failing_block):
        monkeypatch.setattr(search, "_margin", failing_on_call(search._margin, failing_block))
        assert -(-360 // (_BLOCK_CELLS // 2 // 360)) >= failing_block  # blocks at grid 360
        result, error = bounded_call(maximize_quantum_violation, 360, 1e-9)
        assert result is None and isinstance(error, Injected)

    @pytest.mark.parametrize("failing_call", [1, 3, 6])  # call 1 scores the vertices
    def test_floor_error_on_a_later_block_is_raised_by_the_call(self, monkeypatch,
                                                                failing_call):
        monkeypatch.setattr(search, "_closed_form_margins",
                            failing_on_call(search._closed_form_margins, failing_call))
        samples = 5 * (_BLOCK_CELLS // 8)
        result, error = bounded_call(classical_margin_floor, samples, np.random.default_rng(2))
        assert result is None and isinstance(error, Injected)

    def test_floor_error_in_a_draw_is_raised_by_the_call(self):
        # The calling thread's draw fails while the helper scores the block
        # before it: the error still ends the call, and the helper with it.
        class FailingGenerator(np.random.Generator):
            standard_exponential = failing_on_call(np.random.Generator.standard_exponential, 3)

        rng = FailingGenerator(np.random.PCG64(2))
        result, error = bounded_call(classical_margin_floor, 5 * (_BLOCK_CELLS // 8), rng)
        assert result is None and isinstance(error, Injected)

    def test_concurrent_calls_under_fast_switching_match_whole_array_runs(self, monkeypatch):
        # Four threads of floor calls and four of grid calls at once on a
        # 2-CPU host, with the interpreter switching threads every microsecond
        # and small blocks: a buffer scored after the next draw overwrote it,
        # or a grid block merged out of turn, would change a result.  Each
        # floor call draws two blocks of 7 laws, so a lost block changes its
        # minimum about half the time; the floor's one vertex, of margin 2,
        # leaves that minimum to the sampled laws.
        monkeypatch.setattr(search, "_BLOCK_CELLS", 8 * 7)
        monkeypatch.setattr(search, "_VERTICES", np.eye(8)[[1]])
        floors = [sampled_floor_reference(14, np.random.default_rng(seed)) for seed in range(80)]
        grid = whole_grid_reference(42, 1e-6)
        results = [[] for _ in range(8)]

        def worker(slot):
            for seed in range(20 * slot, 20 * slot + 20) if slot < 4 else range(5):
                results[slot].append(
                    classical_margin_floor(14, np.random.default_rng(seed)).min_margin
                    if slot < 4 else maximize_quantum_violation(42, 1e-6))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker, args=(slot,), daemon=True)
                       for slot in range(8)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert sum(results[:4], []) == floors
        assert results[4:] == [[grid] * 5] * 4


def closed_form_margins(x):
    """The floor's closed form, 2 * (x1 + x6) / row sum, on a whole array."""
    return 2.0 * (x[:, 1] + x[:, 6]) / x.sum(axis=1)


def sampled_floor_reference(samples, rng):
    """The sampled part of the floor with all samples x 8 exponentials drawn at once."""
    return float(np.min(closed_form_margins(rng.standard_exponential((samples, 8)))))


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

    @pytest.mark.parametrize("samples", [0, 1, 7, 8192, 20_003])
    def test_generator_ends_where_the_dirichlet_block_ends(self, samples):
        # The floor draws the exponentials that Generator.dirichlet with every
        # parameter 1 normalises, so the sweep sees the same laws.
        rng, reference = np.random.default_rng(samples), np.random.default_rng(samples)
        classical_margin_floor(samples, rng)
        reference.dirichlet(np.ones(8), size=samples)
        assert rng.bit_generator.state == reference.bit_generator.state


class TestClassicalMarginFloor:
    def test_vertices_only(self):
        cert = classical_margin_floor(0)
        assert cert.min_margin == pytest.approx(0.0, abs=1e-15)
        assert cert.samples_evaluated == 8

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
        assert closed_form_margins(np.eye(8)).tolist() == scalar == [0, 2, 0, 0, 0, 0, 2, 0]

    def test_one_row_blocks_with_all_eight_vertices(self, monkeypatch):
        # One draw per block, fewer rows than vertices: the work arrays must
        # still hold the 8 vertex rows.
        monkeypatch.setattr(search, "_BLOCK_CELLS", 8)
        rng, reference = np.random.default_rng(26), np.random.default_rng(26)
        cert = classical_margin_floor(26, rng)
        reference.dirichlet(np.ones(8), size=26)
        assert cert.min_margin == 0.0 and cert.samples_evaluated == 34
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_sampled_floor_non_negative(self):
        cert = classical_margin_floor(20_000, np.random.default_rng(3))
        assert cert.min_margin == 0.0  # the vertex minimum; no draw falls below it
        assert cert.samples_evaluated == 20_008

    def test_requires_rng_with_samples(self):
        with pytest.raises(ValueError):
            classical_margin_floor(10)
        with pytest.raises(ValueError):
            classical_margin_floor(-1, np.random.default_rng(0))


def three_term_margins(weights):
    """The conditional-form margin of the symmetrized laws term by term:
    symmetrize all 8 columns, then p1 + p2 - p3 from column pairs."""
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


class TestClosedFormMargins:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_three_term_formula(self, seed):
        rng = np.random.default_rng(seed)
        exponentials = rng.exponential(size=(1000, 8))
        blocks = [rng.dirichlet(np.ones(8), size=50_000),
                  exponentials / exponentials.sum(axis=1)[:, None],
                  rng.dirichlet(np.full(8, 0.05), size=1000), np.eye(8)]
        for weights in blocks:
            error = np.abs(closed_form_margins(weights) - three_term_margins(weights))
            assert error.max() <= 4 * 2.0**-52  # 4 ulp of 1; margins lie in [0, 2]

    def test_minimum_over_simplex_grid_is_the_vertex_minimum(self):
        # The margin is linear in the weights, so its minimum over the
        # simplex is at a vertex.  Brute force every law on the grid of step
        # 1/12; the vertices are on it, so the minimum of 0 is attained.
        counts = simplex_grid(12)
        assert counts.shape == (50_388, 8)
        assert (counts.sum(axis=1) == 12).all() and len(np.unique(counts, axis=0)) == 50_388
        margins = closed_form_margins(counts / 12.0)
        vertex_min = float(np.min(closed_form_margins(np.eye(8))))
        assert vertex_min == 0.0
        assert float(margins.min()) == vertex_min
        assert (margins == vertex_min).sum() > 8  # attained, and not only at the vertices


class TestRowSumTree:
    # The floor's minimum hides every other row, so compare each row's margin
    # with the whole-array formula bit for bit.
    SPECIAL = np.array([0.0, 5e-324, 1e300, 2.0**53 + 1])

    @staticmethod
    def floor_margins(x):
        work = (np.full((len(x), 4), np.nan), np.full((len(x), 2), np.nan), np.full(len(x), np.nan))
        return search._closed_form_margins(x, *work)

    @pytest.mark.parametrize("rows", [1, 7, 8, 8193])
    @pytest.mark.parametrize("kind", ["exponential", "special"])
    def test_every_row_has_the_bits_of_the_whole_array_formula(self, rows, kind):
        rng = np.random.default_rng(rows)
        x = rng.standard_exponential((rows, 8))
        if kind == "special":  # about half the entries, and every third row
            x = np.where(rng.random((rows, 8)) < 0.5, rng.choice(self.SPECIAL, (rows, 8)), x)
            x[::3] = rng.choice(self.SPECIAL, (len(x[::3]), 8))
        with np.errstate(invalid="ignore"):  # an all-zero row is 0 / 0
            got, want = self.floor_margins(x), closed_form_margins(x)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


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

    @pytest.mark.parametrize("block_cells", [64, _BLOCK_CELLS])
    def test_grid_steps_above_65536_rejected_before_allocating(self, monkeypatch, block_cells):
        # The limit is a constant, not the block size: above it one grid row
        # would not fit in an unpatched block.
        monkeypatch.setattr(search, "_BLOCK_CELLS", block_cells)
        monkeypatch.setattr(search, "_margin", None)  # any grid evaluation would fail
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^grid_steps must be at most 65536, got 65537$"):
                maximize_quantum_violation(65537)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 65537 * 8  # less than the grid's own gap array


class TestClosedFormAtScale:
    """The brute-force checks of ``qubit.OPTIMUM`` and of the classical floor
    at the sizes that the model-space benchmark runs them."""

    def test_fine_grid_with_tight_refinement_lands_on_the_optimum(self):
        result = maximize_quantum_violation(1440, 1e-12)
        assert result.evaluations == 2073732
        assert result.best_margin == -0.2500000000000001
        assert result.best_angles == OPTIMUM

    def test_two_million_sampled_laws_stay_on_the_floor(self):
        cert = classical_margin_floor(2_000_000, np.random.default_rng(1))
        assert cert.samples_evaluated == 2000008
        assert cert.min_margin == 0.0


def test_quantum_classical_separation():
    # The core claim: the model's best margin sits 0.25 below the certified
    # classical floor.
    best = maximize_quantum_violation(grid_steps=90, refine_tol=1e-9).best_margin
    floor = classical_margin_floor(5_000, np.random.default_rng(4)).min_margin
    assert floor - best == pytest.approx(0.25, abs=1e-8)

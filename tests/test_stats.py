import math
import re
import sys

import numpy as np
import pytest

from belltest import (
    DegenerateVariance,
    FrequencyTable,
    VariableIndex,
    violation_test,
    wilson_interval,
)
from belltest.stats import _ndtr, _wilson_quantile

A, B, C = VariableIndex.A, VariableIndex.B, VariableIndex.C


def table(nu1, nu2, nu3):
    return FrequencyTable(
        nu_a_given_b_plus=nu1,
        nu_c_given_b_minus=nu2,
        nu_a_given_c_plus=nu3,
    )


class TestWilsonInterval:
    def test_zero_successes_hits_floor(self):
        low, high = wilson_interval(0, 10, 0.95)
        assert low == 0.0
        assert 0.0 < high < 1.0

    def test_all_successes_hits_ceiling(self):
        low, high = wilson_interval(10, 10, 0.95)
        assert high == 1.0
        assert 0.0 < low < 1.0

    def test_midpoint_case_frozen_values(self):
        # Frozen from a separate evaluation of the closed-form expression.
        low, high = wilson_interval(50, 100, 0.95)
        assert low == pytest.approx(0.4038315303659956, abs=1e-12)
        assert high == pytest.approx(0.5961684696340044, abs=1e-12)

    def test_confidence_whose_quantile_argument_rounds_to_one(self):
        # 0.5 + 0.5 * (1 - 2**-53) rounds to 1: an infinite quantile, not an error.
        assert wilson_interval(3, 10, 1 - 2**-53) == (0.0, 1.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(0, 0, 0.95)
        with pytest.raises(ValueError):
            wilson_interval(1, 2, 1.0)

    @pytest.mark.parametrize("successes, trials", [(True, 2), (1, True), (1.0, 2), (1, 2.5),
                                                   (np.float64(1), 2), (np.bool_(True), 2)])
    def test_rejects_counts_that_are_not_integers(self, successes, trials):
        with pytest.raises(ValueError, match=re.escape(f"invalid counts ({successes}, {trials})")):
            wilson_interval(successes, trials, 0.95)

    def test_accepts_numpy_integers(self):
        assert wilson_interval(np.int64(1), np.uint32(2), 0.95) == wilson_interval(1, 2, 0.95)

    def test_coverage_near_nominal(self):
        # 95% interval should cover the true p about 95% of the time.
        rng = np.random.default_rng(0)
        n, sims = 1000, 10_000
        for p in (0.1, 0.5, 0.9):
            successes = rng.binomial(n, p, size=sims)
            covered = 0
            for s in successes:
                low, high = wilson_interval(int(s), n, 0.95)
                covered += low <= p <= high
            assert 0.93 <= covered / sims <= 0.97

    def test_monotone_tightening(self):
        prev = wilson_interval(50, 100, 0.95)
        for n in (1000, 10_000):
            cur = wilson_interval(n // 2, n, 0.95)
            assert cur[1] - cur[0] < prev[1] - prev[0]
            prev = cur


class TestViolationTest:
    def test_bool_and_fractional_counts_never_reach_the_test(self):
        # Read as 1 of 2 and 1.5 of 3, these once gave a margin of 0.75.
        with pytest.raises(ValueError, match=r"^invalid counts \(True, 2\)$"):
            violation_test(FrequencyTable((True, 2), (1.5, 3), (1, 4)))
        with pytest.raises(ValueError, match=r"^invalid counts \(1.5, 3\)$"):
            violation_test(FrequencyTable((1, 2), (1.5, 3), (1, 4)))

    def test_null_center(self):
        result = violation_test(table((500, 1000), (250, 1000), (750, 1000)))
        assert result.margin_estimate == pytest.approx(0.0, abs=1e-15)
        assert result.p_value == pytest.approx(0.5, abs=1e-12)
        assert not result.significant_violation

    def test_negative_margin_significant(self):
        n = 100_000
        result = violation_test(
            table((n // 4, n), (n // 4, n), (3 * n // 4, n)), alpha=0.05
        )
        assert result.margin_estimate == pytest.approx(-0.25, abs=1e-12)
        assert result.p_value < 1e-6
        assert result.significant_violation

    def test_degenerate_variance_carries_margin(self):
        with pytest.raises(DegenerateVariance) as excinfo:
            violation_test(table((10, 10), (10, 10), (10, 10)))
        assert excinfo.value.margin == 1.0
        with pytest.raises(DegenerateVariance) as excinfo:
            violation_test(table((0, 10), (0, 10), (10, 10)))
        assert excinfo.value.margin == -1.0

    def test_standard_error_matches_binomial_formula(self):
        result = violation_test(table((30, 100), (20, 200), (50, 80)))
        nu = (0.3, 0.1, 0.625)
        expected = math.sqrt(
            0.3 * 0.7 / 100 + 0.1 * 0.9 / 200 + 0.625 * 0.375 / 80
        )
        assert result.standard_error == pytest.approx(expected, abs=1e-15)
        assert result.z_statistic == pytest.approx(
            (nu[0] + nu[1] - nu[2]) / expected, abs=1e-12
        )

    def test_standard_error_shrinks_with_counts(self):
        small = violation_test(table((30, 100), (20, 100), (50, 100)))
        big = violation_test(table((300, 1000), (200, 1000), (500, 1000)))
        assert big.standard_error < small.standard_error

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            violation_test(table((1, 2), (1, 2), (1, 2)), alpha=0.0)

    def test_rejects_alpha_whose_confidence_rounds_to_one(self):
        with pytest.raises(ValueError, match="alpha must be in"):
            violation_test(table((1, 2), (1, 2), (1, 2)), alpha=1e-17)

    def test_type_one_error_rate_controlled(self):
        # Simulated proportions at a strictly positive margin should almost
        # never be declared significant violations.
        rng = np.random.default_rng(1)
        n, sims, alpha = 2000, 1000, 0.05
        false_hits = 0
        for _ in range(sims):
            s1 = int(rng.binomial(n, 0.5))
            s2 = int(rng.binomial(n, 0.3))
            s3 = int(rng.binomial(n, 0.6))  # true margin +0.2
            result = violation_test(table((s1, n), (s2, n), (s3, n)), alpha=alpha)
            false_hits += result.significant_violation
        sigma = math.sqrt(alpha * (1 - alpha) / sims)
        assert false_hits / sims <= alpha + 3 * sigma


class TestNormalTailMatchesScipyStats:
    """`stats` takes the normal tail from `math.erfc` and the quantile from the
    C function behind `statistics.NormalDist.inv_cdf`, whose bits it must give;
    both must stay close to scipy.special's Cephes `ndtr` and `ndtri` (and so
    to scipy.stats.norm), though not bit for bit."""

    EXACT = (math.inf, -math.inf, 0.0, 5e-324, -5e-324, 1e308, -1e308)  # 0.0 == -0.0; NaN apart

    @staticmethod
    def same_bits(got, want):
        return (got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
                or math.isnan(got) and math.isnan(want))

    def assert_tail_close(self, zs):
        """Exact at the special values, within 1e-14 relative on [-8, 8] and
        5e-13 on [-40, 40] where scipy's value is above 0 (and below 1e-300
        where it is 0)."""
        from scipy.special import ndtr

        mismatches = []
        for z, want in zip(zs, ndtr(np.array(zs, dtype=float)).tolist()):
            got = _ndtr(z)
            if math.isnan(z) or z in self.EXACT:
                ok = self.same_bits(got, want)
            elif abs(z) <= 8.0:
                ok = abs(got - want) <= 1e-14 * want
            elif abs(z) <= 40.0:
                ok = abs(got - want) <= (5e-13 * want if want > 0.0 else 1e-300)
            else:
                ok = False  # every input is special or in [-40, 40]
            if not ok:
                mismatches.append((z, got, want))
        assert mismatches == []

    @staticmethod
    def assert_quantiles_close(confidences):
        """`_wilson_quantile(c)` within 8 ulps of `ndtri(0.5 + 0.5 * c)` for
        c in (0, 1), and a ValueError for any other c."""
        from scipy.special import ndtri

        mismatches = []
        for c in confidences:
            if not 0.0 < c < 1.0:
                with pytest.raises(ValueError, match="confidence must be in"):
                    _wilson_quantile(c)
                continue
            got, want = _wilson_quantile(c), float(ndtri(0.5 + 0.5 * c))
            if not (got == want or abs(got - want) <= 8 * math.ulp(want)):
                mismatches.append((c, got, want))
        assert mismatches == []

    @staticmethod
    def around(points, steps=50):
        """Each point and its `steps` float neighbours on either side."""
        out = []
        for point in points:
            up = down = point
            out.append(point)
            for _ in range(steps):
                up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
                out += [up, down]
        return out

    def test_ndtr_close_to_norm_cdf(self):
        rng = np.random.default_rng(4)
        zs = [math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e-300, 38.5, -38.5, 40.0, -40.0]
        zs += np.linspace(-40.0, 40.0, 2001).tolist() + (3.0 * rng.standard_normal(2000)).tolist()
        self.assert_tail_close(zs)

    def test_ndtr_at_cephes_branch_edges(self):
        # z/sqrt(2) crosses Cephes's sqrt(1/2) (erf or erfc), 1 (erfc defers
        # to erf), 8 (erfc's second table) and sqrt(MAXLOG) (exp underflow).
        edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384)]
        zs = self.around(edges + [-e for e in edges])
        zs += [math.nan, 5e-324, -5e-324, 1e308, -1e308]
        zs += np.linspace(1.0, math.sqrt(2.0), 2001).tolist()
        self.assert_tail_close(zs)

    def test_wilson_quantile_close_to_norm_ppf(self):
        rng = np.random.default_rng(5)
        confidences = [1e-12, 1.0 - 1e-12, 0.9, 0.95, 0.99, 0.5]
        confidences += np.logspace(-12, 0, 1000, endpoint=False).tolist()
        confidences += (1.0 - np.logspace(-12, 0, 1000, endpoint=False)).tolist()
        confidences += rng.random(2000).tolist()
        self.assert_quantiles_close(confidences)

    def test_wilson_quantile_at_cephes_branch_edges(self):
        # p crosses e**-2 and 1 - e**-2 (central or tail table) and
        # e**-32 and 1 - e**-32 (x = 8, the second tail table).  The Wilson
        # quantile takes 0.5 + 0.5 * c, so p becomes c = |2p - 1|: p itself
        # above 1/2, 1 - p (rounded) below it.
        edges = [0.13533528323661269189, 1.0 - 0.13533528323661269189,
                 math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5]
        ps = self.around(edges)
        ps += [0.0, 1.0, -0.0, math.nan, math.inf, -math.inf, -1e-300, -1.0, 1.0 + 1e-15, 2.0]
        ps += [5e-324, 1e-320, 1e-300, 1.0 - 2.0**-53, 1.0 - 1e-16]
        ps += np.logspace(-320, 0, 2001, endpoint=False).tolist()
        self.assert_quantiles_close([abs(2.0 * p - 1.0) for p in ps])

    @pytest.mark.parametrize("c_module", [True, False])
    def test_wilson_quantile_equals_normal_dist_bit_for_bit(self, monkeypatch, c_module):
        """With `_statistics` and with the fallback taken when it is missing."""
        from statistics import NormalDist

        if not c_module:
            monkeypatch.setitem(sys.modules, "_statistics", None)  # its import now fails
        confidences = np.linspace(0.0, 1.0, 4001)[1:-1].tolist() + [0.9, 0.95, 0.99]
        confidences += (1.0 - np.logspace(-15, -1, 200)).tolist() + [1e-300, 1e-12]
        mismatches = [(c, _wilson_quantile(c)) for c in confidences
                      if not self.same_bits(_wilson_quantile(c),
                                            NormalDist().inv_cdf(0.5 + 0.5 * c))]
        assert mismatches == []

    def test_violation_test_p_value_close_to_norm_cdf(self):
        from scipy.stats import norm

        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 500))
            result = violation_test(table(*((int(rng.integers(1, n)), n) for _ in range(3))))
            want = float(norm.cdf(result.z_statistic))
            assert abs(result.p_value - want) <= 1e-13 * want

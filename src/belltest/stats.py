"""Significance testing for an empirical inequality margin.

The three conditional frequencies come from disjoint sub-ensembles, so they
are independent binomial proportions.  The margin nu1 + nu2 - nu3 therefore
has a first-order-exact standard error, and a one-sided normal test in the
violation direction is the natural decision rule.  The report adds each
term's `wilson_interval`, which stays sensible near 0 and 1.  The normal tail
comes from `math.erfc` and the quantile from the C function behind
`statistics.NormalDist.inv_cdf`, called without importing `statistics` (whose
imports cost about 5 ms per `test` process), so no command needs SciPy; they
match `scipy.special.ndtr` and `ndtri` in all but the last bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateVariance, is_real, require_counts
from .protocol import FrequencyTable


class TestResult(NamedTuple):
    margin_estimate: float
    standard_error: float
    z_statistic: float
    p_value: float
    significant_violation: bool


# z * sqrt(1/2) rounds to Cephes's erfc argument, so the tail stays within
# 1.1e-13 of scipy.special.ndtr on [-40, 40] (4.7e-13 with z / sqrt(2)).
_SQRT1_2 = 7.07106781186547524401e-1


def _ndtr(z: float) -> float:
    """Standard normal CDF at ``z``; NaN in, NaN out."""
    return 0.5 * math.erfc(-z * _SQRT1_2)


def _wilson_quantile(confidence: float) -> float:
    if not (is_real(confidence) and 0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    p = 0.5 + 0.5 * confidence
    if p == 1.0:
        # NormalDist raises at 1; the infinite quantile gives [0, 1] intervals.
        return math.inf
    try:  # the C function behind NormalDist.inv_cdf, without importing `statistics`
        from _statistics import _normal_dist_inv_cdf
    except ImportError:
        from statistics import NormalDist
        return NormalDist().inv_cdf(p)
    return _normal_dist_inv_cdf(p, 0.0, 1.0)


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    require_counts(successes, trials)
    z = _wilson_quantile(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)
    )
    low = max(0.0, center - half)
    high = min(1.0, center + half)
    # The closed form reaches the boundary exactly at degenerate counts; keep
    # that exact despite rounding.
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


def validate_alpha(alpha: float) -> None:
    """Raise ValueError unless ``alpha`` is a usable test size: in (0, 1),
    and large enough that the report's Wilson confidence ``1 - alpha`` is below 1."""
    if not (is_real(alpha) and 0.0 < alpha < 1.0 and 1.0 - alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1) with 1 - alpha < 1, got {alpha!r}")


def violation_test(table: FrequencyTable, alpha: float = 0.05) -> TestResult:
    """One-sided test of the conditional-inequality margin against zero.

    Raises DegenerateVariance (carrying the exact margin) when every branch
    proportion is exactly 0 or 1, since the normal approximation collapses.
    """
    validate_alpha(alpha)
    (s1, n1), (s2, n2), (s3, n3) = table  # checked by FrequencyTable
    p1, p2, p3 = s1 / n1, s2 / n2, s3 / n3
    margin = p1 + p2 - p3
    # Added left to right on every Python: 3.12's float sum() compensates.
    variance = p1 * (1.0 - p1) / n1 + p2 * (1.0 - p2) / n2 + p3 * (1.0 - p3) / n3
    if variance == 0.0:
        raise DegenerateVariance(margin)
    se = math.sqrt(variance)
    z = margin / se
    p_value = _ndtr(z)
    return tuple.__new__(TestResult, (margin, se, z, p_value, margin < 0.0 and p_value < alpha))

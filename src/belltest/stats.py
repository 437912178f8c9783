"""Significance testing for an empirical inequality margin.

The three conditional frequencies come from disjoint sub-ensembles, so they
are independent binomial proportions.  The margin nu1 + nu2 - nu3 therefore
has a first-order-exact standard error, and a one-sided normal test in the
violation direction is the natural decision rule.  Wilson intervals are
reported per term because they stay sensible near 0 and 1.  The normal
tail and quantile are scipy.special's ndtr and ndtri, bit-identical to
scipy.stats.norm.cdf and .ppf, and imported only when a test is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateVariance
from .protocol import FrequencyTable


@dataclass(frozen=True)
class TestResult:
    margin_estimate: float
    standard_error: float
    z_statistic: float
    p_value: float
    alpha: float
    significant_violation: bool
    term_intervals: tuple[tuple[float, float], ...]


def wilson_interval(
    successes: int, trials: int, confidence: float
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if not (0 <= successes <= trials) or trials < 1:
        raise ValueError(f"invalid counts ({successes}, {trials})")
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    from scipy.special import ndtri
    z = float(ndtri(0.5 + 0.5 * confidence))
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


def violation_test(table: FrequencyTable, alpha: float = 0.05) -> TestResult:
    """One-sided test of the conditional-inequality margin against zero.

    Raises DegenerateVariance (carrying the exact margin) when every branch
    proportion is exactly 0 or 1, since the normal approximation collapses.
    """
    from scipy.special import ndtr
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    nu = table.proportions()
    ns = (
        table.nu_a_given_b_plus[1],
        table.nu_c_given_b_minus[1],
        table.nu_a_given_c_plus[1],
    )
    margin = nu[0] + nu[1] - nu[2]
    variance = sum(p * (1.0 - p) / n for p, n in zip(nu, ns))
    if variance == 0.0:
        raise DegenerateVariance(margin)
    se = math.sqrt(variance)
    z = margin / se
    p_value = float(ndtr(z))
    counts = (table.nu_a_given_b_plus, table.nu_c_given_b_minus, table.nu_a_given_c_plus)
    intervals = tuple(
        wilson_interval(num, den, 1.0 - alpha) for num, den in counts
    )
    return TestResult(
        margin_estimate=margin,
        standard_error=se,
        z_statistic=z,
        p_value=p_value,
        alpha=alpha,
        significant_violation=(margin < 0.0 and p_value < alpha),
        term_intervals=intervals,
    )

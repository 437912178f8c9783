"""Significance testing for an empirical inequality margin.

The three conditional frequencies come from disjoint sub-ensembles, so they
are independent binomial proportions.  The margin nu1 + nu2 - nu3 therefore
has a first-order-exact standard error, and a one-sided normal test in the
violation direction is the natural decision rule.  Wilson intervals are
reported per term because they stay sensible near 0 and 1.  The normal
tail and quantile are a pure-Python port of Cephes `ndtr` (with its `erf`
and `erfc`) and `ndtri` (S. L. Moshier, *Methods and Programs for
Mathematical Functions*, 1989): the same coefficients, Horner order and
branch thresholds as the `scipy.special` ufuncs, and bit-identical to them,
so no command needs SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateVariance
from .protocol import FrequencyTable


@dataclass(frozen=True)
class TestResult:
    margin_estimate: float
    standard_error: float
    z_statistic: float
    p_value: float
    significant_violation: bool
    term_intervals: tuple[tuple[float, float], ...]


# Cephes ndtr.c: erfc numerator/denominator for 1 <= x < 8 (P, Q) and x >= 8
# (R, S); erf for |x| < 1 (T, U).  Cephes evaluates the denominators with
# p1evl, which omits their leading 1; polevl with the 1 written out gives the
# same bits, since 1.0 * x == x.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)

# Cephes ndtri.c: |p - 1/2| <= 3/8 (P0, Q0); x = sqrt(-2 log p) in [2, 8)
# (P1, Q1) and [8, 64) (P2, Q2).
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
             3.93881025292474443415e0, 1.33303460815807542389e0,
             2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6,
             6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1,
             1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)

_SQRT1_2 = 7.07106781186547524401e-1
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # e**-2
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Cephes polevl: Horner's rule, highest power first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    """Cephes erf on |x| < 1, the only range `_ndtr` and `_erfc` use; its
    |x| > 1 branch and its odd-symmetry step change no bits there."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)


def _erfc(x: float) -> float:
    """Cephes erfc on x >= 0, the only range `_ndtr` uses."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0
    z = math.exp(z)
    if x < 8.0:
        return z * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q)
    return z * _polevl(x, _ERFC_R) / _polevl(x, _ERFC_S)


def _ndtr(a: float) -> float:
    """Standard normal CDF, bit-identical to `scipy.special.ndtr`.  NaN
    fails every comparison below and comes out as NaN."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


def _ndtri(y0: float) -> float:
    """Standard normal quantile, bit-identical to `scipy.special.ndtri`."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not (0.0 < y0 < 1.0):
        return math.nan
    y = y0
    lower = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        lower = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x0 - x1
    return -x if lower else x


@lru_cache
def _wilson_quantile(confidence: float) -> float:
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    return _ndtri(0.5 + 0.5 * confidence)


def wilson_interval(
    successes: int, trials: int, confidence: float
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if not (0 <= successes <= trials) or trials < 1:
        raise ValueError(f"invalid counts ({successes}, {trials})")
    return _wilson(successes, trials, _wilson_quantile(confidence))


def _wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    """Wilson interval at normal quantile `z`, for counts already checked."""
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
    and large enough that the Wilson confidence ``1 - alpha`` is below 1."""
    if not (0.0 < alpha < 1.0 and 1.0 - alpha < 1.0):
        raise ValueError(f"alpha must be in (0, 1) with 1 - alpha < 1, got {alpha!r}")


def violation_test(table: FrequencyTable, alpha: float = 0.05) -> TestResult:
    """One-sided test of the conditional-inequality margin against zero.

    Raises DegenerateVariance (carrying the exact margin) when every branch
    proportion is exactly 0 or 1, since the normal approximation collapses.
    """
    validate_alpha(alpha)
    counts = (table.nu_a_given_b_plus, table.nu_c_given_b_minus, table.nu_a_given_c_plus)
    (_, n1), (_, n2), (_, n3) = counts
    p1, p2, p3 = table.proportions()
    margin = p1 + p2 - p3
    # Added left to right on every Python: 3.12's float sum() compensates.
    variance = p1 * (1.0 - p1) / n1 + p2 * (1.0 - p2) / n2 + p3 * (1.0 - p3) / n3
    if variance == 0.0:
        raise DegenerateVariance(margin)
    se = math.sqrt(variance)
    z = margin / se
    p_value = _ndtr(z)
    # FrequencyTable has already checked the counts.
    z_wilson = _wilson_quantile(1.0 - alpha)
    intervals = tuple(_wilson(num, den, z_wilson) for num, den in counts)
    return TestResult(
        margin_estimate=margin,
        standard_error=se,
        z_statistic=z,
        p_value=p_value,
        significant_violation=(margin < 0.0 and p_value < alpha),
        term_intervals=intervals,
    )

"""Exception hierarchy and argument checks shared across the package."""

from collections import namedtuple
from numbers import Integral, Real


def record(typename: str, field_names: str) -> type:
    """A named tuple class to subclass for a record whose ``__new__`` checks
    its fields.  ``_make`` and ``_replace`` build through that ``__new__``, so
    the checks run; pickling and copying restore the fields as stored, so a
    normalized field is not normalized again."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__reduce__ = lambda self: (tuple.__new__, (type(self), tuple(self)))
    return base


def is_integer(value) -> bool:
    """True for an int (an IntEnum member too) or a numpy integer, not for a
    bool; an int skips the slow ABC check."""
    return type(value) is not bool if isinstance(value, int) else isinstance(value, Integral)


def is_real(value) -> bool:
    """True for a real number, not a bool; numbers.Real excludes numpy bools,
    and a float skips its slow ABC check."""
    return isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool)


def require_int(name: str, value, low: int, high: float, bounds: str) -> None:
    """Raise ValueError unless ``value`` is an integer, not a bool, in [low, high)."""
    if not is_integer(value) or not low <= value < high:
        raise ValueError(f"{name} must be {bounds}, got {value!r}")


def require_counts(successes, trials) -> None:
    """Raise ValueError unless ``successes`` of ``trials`` are integers, not
    bools, with 0 <= successes <= trials and trials >= 1."""
    if not (is_integer(successes) and is_integer(trials) and 0 <= successes <= trials >= 1):
        raise ValueError(f"invalid counts ({successes}, {trials})")


def require_instance(name: str, value, *kinds: type) -> None:
    """Raise ValueError unless ``value`` is an instance of one of ``kinds``."""
    if not isinstance(value, kinds):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ValueError(f"{name} must be a {names}, got {value!r}")


class BellTestError(Exception):
    """Base class for all errors raised by this package."""


class ZeroConditioningEvent(BellTestError):
    """Conditioning event has probability zero; the conditional is undefined."""


class DegenerateAlternatives(BellTestError):
    """One of the alternative probabilities is zero; the interference
    coefficient is undefined."""


class EmptyConditioningBranch(BellTestError):
    """No respondent produced the conditioning answer in the relevant branch,
    so a frequency estimate cannot be formed."""


class DegenerateVariance(BellTestError):
    """All three branch proportions are exactly 0 or 1, so the asymptotic
    standard error is zero.  Carries the exact margin so callers can still
    report a verdict."""

    def __init__(self, margin: float):
        self.margin = margin
        super().__init__(
            f"all branch proportions are degenerate (margin={margin:+g}); "
            "no asymptotic test is possible"
        )


class FormatError(BellTestError):
    """Malformed dataset content.  ``line`` is 1-based."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


class DuplicateRespondent(BellTestError):
    """A respondent id appears more than once in a dataset."""

    def __init__(self, respondent_id: str, line: int):
        self.respondent_id = respondent_id
        self.line = line
        super().__init__(f"line {line}: duplicate respondent id {respondent_id!r}")

"""Exception hierarchy shared by all dctk modules, and :func:`require`."""


class DctkError(Exception):
    """Base class for all library errors."""


class IndeterminateSum(DctkError, ArithmeticError):
    """Raised when +inf and -inf are added."""


class DomainError(DctkError, ValueError):
    """Point lies outside the effective domain of a function."""


class UnsupportedForm(DctkError):
    """No closed-form conjugate applies to this function shape."""


class CriteriaViolated(DctkError):
    """An optimality criterion fails; args identify the offender."""


class Unbounded(DctkError):
    """Objective unbounded from below."""


class Inconclusive(DctkError):
    """The search stopped without proving an answer either way."""


class IterationLimit(Inconclusive):
    """An iteration guard ran out before the search reached an answer."""


class Infeasible(DctkError):
    """No feasible point exists.

    violating_set, when given, names the nodes of a flow instance whose
    cut certifies it (see :mod:`dctk.netflow`)."""

    def __init__(self, message: str = "", violating_set=None):
        super().__init__(message)
        self.violating_set = violating_set


class EmptyIntersection(Infeasible):
    """Intersection of the two base polyhedra has no integer point."""


class NotFeasible(DctkError):
    """A supplied witness is not feasible for the instance."""


class ValueMismatch(DctkError):
    """Primal and dual certificate values disagree; args carry the gap."""


class NoFeasibleWeight(Inconclusive):
    """No admissible weight vector exists inside the search window."""


def require(obj, key, what: str):
    """obj[key], or a ValueError "<what> '<key>'" when obj lacks the key
    or is not a JSON object."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{what} {key!r}")
    return obj[key]

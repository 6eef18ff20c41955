"""Extended integers: plain Python ints plus two infinity sentinels.

An extended integer ("ExtInt") is either an ``int`` or one of the
singletons ``PLUS_INF`` / ``MINUS_INF``.  Comparisons are total
(``MINUS_INF < k < PLUS_INF`` for every int k).  Addition of opposite
infinities raises :class:`~dctk.errors.IndeterminateSum` rather than
saturating: certificates must never be built on a silently-defined
``inf - inf``.

Multiplication by 0 yields 0 even for infinite operands; the telescoping
sum of the linear extension relies on that convention.
"""

from __future__ import annotations

from typing import Union

from .errors import IndeterminateSum


class _Inf:
    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    # -- comparisons -------------------------------------------------
    def __lt__(self, other):
        if isinstance(other, _Inf):
            return self.sign < other.sign
        if isinstance(other, int):
            return self.sign < 0
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, _Inf):
            return self.sign <= other.sign
        if isinstance(other, int):
            return self.sign < 0
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (_Inf, int)):
            return not self.__le__(other)
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (_Inf, int)):
            return not self.__lt__(other)
        return NotImplemented

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("dctk-inf", self.sign))

    # -- arithmetic --------------------------------------------------
    def __neg__(self):
        return MINUS_INF if self.sign > 0 else PLUS_INF

    def __add__(self, other):
        if isinstance(other, _Inf):
            if other.sign != self.sign:
                raise IndeterminateSum("cannot add +inf and -inf")
            return self
        if isinstance(other, int):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (_Inf, int)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, _Inf):
            return PLUS_INF if self.sign == other.sign else MINUS_INF
        if isinstance(other, int):
            if other == 0:
                return 0
            return self if other > 0 else -self
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"


PLUS_INF = _Inf(+1)
MINUS_INF = _Inf(-1)

ExtInt = Union[int, _Inf]


def is_finite(v: ExtInt) -> bool:
    return isinstance(v, int)


def to_json(v: ExtInt):
    """Serialize for reports: ints stay ints, infinities become strings."""
    if isinstance(v, int):
        return v
    return repr(v)


def bound_from_json(v, sign: int) -> ExtInt:
    """Decode a bound where JSON null means the infinite bound of `sign`."""
    if v is None:
        return PLUS_INF if sign > 0 else MINUS_INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"expected integer or null bound, got {v!r}")
    return v


def bound_to_json(v: ExtInt):
    return v if isinstance(v, int) else None

"""Univariate and separable discrete convex functions with exact conjugates.

A univariate function phi maps Z to Z union {+inf} and satisfies
phi(k-1) + phi(k+1) >= 2*phi(k) on its (contiguous) effective domain.
Its discrete conjugate is  conj(phi)(l) = sup_k (k*l - phi(k)),
attained at a k with phi'(k-1) <= l <= phi'(k).  Each shape gives such
a k in O(1); tables and sums find it by a search on the monotone slopes.
Values are exact over arbitrary-precision ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, UnsupportedForm, require
from .extint import MINUS_INF, PLUS_INF, ExtInt, bound_from_json, bound_to_json, is_finite

@dataclass(frozen=True)
class UnivariateConvex:
    """Base class; subclasses are the concrete constructors.

    argmax(ell) is a k attaining sup_k (k*ell - phi(k)), or PLUS_INF /
    MINUS_INF when k*ell - phi(k) grows without bound as k goes that way.
    slope_range() is the least and greatest slope of phi, MINUS_INF /
    PLUS_INF past a finite end of the domain or where the slopes
    diverge: the conjugate is finite exactly on that interval.
    """

    def __post_init__(self):
        for name, kind in SHAPES[type(self)][1]:
            v = getattr(self, name)
            if kind is INT and type(v) is not int:
                raise ValueError(f"{name!r} must be an integer, got {v!r}")
            if kind is BOUND and type(v) is not int and v is not MINUS_INF and v is not PLUS_INF:
                raise ValueError(f"{name!r} must be an integer or an infinity, got {v!r}")

    def dom(self) -> Tuple[ExtInt, ExtInt]:
        raise NotImplementedError

    def value(self, k: int) -> ExtInt:
        raise NotImplementedError

    def argmax(self, ell: int) -> ExtInt:
        raise NotImplementedError

    def slope_range(self) -> Tuple[ExtInt, ExtInt]:
        raise NotImplementedError


@dataclass(frozen=True)
class Table(UnivariateConvex):
    """Explicit finite-domain values; the canonical interchange form."""

    k0: int
    values: Tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        if not self.values:
            raise ValueError("Table needs at least one value")
        for v in self.values:
            if type(v) is not int:
                raise ValueError("Table values must be finite integers")
        for i in range(1, len(self.values) - 1):
            if self.values[i - 1] + self.values[i + 1] < 2 * self.values[i]:
                raise ValueError(
                    f"not discrete convex at k={self.k0 + i}: "
                    f"{self.values[i-1]} + {self.values[i+1]} < 2*{self.values[i]}"
                )

    def dom(self):
        return (self.k0, self.k0 + len(self.values) - 1)

    def value(self, k: int) -> ExtInt:
        i = k - self.k0
        if 0 <= i < len(self.values):
            return self.values[i]
        return PLUS_INF

    def argmax(self, ell: int) -> ExtInt:
        return _search_argmax(self, ell)

    def slope_range(self):
        return (MINUS_INF, PLUS_INF)


@dataclass(frozen=True)
class Quadratic(UnivariateConvex):
    """phi(k) = a * k^2 with a positive integer a."""

    a: int

    def __post_init__(self):
        super().__post_init__()
        if self.a < 1:
            raise ValueError("Quadratic coefficient must be a positive integer")

    def dom(self):
        return (MINUS_INF, PLUS_INF)

    def value(self, k: int) -> ExtInt:
        return self.a * k * k

    def argmax(self, ell: int) -> ExtInt:
        return (ell + self.a) // (2 * self.a)

    def slope_range(self):
        return (MINUS_INF, PLUS_INF)


@dataclass(frozen=True)
class VShape(UnivariateConvex):
    """Two-slope piecewise linear kink at k0, restricted to [A, B].

    phi(k) = c_minus*(k-k0) for A <= k <= k0 and c_plus*(k-k0) for
    k0 <= k <= B; +inf outside.
    """

    k0: int
    c_minus: int
    c_plus: int
    A: ExtInt = MINUS_INF
    B: ExtInt = PLUS_INF

    def __post_init__(self):
        super().__post_init__()
        if self.c_minus > self.c_plus:
            raise ValueError("need c_minus <= c_plus")
        if not (self.A <= self.k0 <= self.B):
            raise ValueError("need A <= k0 <= B")

    def dom(self):
        return (self.A, self.B)

    def value(self, k: int) -> ExtInt:
        if not (self.A <= k <= self.B):
            return PLUS_INF
        c = self.c_minus if k <= self.k0 else self.c_plus
        return c * (k - self.k0)

    def argmax(self, ell: int) -> ExtInt:
        if ell < self.c_minus:
            return self.A
        if ell > self.c_plus:
            return self.B
        return self.k0

    def slope_range(self):
        return (MINUS_INF if is_finite(self.A) else self.c_minus,
                PLUS_INF if is_finite(self.B) else self.c_plus)


@dataclass(frozen=True)
class FlatBottom(UnivariateConvex):
    """Zero on [a, b], slopes c_minus / c_plus outside, domain [A, B]."""

    a: ExtInt
    b: ExtInt
    c_minus: int
    c_plus: int
    A: ExtInt = MINUS_INF
    B: ExtInt = PLUS_INF

    def __post_init__(self):
        super().__post_init__()
        if not (self.c_minus <= 0 <= self.c_plus):
            raise ValueError("need c_minus <= 0 <= c_plus")
        if not (self.A <= self.a <= self.b <= self.B):
            raise ValueError("need A <= a <= b <= B")

    def dom(self):
        return (self.A, self.B)

    def value(self, k: int) -> ExtInt:
        if not (self.A <= k <= self.B):
            return PLUS_INF
        if self.a <= k <= self.b:
            return 0
        if k < self.a:
            return self.c_minus * (k - self.a)
        return self.c_plus * (k - self.b)

    def argmax(self, ell: int) -> ExtInt:
        if ell < self.c_minus:
            return self.A
        if ell > self.c_plus:
            return self.B
        # On [a, b] the objective is k*ell: a maximizes it for ell < 0, b
        # for ell > 0, and any point of [a, b] for ell = 0.
        if ell < 0 or (ell == 0 and is_finite(self.a)):
            return self.a
        return self.b if ell > 0 or is_finite(self.b) else 0

    def slope_range(self):
        lo = MINUS_INF if is_finite(self.A) else self.c_minus if is_finite(self.a) else 0
        hi = PLUS_INF if is_finite(self.B) else self.c_plus if is_finite(self.b) else 0
        return (lo, hi)


@dataclass(frozen=True)
class LinearPlus(UnivariateConvex):
    """inner(k) + c*k."""

    c: int
    inner: UnivariateConvex

    def dom(self):
        return self.inner.dom()

    def value(self, k: int) -> ExtInt:
        return self.inner.value(k) + self.c * k

    def argmax(self, ell: int) -> ExtInt:
        return self.inner.argmax(ell - self.c)

    def slope_range(self):
        lo, hi = self.inner.slope_range()
        return (lo + self.c, hi + self.c)


@dataclass(frozen=True)
class Shifted(UnivariateConvex):
    """inner(k - k0)."""

    k0: int
    inner: UnivariateConvex

    def dom(self):
        lo, hi = self.inner.dom()
        return (lo + self.k0, hi + self.k0)

    def value(self, k: int) -> ExtInt:
        return self.inner.value(k - self.k0)

    def argmax(self, ell: int) -> ExtInt:
        return self.inner.argmax(ell) + self.k0

    def slope_range(self):
        return self.inner.slope_range()


@dataclass(frozen=True)
class Restricted(UnivariateConvex):
    """inner clipped to the integer interval [A, B]; +inf outside."""

    A: ExtInt
    B: ExtInt
    inner: UnivariateConvex

    def __post_init__(self):
        super().__post_init__()
        if self.A > self.B:
            raise ValueError("need A <= B")

    def dom(self):
        lo, hi = self.inner.dom()
        return (max(self.A, lo), min(self.B, hi))

    def value(self, k: int) -> ExtInt:
        if not (self.A <= k <= self.B):
            return PLUS_INF
        return self.inner.value(k)

    def argmax(self, ell: int) -> ExtInt:
        # k*ell - inner(k) is concave, so its maximum over the interval
        # sits at the inner argmax clipped to the interval.
        lo, hi = _nonempty_dom(self)
        return max(lo, min(self.inner.argmax(ell), hi))

    def slope_range(self):
        lo, hi = self.inner.slope_range()
        return (MINUS_INF if is_finite(self.A) else lo, PLUS_INF if is_finite(self.B) else hi)


@dataclass(frozen=True)
class SumOf(UnivariateConvex):
    """Pointwise sum of discrete convex functions."""

    parts: Tuple[UnivariateConvex, ...]

    def __post_init__(self):
        super().__post_init__()
        if not self.parts:
            raise ValueError("SumOf needs at least one part")

    def dom(self):
        lo: ExtInt = MINUS_INF
        hi: ExtInt = PLUS_INF
        for p in self.parts:
            plo, phi = p.dom()
            lo = max(lo, plo)
            hi = min(hi, phi)
        return (lo, hi)

    def value(self, k: int) -> ExtInt:
        return sum(p.value(k) for p in self.parts)

    def argmax(self, ell: int) -> ExtInt:
        return _search_argmax(self, ell, self.parts)

    def slope_range(self):
        ranges = [p.slope_range() for p in self.parts]
        return (sum(lo for lo, _ in ranges), sum(hi for _, hi in ranges))


# ---------------------------------------------------------------------------
# Basic operations


def _slope(phi: UnivariateConvex, k: int, lo: ExtInt, hi: ExtInt) -> ExtInt:
    """phi(k+1) - phi(k) on the domain [lo, hi], +inf from hi on and -inf below lo."""
    if k >= hi:
        # phi(k) is the last finite value (k == hi) or both are +inf.
        return PLUS_INF
    if k < lo:
        return MINUS_INF
    return phi.value(k + 1) - phi.value(k)


def _nonempty_dom(phi: UnivariateConvex) -> Tuple[ExtInt, ExtInt]:
    lo, hi = phi.dom()
    if lo > hi:
        raise DomainError("function is nowhere finite")
    return lo, hi


def _search_argmax(phi: UnivariateConvex, ell: int, parts: Sequence[UnivariateConvex] = ()) -> ExtInt:
    """A k with phi'(k-1) <= ell <= phi'(k), which attains the supremum,
    for the shapes with no closed form (tables and sums): the least k in
    a bracket with phi'(k) >= ell, by bisection on the monotone slopes.
    The bracket is the domain; for a sum of m parts it is cut to the least
    part argmax at c - 1 and the greatest at c, c = ceil(ell / m): below
    the first every part's slope is at most c - 1 < ell / m, from the
    second on at least c >= ell / m.  On a side still unbounded (a part's
    argmax is infinite there) the bracket gallops out from 0, or from its
    other end where that lies beyond 0.  Downwards
    it stops at a slope below ell or at one equal to the lower limit
    slope: then ell is that limit, and every k further down attains the
    same value."""
    lo, hi = _nonempty_dom(phi)
    smin, smax = phi.slope_range()
    if ell > smax:
        return PLUS_INF
    if ell < smin:
        return MINUS_INF
    a, b = lo, hi
    if parts:
        c = -(-ell // len(parts))
        a = max(a, min(p.argmax(c - 1) for p in parts))
        b = min(b, max(p.argmax(c) for p in parts))
    if not is_finite(b):
        b, step = (max(0, a) if is_finite(a) else 0), 1
        while _slope(phi, b, lo, hi) < ell:
            b, step = b + step, 2 * step
    if not is_finite(a):
        # At ell == smin the bracket stops at the first slope equal to it.
        bar = ell + 1 if ell == smin else ell
        a, step = min(0, b), 1
        while _slope(phi, a, lo, hi) >= bar:
            a, step = a - step, 2 * step
    while a < b:
        mid = (a + b) // 2
        if _slope(phi, mid, lo, hi) >= ell:
            b = mid
        else:
            a = mid + 1
    return a


def conjugate_eval(phi: UnivariateConvex, ell: int) -> ExtInt:
    """sup_k (k*ell - phi(k)), the value at phi.argmax(ell)."""
    k = phi.argmax(ell)
    return k * ell - phi.value(k) if is_finite(k) else PLUS_INF


def conjugate_closed(phi: UnivariateConvex, ell: int) -> ExtInt:
    """:func:`conjugate_eval` for the shapes whose argmax is a closed
    form: raises UnsupportedForm when phi holds a Table or a SumOf."""
    node = phi
    while isinstance(node, (LinearPlus, Shifted, Restricted)):
        if isinstance(node, Restricted):
            # An empty restriction is an error before what it holds.
            _nonempty_dom(node)
        node = node.inner
    if isinstance(node, (Table, SumOf)):
        raise UnsupportedForm(f"no closed-form conjugate for {type(node).__name__}")
    return conjugate_eval(phi, ell)


def subdifferential_interval(
    phi: UnivariateConvex, k_star: int
) -> Tuple[ExtInt, ExtInt]:
    """(phi'(k*-1), phi'(k*)); ell fits k* iff it lies inside, iff k*ell = phi(k*) + conj(ell)."""
    lo, hi = phi.dom()
    if not (lo <= k_star <= hi):
        raise DomainError(f"k*={k_star} outside dom {lo}..{hi}")
    return (_slope(phi, k_star - 1, lo, hi), _slope(phi, k_star, lo, hi))


# ---------------------------------------------------------------------------
# Separable functions


@dataclass(frozen=True)
class SeparableConvex:
    """Phi(z) = sum_s phi_s(z(s)) over a fixed ordered ground set."""

    parts: Tuple[Tuple[str, UnivariateConvex], ...]

    def value(self, z: Sequence[int]) -> ExtInt:
        self._check_len(z)
        return sum(p.value(z[i]) for i, (_, p) in enumerate(self.parts))

    def prime(self, z: Sequence[int]) -> List[ExtInt]:
        """Componentwise right derivatives phi_s'(z(s))."""
        self._check_len(z)
        out = []
        for i, (_, p) in enumerate(self.parts):
            lo, hi = p.dom()
            out.append(_slope(p, z[i], lo, hi))
        return out

    def prime_minus(self, z: Sequence[int]) -> List[ExtInt]:
        """Componentwise left slopes phi_s'(z(s) - 1)."""
        return self.prime([v - 1 for v in z])

    def first_unfit(self, z: Sequence[int], w: Sequence[int]) -> Optional[int]:
        """Index of the first s outside the fitting sandwich
        phi_s'(z(s)-1) <= w(s) <= phi_s'(z(s)), or None when w fits z."""
        for i, (lo, wi, hi) in enumerate(zip(self.prime_minus(z), w, self.prime(z))):
            if not lo <= wi <= hi:
                return i
        return None

    def conjugate(self, w: Sequence[int]) -> ExtInt:
        self._check_len(w)
        return sum(
            conjugate_eval(p, w[i]) for i, (_, p) in enumerate(self.parts)
        )

    def _check_len(self, v: Sequence[int]):
        if len(v) != len(self.parts):
            raise ValueError(f"expected {len(self.parts)} components, got {len(v)}")


class _Memo(dict):
    """k -> f(k), each computed on its first read."""

    def __init__(self, f: Callable[[int], ExtInt]):
        self.f = f

    def __missing__(self, k: int) -> ExtInt:
        v = self[k] = self.f(k)
        return v


def square_sum(elements: Iterable[str], coeffs: Optional[Sequence[int]] = None) -> SeparableConvex:
    names = list(elements)
    if coeffs is None:
        coeffs = [1] * len(names)
    return SeparableConvex(tuple((n, Quadratic(c)) for n, c in zip(names, coeffs)))


def linear_fn(c: int) -> UnivariateConvex:
    """c*k as a degenerate two-slope function."""
    return VShape(0, c, c)


def linear_cost(elements: Iterable[str], c: Sequence[int]) -> SeparableConvex:
    return SeparableConvex(tuple((n, linear_fn(ci)) for n, ci in zip(elements, c)))


# ---------------------------------------------------------------------------
# Each shape's JSON tag and constructor arguments, with their kinds: an int;
# a bound, an int or an infinity (JSON null is -inf for A and a, +inf for B
# and b); a table's values; the inner shape; a sum's parts.

INT, BOUND, VALUES, INNER, PARTS = "int", "bound", "values", "inner", "parts"

SHAPES = {
    Table: ("table", (("k0", INT), ("values", VALUES))),
    Quadratic: ("quadratic", (("a", INT),)),
    VShape: ("vshape", (("k0", INT), ("c_minus", INT), ("c_plus", INT), ("A", BOUND), ("B", BOUND))),
    FlatBottom: ("flat_bottom", (("a", BOUND), ("b", BOUND), ("c_minus", INT), ("c_plus", INT),
                                 ("A", BOUND), ("B", BOUND))),
    LinearPlus: ("linear_plus", (("c", INT), ("inner", INNER))),
    Shifted: ("shifted", (("k0", INT), ("inner", INNER))),
    Restricted: ("restricted", (("A", BOUND), ("B", BOUND), ("inner", INNER))),
    SumOf: ("sum_of", (("parts", PARTS),)),
}
_CLASS_OF_TAG = {tag: cls for cls, (tag, _) in SHAPES.items()}


def to_json(phi: UnivariateConvex):
    if type(phi) not in SHAPES:
        raise ValueError(f"unknown form {type(phi).__name__}")
    tag, args = SHAPES[type(phi)]
    out = {"form": tag}
    for name, kind in args:
        v = getattr(phi, name)
        out[name] = (bound_to_json(v) if kind is BOUND
                     else list(v) if kind is VALUES
                     else to_json(v) if kind is INNER
                     else [to_json(p) for p in v] if kind is PARTS
                     else v)
    return out


def from_json(obj) -> UnivariateConvex:
    """The shape of a tagged object; a bad argument's error names the form and key."""
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError("expected a tagged object with a 'form' key")
    form = obj["form"]
    cls = _CLASS_OF_TAG.get(form) if isinstance(form, str) else None
    if cls is None:
        raise ValueError(f"unknown form tag {form!r}")

    def inner(v, what: str) -> UnivariateConvex:
        if not (isinstance(v, dict) and "form" in v):
            raise ValueError(f"{form}: {what} must be a tagged object, got {v!r}")
        return from_json(v)

    args = []
    for name, kind in SHAPES[cls][1]:
        v = obj.get(name) if kind is BOUND else require(obj, name, f"{form}: missing")
        if kind is BOUND:
            if v is not None and type(v) is not int:
                raise ValueError(f"{form}: {name!r} must be an integer or null, got {v!r}")
            args.append(bound_from_json(v, +1 if name in ("B", "b") else -1))
        elif kind in (VALUES, PARTS) and not isinstance(v, list):
            raise ValueError(f"{form}: {name!r} must be a list, got {v!r}")
        else:
            args.append(tuple(v) if kind is VALUES
                        else inner(v, repr(name)) if kind is INNER
                        else tuple(inner(p, f"{name!r} entry {i}") for i, p in enumerate(v)) if kind is PARTS
                        else v)
    try:
        return cls(*args)
    except ValueError as e:  # an int argument of the wrong type, or a bad value
        raise ValueError(f"{form}: {e}") from None


def separable_to_json(Phi: SeparableConvex):
    return {name: to_json(p) for name, p in Phi.parts}


def separable_from_json(obj, elements: Optional[Sequence[str]] = None) -> SeparableConvex:
    if not isinstance(obj, dict):
        raise ValueError("expected an object mapping element names to forms")
    names = list(elements) if elements is not None else sorted(obj)
    return SeparableConvex(tuple((n, from_json(require(obj, n, "phi: missing element"))) for n in names))

"""Univariate and separable discrete convex functions with exact conjugates.

A univariate function phi maps Z to Z union {+inf} and satisfies
phi(k-1) + phi(k+1) >= 2*phi(k) on its (contiguous) effective domain.
Its discrete conjugate is  conj(phi)(l) = sup_k (k*l - phi(k)),
computed here two independent ways: a generic monotone-slope search
(:func:`conjugate_eval`) and per-shape closed formulas
(:func:`conjugate_closed`).  Both are exact over arbitrary-precision ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, IndeterminateDifference, UnsupportedForm
from .extint import (
    MINUS_INF,
    PLUS_INF,
    ExtInt,
    bound_from_json,
    bound_to_json,
    ext_min,
    ext_sum,
    is_finite,
)

# A "tail" describes the slope sequence phi'(k) on an unbounded side of
# the domain: (c, K) means the slope equals c for all k <= K (low side)
# or all k >= K (high side); None means the slopes diverge to -inf/+inf.
Tail = Optional[Tuple[int, int]]


@dataclass(frozen=True)
class UnivariateConvex:
    """Base class; subclasses are the concrete constructors."""

    def dom(self) -> Tuple[ExtInt, ExtInt]:
        raise NotImplementedError

    def value(self, k: int) -> ExtInt:
        raise NotImplementedError

    def tail_lo(self) -> Tail:
        raise NotImplementedError

    def tail_hi(self) -> Tail:
        raise NotImplementedError


@dataclass(frozen=True)
class Table(UnivariateConvex):
    """Explicit finite-domain values; the canonical interchange form."""

    k0: int
    values: Tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("Table needs at least one value")
        for v in self.values:
            if isinstance(v, bool) or not isinstance(v, int):
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

    def tail_lo(self):  # pragma: no cover - domain is always bounded
        raise AssertionError("Table domain is bounded")

    tail_hi = tail_lo


@dataclass(frozen=True)
class Quadratic(UnivariateConvex):
    """phi(k) = a * k^2 with a positive integer a."""

    a: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("Quadratic coefficient must be a positive integer")

    def dom(self):
        return (MINUS_INF, PLUS_INF)

    def value(self, k: int) -> ExtInt:
        return self.a * k * k

    def tail_lo(self):
        return None

    def tail_hi(self):
        return None


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

    def tail_lo(self):
        return (self.c_minus, self.k0 - 1)

    def tail_hi(self):
        return (self.c_plus, self.k0)


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

    def tail_lo(self):
        if is_finite(self.a):
            return (self.c_minus, self.a - 1)
        anchor = self.b - 1 if is_finite(self.b) else 0
        return (0, anchor)

    def tail_hi(self):
        if is_finite(self.b):
            return (self.c_plus, self.b)
        anchor = self.a if is_finite(self.a) else 0
        return (0, anchor)


@dataclass(frozen=True)
class LinearPlus(UnivariateConvex):
    """inner(k) + c*k."""

    c: int
    inner: UnivariateConvex

    def dom(self):
        return self.inner.dom()

    def value(self, k: int) -> ExtInt:
        return self.inner.value(k) + self.c * k

    def _shift_tail(self, t: Tail) -> Tail:
        return None if t is None else (t[0] + self.c, t[1])

    def tail_lo(self):
        return self._shift_tail(self.inner.tail_lo())

    def tail_hi(self):
        return self._shift_tail(self.inner.tail_hi())


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

    def _shift_tail(self, t: Tail) -> Tail:
        return None if t is None else (t[0], t[1] + self.k0)

    def tail_lo(self):
        return self._shift_tail(self.inner.tail_lo())

    def tail_hi(self):
        return self._shift_tail(self.inner.tail_hi())


@dataclass(frozen=True)
class Restricted(UnivariateConvex):
    """inner clipped to the integer interval [A, B]; +inf outside."""

    A: ExtInt
    B: ExtInt
    inner: UnivariateConvex

    def __post_init__(self):
        if self.A > self.B:
            raise ValueError("need A <= B")

    def dom(self):
        lo, hi = self.inner.dom()
        return (max(self.A, lo), ext_min(self.B, hi))

    def value(self, k: int) -> ExtInt:
        if not (self.A <= k <= self.B):
            return PLUS_INF
        return self.inner.value(k)

    def tail_lo(self):
        # Only consulted when dom lo is -inf, hence A is -inf too.
        return self.inner.tail_lo()

    def tail_hi(self):
        return self.inner.tail_hi()


@dataclass(frozen=True)
class SumOf(UnivariateConvex):
    """Pointwise sum of discrete convex functions."""

    parts: Tuple[UnivariateConvex, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("SumOf needs at least one part")

    def dom(self):
        lo: ExtInt = MINUS_INF
        hi: ExtInt = PLUS_INF
        for p in self.parts:
            plo, phi = p.dom()
            lo = max(lo, plo)
            hi = ext_min(hi, phi)
        return (lo, hi)

    def value(self, k: int) -> ExtInt:
        return ext_sum(p.value(k) for p in self.parts)

    def tail_lo(self):
        c, ks = 0, []
        for p in self.parts:
            t = p.tail_lo()
            if t is None:
                return None
            c += t[0]
            ks.append(t[1])
        return (c, min(ks))

    def tail_hi(self):
        c, ks = 0, []
        for p in self.parts:
            t = p.tail_hi()
            if t is None:
                return None
            c += t[0]
            ks.append(t[1])
        return (c, max(ks))


# ---------------------------------------------------------------------------
# Basic operations


def right_derivative(phi: UnivariateConvex, k: int) -> ExtInt:
    """phi(k+1) - phi(k) under extended-integer rules."""
    v1 = phi.value(k + 1)
    v0 = phi.value(k)
    if not is_finite(v1) and not is_finite(v0):
        raise IndeterminateDifference(f"phi({k}) and phi({k + 1}) are both infinite")
    if not is_finite(v1):
        return PLUS_INF
    if not is_finite(v0):
        return MINUS_INF
    return v1 - v0


def _slope(phi: UnivariateConvex, k: int, lo: ExtInt, hi: ExtInt) -> ExtInt:
    """Monotone slope sequence extended past the domain for searching."""
    if k >= hi:
        # phi(k) is the last finite value (k == hi) or both are +inf.
        return PLUS_INF
    if k < lo:
        return MINUS_INF
    return right_derivative(phi, k)


def conjugate_eval(phi: UnivariateConvex, ell: int) -> ExtInt:
    """sup_k (k*ell - phi(k)) by binary search on the monotone slopes."""
    value, _ = conjugate_eval_with_argmax(phi, ell)
    return value


def conjugate_eval_with_argmax(
    phi: UnivariateConvex, ell: int
) -> Tuple[ExtInt, Optional[int]]:
    """Like :func:`conjugate_eval` but also reports an attaining k (or None)."""
    lo, hi = phi.dom()
    if lo > hi:
        raise DomainError("function is nowhere finite")

    # Upper search bound.
    if is_finite(hi):
        hi_k = hi
    else:
        tail = phi.tail_hi()
        if tail is None:
            k = max(0, lo) if is_finite(lo) else 0
            step = 1
            while _slope(phi, k, lo, hi) < ell:
                k += step
                step *= 2
            hi_k = k
        else:
            c, anchor = tail
            if ell > c:
                return (PLUS_INF, None)
            hi_k = anchor

    # Lower search bound.
    if is_finite(lo):
        lo_k = lo
    else:
        tail = phi.tail_lo()
        if tail is None:
            k = min(0, hi_k)
            step = 1
            while _slope(phi, k, lo, hi) >= ell:
                k -= step
                step *= 2
            lo_k = k
        else:
            c, anchor = tail
            if ell < c:
                return (PLUS_INF, None)
            lo_k = min(anchor, hi_k)

    # Smallest k in [lo_k, hi_k] with phi'(k) >= ell; there the pair
    # (k, ell) is fitting and the supremum is attained.
    a, b = lo_k, hi_k
    while a < b:
        mid = (a + b) // 2
        if _slope(phi, mid, lo, hi) >= ell:
            b = mid
        else:
            a = mid + 1
    k_star = a
    return (k_star * ell - phi.value(k_star), k_star)


def conjugate_closed(phi: UnivariateConvex, ell: int) -> ExtInt:
    """Closed-form conjugate for the shape-specific constructors.

    Each shape gives an attaining k in O(1) (:func:`_closed_argmax`) and
    the value is k*ell - phi(k).  Raises UnsupportedForm for Table and
    SumOf (callers fall back to :func:`conjugate_eval`).
    """
    k = _closed_argmax(phi, ell)
    return k * ell - phi.value(k) if is_finite(k) else PLUS_INF


def _closed_argmax(phi: UnivariateConvex, ell: int) -> ExtInt:
    """A k attaining sup_k (k*ell - phi(k)), or PLUS_INF / MINUS_INF when
    k*ell - phi(k) grows without bound as k goes that way."""
    if isinstance(phi, Quadratic):
        return (ell + phi.a) // (2 * phi.a)
    if isinstance(phi, VShape):
        if ell < phi.c_minus:
            return phi.A
        if ell > phi.c_plus:
            return phi.B
        return phi.k0
    if isinstance(phi, FlatBottom):
        if ell < phi.c_minus:
            return phi.A
        if ell > phi.c_plus:
            return phi.B
        # On [a, b] the objective is k*ell: a maximizes it for ell < 0, b
        # for ell > 0, and any point of [a, b] for ell = 0.
        if ell < 0 or (ell == 0 and is_finite(phi.a)):
            return phi.a
        return phi.b if ell > 0 or is_finite(phi.b) else 0
    if isinstance(phi, LinearPlus):
        return _closed_argmax(phi.inner, ell - phi.c)
    if isinstance(phi, Shifted):
        return _closed_argmax(phi.inner, ell) + phi.k0
    if isinstance(phi, Restricted):
        # k*ell - inner(k) is concave, so its maximum over the interval
        # sits at the inner argmax clipped to the interval.
        lo, hi = phi.dom()
        if lo > hi:
            raise DomainError("function is nowhere finite")
        return max(lo, ext_min(_closed_argmax(phi.inner, ell), hi))
    raise UnsupportedForm(f"no closed-form conjugate for {type(phi).__name__}")


@dataclass(frozen=True)
class FittingWitness:
    k_star: int
    ell_star: int
    lower: ExtInt  # phi'(k*-1)
    upper: ExtInt  # phi'(k*)


def is_fitting(
    phi: UnivariateConvex, k_star: int, ell_star: int
) -> Tuple[bool, FittingWitness]:
    """Sandwich test phi'(k*-1) <= ell* <= phi'(k*)."""
    lower, upper = subdifferential_interval(phi, k_star)
    return lower <= ell_star <= upper, FittingWitness(k_star, ell_star, lower, upper)


def subdifferential_interval(
    phi: UnivariateConvex, k_star: int
) -> Tuple[ExtInt, ExtInt]:
    lo, hi = phi.dom()
    if not (lo <= k_star <= hi):
        raise DomainError(f"k*={k_star} outside dom {lo}..{hi}")
    return (_slope(phi, k_star - 1, lo, hi), _slope(phi, k_star, lo, hi))


def materialize_table(phi: UnivariateConvex, lo: int, hi: int) -> Table:
    """Snapshot phi on [lo, hi] intersected with its domain as a Table."""
    dlo, dhi = phi.dom()
    lo = max(lo, dlo) if is_finite(dlo) else lo
    hi = min(hi, dhi) if is_finite(dhi) else hi
    if lo > hi:
        raise DomainError("window misses the effective domain")
    vals = tuple(phi.value(k) for k in range(lo, hi + 1))
    if any(not is_finite(v) for v in vals):
        raise DomainError("window contains infinite values")
    return Table(lo, vals)


# ---------------------------------------------------------------------------
# Separable functions


@dataclass(frozen=True)
class SeparableConvex:
    """Phi(z) = sum_s phi_s(z(s)) over a fixed ordered ground set."""

    parts: Tuple[Tuple[str, UnivariateConvex], ...]

    @property
    def elements(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.parts)

    def part(self, name: str) -> UnivariateConvex:
        for n, p in self.parts:
            if n == name:
                return p
        raise KeyError(name)

    def value(self, z: Sequence[int]) -> ExtInt:
        self._check_len(z)
        return ext_sum(p.value(z[i]) for i, (_, p) in enumerate(self.parts))

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
        return ext_sum(
            conjugate_eval(p, w[i]) for i, (_, p) in enumerate(self.parts)
        )

    def _check_len(self, v: Sequence[int]):
        if len(v) != len(self.parts):
            raise ValueError(f"expected {len(self.parts)} components, got {len(v)}")


def conjugate_table(Phi: SeparableConvex) -> Callable[[Sequence[int]], ExtInt]:
    """Phi.conjugate for one search: each component's conjugate_eval
    value is kept in a dict keyed by its entry of w, and the sum stops at
    the first infinite component.  Make one per search call."""
    parts = [p for _, p in Phi.parts]
    if any(lo > hi for lo, hi in (p.dom() for p in parts)):
        return Phi.conjugate  # raises DomainError on its first call, as before
    memos: List[Dict[int, ExtInt]] = [{} for _ in parts]

    def conj(w: Sequence[int]) -> ExtInt:
        total = 0
        for phi, memo, ell in zip(parts, memos, w):
            v = memo.get(ell)
            if v is None:
                v = memo[ell] = conjugate_eval(phi, ell)
            if v is PLUS_INF:
                return PLUS_INF
            total += v
        return total

    return conj


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
# JSON encoding (tagged objects; null = infinite bound)


def to_json(phi: UnivariateConvex):
    if isinstance(phi, Table):
        return {"form": "table", "k0": phi.k0, "values": list(phi.values)}
    if isinstance(phi, Quadratic):
        return {"form": "quadratic", "a": phi.a}
    if isinstance(phi, VShape):
        return {
            "form": "vshape",
            "k0": phi.k0,
            "c_minus": phi.c_minus,
            "c_plus": phi.c_plus,
            "A": bound_to_json(phi.A),
            "B": bound_to_json(phi.B),
        }
    if isinstance(phi, FlatBottom):
        return {
            "form": "flat_bottom",
            "a": bound_to_json(phi.a),
            "b": bound_to_json(phi.b),
            "c_minus": phi.c_minus,
            "c_plus": phi.c_plus,
            "A": bound_to_json(phi.A),
            "B": bound_to_json(phi.B),
        }
    if isinstance(phi, LinearPlus):
        return {"form": "linear_plus", "c": phi.c, "inner": to_json(phi.inner)}
    if isinstance(phi, Shifted):
        return {"form": "shifted", "k0": phi.k0, "inner": to_json(phi.inner)}
    if isinstance(phi, Restricted):
        return {
            "form": "restricted",
            "A": bound_to_json(phi.A),
            "B": bound_to_json(phi.B),
            "inner": to_json(phi.inner),
        }
    if isinstance(phi, SumOf):
        return {"form": "sum_of", "parts": [to_json(p) for p in phi.parts]}
    raise ValueError(f"unknown form {type(phi).__name__}")


def from_json(obj) -> UnivariateConvex:
    if not isinstance(obj, dict) or "form" not in obj:
        raise ValueError("expected a tagged object with a 'form' key")
    for key in ("k0", "a", "c", "c_minus", "c_plus"):
        # flat_bottom's "a" is a bound, where null means unbounded.
        if obj.get(key) is not None and type(obj[key]) is not int:
            raise ValueError(f"{key!r} must be an integer, got {obj[key]!r}")
    form = obj["form"]
    if form == "table":
        return Table(obj["k0"], tuple(obj["values"]))
    if form == "quadratic":
        return Quadratic(obj["a"])
    if form == "vshape":
        return VShape(
            obj["k0"],
            obj["c_minus"],
            obj["c_plus"],
            bound_from_json(obj.get("A"), -1),
            bound_from_json(obj.get("B"), +1),
        )
    if form == "flat_bottom":
        return FlatBottom(
            bound_from_json(obj.get("a"), -1),
            bound_from_json(obj.get("b"), +1),
            obj["c_minus"],
            obj["c_plus"],
            bound_from_json(obj.get("A"), -1),
            bound_from_json(obj.get("B"), +1),
        )
    if form == "linear_plus":
        return LinearPlus(obj["c"], from_json(obj["inner"]))
    if form == "shifted":
        return Shifted(obj["k0"], from_json(obj["inner"]))
    if form == "restricted":
        return Restricted(
            bound_from_json(obj.get("A"), -1),
            bound_from_json(obj.get("B"), +1),
            from_json(obj["inner"]),
        )
    if form == "sum_of":
        return SumOf(tuple(from_json(p) for p in obj["parts"]))
    raise ValueError(f"unknown form tag {form!r}")


def separable_to_json(Phi: SeparableConvex):
    return {name: to_json(p) for name, p in Phi.parts}


def separable_from_json(obj, elements: Optional[Sequence[str]] = None) -> SeparableConvex:
    if not isinstance(obj, dict):
        raise ValueError("expected an object mapping element names to forms")
    names = list(elements) if elements is not None else sorted(obj)
    return SeparableConvex(tuple((n, from_json(obj[n])) for n in names))

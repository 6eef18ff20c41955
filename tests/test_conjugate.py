import collections
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctk import conjugate
from dctk.conjugate import (
    SHAPES,
    FlatBottom,
    LinearPlus,
    Quadratic,
    Restricted,
    SeparableConvex,
    Shifted,
    SumOf,
    Table,
    UnivariateConvex,
    VShape,
    conjugate_closed,
    conjugate_eval,
    from_json,
    square_sum,
    subdifferential_interval,
    to_json,
)
from dctk.errors import DomainError, UnsupportedForm
from dctk.extint import MINUS_INF, PLUS_INF, is_finite

from helpers import (
    brute_conjugate,
    brute_conjugate_unbounded,
    dom_range,
    materialize_table,
    random_convex_table,
    random_large_slope_form,
    run_under_memory_limit,
    univariate_corpus,
)


class TestEval:
    def test_quadratic(self):
        assert Quadratic(1).value(3) == 9

    def test_vshape(self):
        assert VShape(3, -1, 1).value(5) == 2

    def test_restricted_outside(self):
        assert Restricted(0, 2, Quadratic(1)).value(-1) is PLUS_INF

    def test_table_convexity_rejected(self):
        with pytest.raises(ValueError):
            Table(0, (0, 5, 0))

    def test_table_values_must_be_ints(self):
        with pytest.raises(ValueError):
            Table(0, (0, PLUS_INF))


class TestRightDerivative:
    """The right slope phi'(k), the upper end of subdifferential_interval."""

    def test_quadratic_unit(self):
        assert subdifferential_interval(Quadratic(1), 1)[1] == 3

    def test_quadratic_weighted(self):
        assert subdifferential_interval(Quadratic(2), 1)[1] == 6  # 8 - 2

    def test_flat_bottom_zero(self):
        assert subdifferential_interval(FlatBottom(1, 2, -1, 1), 1)[1] == 0

    def test_outside_domain(self):
        # +inf from the top of the domain on, -inf below its bottom.
        t = Table(0, (1, 2))
        assert subdifferential_interval(t, 1)[1] is PLUS_INF
        assert subdifferential_interval(t, 0)[0] is MINUS_INF

    def test_monotone_on_corpus(self):
        for phi in univariate_corpus(60):
            lo, hi = dom_range(phi)
            prev = MINUS_INF
            for k in range(lo, hi):
                cur = subdifferential_interval(phi, k)[1]
                assert prev <= cur
                prev = cur


def slope_by_values(phi, k):
    """phi(k+1) - phi(k) from two values, +inf from the last point of the
    domain on and -inf before its first: the slope every check reads."""
    v0, v1 = phi.value(k), phi.value(k + 1)
    if is_finite(v0) and is_finite(v1):
        return v1 - v0
    return PLUS_INF if is_finite(v0) or k >= phi.dom()[1] else MINUS_INF


class TestSlopesMatchValueDifferences:
    """prime, prime_minus, subdifferential_interval and first_unfit against
    slope_by_values, on the corpus, the large-slope forms and forms with
    an unbounded domain, at every k of the domain and two beyond it."""

    @staticmethod
    def forms():
        rng = random.Random(29)
        unbounded = [Quadratic(3), VShape(2, -5, 7), FlatBottom(MINUS_INF, 1, -3, 4),
                     SumOf((Quadratic(1), VShape(0, -1, 1, -3, PLUS_INF)))]
        return univariate_corpus() + [random_large_slope_form(rng) for _ in range(60)] + unbounded

    @staticmethod
    def points(phi):
        lo, hi = phi.dom()
        return range((lo if is_finite(lo) else -10) - 2, (hi if is_finite(hi) else 10) + 3)

    def test_each_slope_read(self):
        checked = 0
        for phi in self.forms():
            Phi = SeparableConvex((("x", phi),))
            lo, hi = phi.dom()
            for k in self.points(phi):
                left, right = slope_by_values(phi, k - 1), slope_by_values(phi, k)
                assert Phi.prime((k,)) == [right] and Phi.prime_minus((k,)) == [left]
                if lo <= k <= hi:
                    assert subdifferential_interval(phi, k) == (left, right)
                else:
                    with pytest.raises(DomainError):
                        subdifferential_interval(phi, k)
                ells = {0} | {s + d for s in (left, right) if is_finite(s) for d in (-1, 0, 1)}
                for ell in ells:
                    assert (Phi.first_unfit((k,), (ell,)) is None) == (left <= ell <= right)
                    checked += 1
        assert checked > 20000

    def test_first_unfit_is_the_first_component(self):
        rng = random.Random(31)
        forms = self.forms()
        verdicts = collections.Counter()
        for _ in range(400):
            parts = rng.sample(forms, 3)
            z = tuple(rng.choice(self.points(p)) for p in parts)
            w = []
            for p, k in zip(parts, z):
                ends = [s for s in (slope_by_values(p, k - 1), slope_by_values(p, k)) if is_finite(s)]
                w.append(rng.choice(ends or [0]) + rng.choice((-1, 0, 0, 1)))
            unfit = [i for i, (p, k, ell) in enumerate(zip(parts, z, w))
                     if not slope_by_values(p, k - 1) <= ell <= slope_by_values(p, k)]
            Phi = SeparableConvex(tuple((f"x{i}", p) for i, p in enumerate(parts)))
            expected = unfit[0] if unfit else None
            assert Phi.first_unfit(z, w) == expected
            verdicts[expected] += 1
        assert set(verdicts) == {None, 0, 1, 2}, verdicts


class TestConjugateEval:
    def test_quadratic(self):
        assert conjugate_eval(Quadratic(1), 3) == 2

    def test_quadratic_weighted(self):
        assert conjugate_eval(Quadratic(2), 5) == 3

    def test_vshape_unbounded(self):
        assert conjugate_eval(VShape(3, -1, 1), 2) is PLUS_INF

    def test_vshape_zero(self):
        assert conjugate_eval(VShape(3, -1, 1), 0) == 0

    def test_argmax_is_attaining(self):
        rng = random.Random(5)
        cases = [(phi, range(-5, 6)) for phi in univariate_corpus(40)]
        cases += [(random_large_slope_form(rng), [rng.randint(-10**6, 10**6) for _ in range(4)] + [0])
                  for _ in range(40)]
        for phi, ells in cases:
            lo, hi = dom_range(phi)
            for ell in ells:
                k = phi.argmax(ell)
                assert lo <= k <= hi
                assert k * ell - phi.value(k) == brute_conjugate(phi, ell, lo, hi)

    def test_sum_argmax_at_a_constant_tail_slope(self):
        # Every k out on a tail of slope ell attains the supremum, so the
        # search must stop its bracket there; one that does not never
        # ends, which the child's timeout turns into a failure.
        V, F = VShape, FlatBottom
        sums = [
            (SumOf((V(0, -1, 1), V(3, -2, 2))), -3, 3),
            (SumOf((F(1, PLUS_INF, -1, 0), F(2, PLUS_INF, -1, 0))), -2, 0),
            (SumOf((F(MINUS_INF, 0, -1, 1), F(MINUS_INF, 1, -1, 1))), 0, 2),
            (SumOf((V(5, -10**6, 10**6), V(-7, -3, 1))), -10**6 - 3, 10**6 + 1),
        ]
        cases = []
        for phi, smin, smax in sums:
            for wrapped, shift in ((phi, 0), (LinearPlus(7, phi), 7), (Shifted(-4, phi), 0),
                                   (Shifted(2, LinearPlus(-3, phi)), -3)):
                cases += [(wrapped, smin + shift), (wrapped, smax + shift)]
        code = (
            "import json\n"
            "from dctk.conjugate import conjugate_eval, from_json\n"
            f"cases = json.loads({json.dumps([[to_json(phi), ell] for phi, ell in cases])!r})\n"
            "out = [(from_json(phi).argmax(ell), conjugate_eval(from_json(phi), ell))\n"
            "       for phi, ell in cases]\n"
            "print(json.dumps([[k, v] if isinstance(v, int) else None for k, v in out]))\n"
        )
        child = run_under_memory_limit(code)
        assert child.returncode == 0, child.stderr
        for (phi, ell), got in zip(cases, json.loads(child.stdout)):
            expected = brute_conjugate_unbounded(phi, ell, 100)
            assert got is not None and is_finite(expected)
            k, v = got
            assert v == expected == k * ell - phi.value(k)

    def test_sum_argmax_matches_the_domain_search(self):
        # The bracket read off the parts' argmaxes must give what the
        # search over the whole domain gives: the same value always, and
        # the same least k wherever ell is above the lower limit slope
        # (at that limit every k far enough down attains the supremum).
        rng = random.Random(23)

        def part():
            kind = rng.randrange(6)
            if kind == 0:
                return Shifted(rng.randint(-50, 50), Quadratic(rng.randint(1, 1000)))
            if kind == 1:
                c = rng.randint(-10**6, 10**6)
                return VShape(rng.randint(-9, 9), c, c + rng.randint(0, 10**6), *rng.choice(
                    [(MINUS_INF, PLUS_INF), (-10, PLUS_INF), (MINUS_INF, 10)]))
            if kind == 2:
                a = rng.choice((MINUS_INF, rng.randint(-9, 0)))
                b = rng.choice((PLUS_INF, rng.randint(0, 9)))
                return FlatBottom(a, b, -rng.randint(0, 100), rng.randint(0, 100))
            if kind == 3:
                return LinearPlus(rng.randint(-100, 100), Quadratic(rng.randint(1, 3)))
            return random_convex_table(rng) if kind == 4 else random_large_slope_form(rng)

        checked = collections.Counter()
        while checked["sums"] < 400:
            phi = SumOf(tuple(part() for _ in range(rng.randint(1, 4))))
            lo, hi = phi.dom()
            if lo > hi:
                continue
            checked["sums"] += 1
            smin, smax = phi.slope_range()
            ells = [rng.randint(-50, 50), rng.choice((-1, 1)) * rng.randint(1, 10**9)]
            ells += [v + d for v in (smin, smax) if is_finite(v) for d in (-1, 0, 1)]
            for ell in ells:
                k, ref = phi.argmax(ell), conjugate._search_argmax(phi, ell)
                value = [j * ell - phi.value(j) if is_finite(j) else j for j in (k, ref)]
                assert value[0] == value[1], (phi, ell, k, ref)
                if ell > smin:
                    assert k == ref, (phi, ell)
                    checked["k"] += 1
                checked["limit" if ell == smin else "finite" if is_finite(k) else "infinite"] += 1
        assert min(checked.values()) >= 30, checked

    def test_unbounded_tails(self):
        # Slope saturates at c on the infinite side.
        phi = VShape(0, -2, 2)
        assert conjugate_eval(phi, 2) == 0
        assert conjugate_eval(phi, 3) is PLUS_INF
        assert conjugate_eval(phi, -3) is PLUS_INF


class TestConjugateClosed:
    def test_square(self):
        assert conjugate_closed(Quadratic(1), 3) == 2

    def test_shifted(self):
        assert conjugate_closed(Shifted(1, Quadratic(1)), 2) == 3

    def test_linear_plus(self):
        assert conjugate_closed(LinearPlus(1, Quadratic(1)), 3) == 1

    def test_restricted(self):
        assert conjugate_closed(Restricted(0, 2, Quadratic(1)), 3) == 2

    def test_table_unsupported(self):
        with pytest.raises(UnsupportedForm):
            conjugate_closed(Table(0, (0, 1)), 1)

    def test_sum_unsupported(self):
        with pytest.raises(UnsupportedForm):
            conjugate_closed(SumOf((Quadratic(1), VShape(0, -100, 100))), 300)
        with pytest.raises(UnsupportedForm):
            conjugate_closed(Restricted(0, 2, SumOf((Quadratic(1),))), 1)

    def test_restricted_far_from_the_inner_argmax(self):
        phi = Restricted(-200, 200, Quadratic(1))
        assert conjugate_closed(phi, 300) == 22500 == brute_conjugate(phi, 300, -200, 200)
        assert conjugate_closed(phi, -10**6) == 200 * 10**6 - 40000

    def test_restricted_one_sided(self):
        # Every kink lies in [-7, 7], and the quadratic's argmax for
        # |ell| <= 50 in [-5, 12]: a scan of [-100, 100] holds each argmax.
        linear = (
            Restricted(MINUS_INF, 7, VShape(0, -3, 2)),
            Restricted(MINUS_INF, PLUS_INF, FlatBottom(MINUS_INF, 3, -1, 5)),
            FlatBottom(-4, PLUS_INF, -2, 1),
            FlatBottom(MINUS_INF, PLUS_INF, -2, 1),
        )
        ells = (-50, -4, -3, -1, 0, 1, 2, 3, 6, 50)
        cases = [(phi, ells + (-10**6, 10**6)) for phi in linear]
        cases.append((Restricted(-5, PLUS_INF, LinearPlus(4, Quadratic(2))), ells))
        for phi, ells in cases:
            for ell in ells:
                expected = brute_conjugate_unbounded(phi, ell, 100)
                assert conjugate_closed(phi, ell) == expected
                assert conjugate_eval(phi, ell) == expected

    def test_large_slope_corpus_matches_bruteforce(self):
        rng = random.Random(17)
        for _ in range(60):
            phi = random_large_slope_form(rng)
            lo, hi = dom_range(phi)
            ells = [rng.randint(-10**6, 10**6) for _ in range(6)]
            ells += [phi.value(lo + 1) - phi.value(lo)] if lo < hi else []
            ells += [0, 1, -1]
            for ell in ells:
                expected = brute_conjugate(phi, ell, lo, hi)
                assert conjugate_closed(phi, ell) == expected
                assert conjugate_eval(phi, ell) == expected

    def test_matches_bruteforce_on_corpus(self):
        for phi in univariate_corpus(80):
            for ell in range(-8, 9):
                expected = brute_conjugate(phi, ell)
                assert conjugate_eval(phi, ell) == expected
                if isinstance(phi, (Table, SumOf)):
                    with pytest.raises(UnsupportedForm):
                        conjugate_closed(phi, ell)
                else:
                    assert conjugate_closed(phi, ell) == expected


class TestFitting:
    """ell fits k when it lies in subdifferential_interval(phi, k), and w
    fits z when first_unfit(z, w) is None."""

    def test_examples(self):
        lo, hi = subdifferential_interval(Quadratic(1), 1)
        assert lo <= 2 <= hi and (lo, hi) == (1, 3)
        Phi = SeparableConvex((("x", Quadratic(1)),))
        assert Phi.first_unfit((1,), (2,)) is None
        assert Phi.first_unfit((0,), (0,)) is None
        assert Phi.first_unfit((1,), (4,)) == 0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            subdifferential_interval(Table(0, (0, 1)), 5)
        # Outside the domain both slopes are +inf, so no weight fits.
        assert SeparableConvex((("x", Table(0, (0, 1))),)).first_unfit((5,), (0,)) == 0

    def test_subdifferential(self):
        assert subdifferential_interval(Quadratic(1), 1) == (1, 3)
        assert subdifferential_interval(VShape(3, -1, 1), 3) == (-1, 1)
        lo, hi = subdifferential_interval(Table(0, (0, 0, 0)), 0)
        assert lo is MINUS_INF and hi == 0


class TestSeparable:
    def test_square_sum_conjugate(self):
        Phi = square_sum(["a", "b"])
        assert Phi.conjugate((3, 3)) == 4
        assert Phi.conjugate((0, 0)) == 0

    def test_abs_conjugate_infinite(self):
        Phi = SeparableConvex(
            (("a", VShape(3, -1, 1)), ("b", VShape(1, -1, 1)))
        )
        assert Phi.conjugate((0, 2)) is PLUS_INF

    def test_prime(self):
        Phi = square_sum(["a", "b"])
        assert Phi.prime((1, 1)) == [3, 3]
        assert Phi.prime_minus((1, 1)) == [1, 1]


class TestJsonRoundTrip:
    def test_corpus_round_trip(self):
        """Every shape class has a row of SHAPES, and every row is read
        back as it was written."""
        shapes = {c for c in vars(conjugate).values()
                  if isinstance(c, type) and issubclass(c, UnivariateConvex) and c is not UnivariateConvex}
        assert shapes == set(SHAPES)
        rng = random.Random(3)
        forms = univariate_corpus() + [random_large_slope_form(rng) for _ in range(100)]
        docs = [to_json(phi) for phi in forms]
        # Every row is exercised, nested shapes included.
        assert set(re.findall(r'"form": "(\w+)"', json.dumps(docs))) == {tag for tag, _ in SHAPES.values()}
        for phi, doc in zip(forms, docs):
            assert from_json(doc) == phi

    def test_null_bounds(self):
        phi = from_json(
            {"form": "vshape", "k0": 3, "c_minus": -1, "c_plus": 1,
             "A": None, "B": None}
        )
        assert phi == VShape(3, -1, 1)


class TestParameterCheck:
    """The int and bound arguments are checked from Python as from JSON."""

    @pytest.mark.parametrize("build, message", [
        (lambda: Quadratic(1.5), "'a' must be an integer, got 1.5"),
        (lambda: Quadratic(True), "'a' must be an integer, got True"),
        (lambda: VShape(0, -1.0, 2), "'c_minus' must be an integer, got -1.0"),
        (lambda: Shifted(0.5, Quadratic(1)), "'k0' must be an integer, got 0.5"),
        (lambda: Restricted(0, 1.5, Quadratic(1)), "'B' must be an integer or an infinity, got 1.5"),
        (lambda: Table(True, (0, 1)), "'k0' must be an integer, got True"),
    ], ids=["float-a", "bool-a", "float-c_minus", "float-shift", "float-bound", "bool-k0"])
    def test_refused(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()

    def test_infinite_bounds_accepted(self):
        FlatBottom(MINUS_INF, 2, -1, 1)
        FlatBottom(-2, PLUS_INF, -1, 1, MINUS_INF, PLUS_INF)
        VShape(0, -1, 1, MINUS_INF, 5)
        Restricted(MINUS_INF, PLUS_INF, Quadratic(1))


class TestBiconjugation:
    def test_tables(self):
        rng = random.Random(3)
        for _ in range(40):
            t = random_convex_table(rng)
            lo, hi = dom_range(t)
            if lo == hi:
                slo, shi = -1, 1
            else:
                slo = subdifferential_interval(t, lo)[1] - 1
                shi = subdifferential_interval(t, hi)[0] + 1
            conj = materialize_table(
                Table(slo, tuple(conjugate_eval(t, l) for l in range(slo, shi + 1))),
                slo,
                shi,
            )
            for k in range(lo, hi + 1):
                assert conjugate_eval(conj, k) == t.value(k)

    def test_conjugate_is_convex(self):
        for phi in univariate_corpus(40):
            vals = [conjugate_eval(phi, l) for l in range(-10, 11)]
            if all(is_finite(v) for v in vals):
                Table(-10, tuple(vals))  # constructor checks convexity


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-8, 4),
    st.lists(st.integers(-4, 4), min_size=0, max_size=10),
    st.integers(-15, 15),
    st.integers(-12, 12),
)
def test_table_conjugate_matches_bruteforce(k0, slopes, v0, ell):
    slopes = sorted(slopes)
    values = [v0]
    for s in slopes:
        values.append(values[-1] + s)
    t = Table(k0, tuple(values))
    assert conjugate_eval(t, ell) == brute_conjugate(t, ell)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(-4, 4),
    st.integers(0, 4),
    st.integers(-12, 12),
)
def test_vshape_bounded_conjugate_matches_bruteforce(k0, c1, dc, ell):
    phi = VShape(k0, c1, c1 + dc, k0 - 3, k0 + 3)
    assert conjugate_eval(phi, ell) == brute_conjugate(phi, ell)
    assert conjugate_closed(phi, ell) == brute_conjugate(phi, ell)

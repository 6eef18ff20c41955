import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dctk.conjugate import (
    FlatBottom,
    LinearPlus,
    Quadratic,
    Restricted,
    SeparableConvex,
    Shifted,
    SumOf,
    Table,
    VShape,
    conjugate_closed,
    conjugate_eval,
    conjugate_table,
    from_json,
    is_fitting,
    right_derivative,
    square_sum,
    subdifferential_interval,
    to_json,
)
from dctk.errors import DomainError, IndeterminateDifference, UnsupportedForm
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
    def test_quadratic_unit(self):
        assert right_derivative(Quadratic(1), 1) == 3

    def test_quadratic_weighted(self):
        assert right_derivative(Quadratic(2), 1) == 6  # 8 - 2

    def test_flat_bottom_zero(self):
        assert right_derivative(FlatBottom(1, 2, -1, 1), 1) == 0

    def test_outside_domain(self):
        t = Table(0, (1, 2))
        assert right_derivative(t, 1) is PLUS_INF
        assert right_derivative(t, -1) is MINUS_INF
        with pytest.raises(IndeterminateDifference):
            right_derivative(t, 5)

    def test_monotone_on_corpus(self):
        for phi in univariate_corpus(60):
            lo, hi = dom_range(phi)
            prev = MINUS_INF
            for k in range(lo, hi):
                cur = right_derivative(phi, k)
                assert prev <= cur
                prev = cur


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
    def test_examples(self):
        ok, w = is_fitting(Quadratic(1), 1, 2)
        assert ok and (w.lower, w.upper) == (1, 3)
        assert is_fitting(Quadratic(1), 0, 0)[0]
        assert not is_fitting(Quadratic(1), 1, 4)[0]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            is_fitting(Table(0, (0, 1)), 5, 0)

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

    def test_conjugate_table_matches_conjugate(self):
        import itertools

        Phi = SeparableConvex(
            (("a", VShape(0, -1, 1)), ("b", Quadratic(2)), ("c", Restricted(-3, 2, Quadratic(1))))
        )
        conj = conjugate_table(Phi)
        for _ in range(2):  # cold, then every value memoized
            for w in itertools.product(range(-4, 5), repeat=3):
                assert conj(w) == Phi.conjugate(w)

    def test_conjugate_table_keeps_domain_error(self):
        # conj of k -> k is infinite at 0, but the second part is finite
        # nowhere, which conjugate_eval reports whatever the argument.
        Phi = SeparableConvex(
            (("a", VShape(0, 1, 1)), ("b", Restricted(5, 6, VShape(0, -1, 1, -1, 1))))
        )
        with pytest.raises(DomainError):
            conjugate_table(Phi)((0, 0))

    def test_prime(self):
        Phi = square_sum(["a", "b"])
        assert Phi.prime((1, 1)) == [3, 3]
        assert Phi.prime_minus((1, 1)) == [1, 1]


class TestJsonRoundTrip:
    def test_corpus_round_trip(self):
        for phi in univariate_corpus(60):
            assert from_json(to_json(phi)) == phi

    def test_null_bounds(self):
        phi = from_json(
            {"form": "vshape", "k0": 3, "c_minus": -1, "c_plus": 1,
             "A": None, "B": None}
        )
        assert phi == VShape(3, -1, 1)


class TestBiconjugation:
    def test_tables(self):
        rng = random.Random(3)
        for _ in range(40):
            t = random_convex_table(rng)
            lo, hi = dom_range(t)
            if lo == hi:
                slo, shi = -1, 1
            else:
                slo = right_derivative(t, lo) - 1
                shi = right_derivative(t, hi - 1) + 1
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

"""Named fixtures and seeded random instance generators.

The named instances are the small hand-checkable examples used across
the test suite and the selftest command.  Random generators take a
`random.Random` (or a seed) so every corpus is reproducible.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .conjugate import Quadratic, SeparableConvex, Shifted, VShape, square_sum
from .mconvex import SupermodularFn
from .netflow import Digraph, FlowInstance, square_sum_instance
from .polyhedron import EQ, GEQ, LinearSystem, Row


def p2() -> SupermodularFn:
    """p(empty)=0, p{1}=0, p{2}=0, p(S)=2."""
    return SupermodularFn(2, (0, 0, 0, 2), ("e1", "e2"))


def p2b() -> SupermodularFn:
    """Like p2 but p{1}=1."""
    return SupermodularFn(2, (0, 1, 0, 2), ("e1", "e2"))


def p2_system() -> LinearSystem:
    """Rows x1 >= 0, x2 >= 0, x1 + x2 = 2."""
    return LinearSystem(
        ("e1", "e2"),
        (
            Row((1, 0), 0, GEQ),
            Row((0, 1), 0, GEQ),
            Row((1, 1), 2, EQ),
        ),
    )


def d2() -> Digraph:
    """Two parallel arcs s -> t."""
    return Digraph(("s", "t"), (("s", "t"), ("s", "t")))


def d2_instance() -> FlowInstance:
    """Square-sum cost, m = (-2, 2), nonnegative uncapacitated arcs."""
    return square_sum_instance(d2(), (-2, 2))


def s3_system() -> LinearSystem:
    """Facet system of the convex hull of the four 0/1 vectors
    (1,1,1,0,0,0), (1,0,0,1,0,0), (0,1,0,0,1,0), (0,0,1,0,0,1).

    The hull is a 3-simplex parametrized by (x4,x5,x6); the system is
    integral but not box-total-dual-integral: dilating by 2 and cutting
    with the unit cube exposes the fractional vertex
    (1,1,1,1/2,1/2,1/2).
    """
    elems = tuple(f"x{i}" for i in range(1, 7))
    rows = (
        Row((1, 0, 0, 0, 1, 1), 1, EQ),
        Row((0, 1, 0, 1, 0, 1), 1, EQ),
        Row((0, 0, 1, 1, 1, 0), 1, EQ),
        Row((0, 0, 0, 1, 0, 0), 0, GEQ),
        Row((0, 0, 0, 0, 1, 0), 0, GEQ),
        Row((0, 0, 0, 0, 0, 1), 0, GEQ),
        Row((0, 0, 0, -1, -1, -1), -1, GEQ),
    )
    return LinearSystem(elems, rows)


# ---------------------------------------------------------------------------
# Random generators


def _rng(seed_or_rng) -> random.Random:
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    return random.Random(seed_or_rng)


def random_supermodular(
    seed_or_rng, n: int, value_bound: int = 5
) -> SupermodularFn:
    """Supermodular p with all values in [-bound, bound], built as a
    modular part plus nonnegative pairwise interactions (rejection keeps
    the range honest)."""
    rng = _rng(seed_or_rng)
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(1000):
        m = [rng.randint(-2, 2) for _ in range(n)]
        q = {
            pr: (1 if rng.random() < 0.4 else 0)
            for pr in pairs
        }
        table = []
        ok = True
        for mask in range(1 << n):
            v = sum(m[i] for i in range(n) if mask >> i & 1)
            v += sum(
                w for (i, j), w in q.items() if mask >> i & 1 and mask >> j & 1
            )
            if abs(v) > value_bound:
                ok = False
                break
            table.append(v)
        if ok:
            return SupermodularFn(n, tuple(table))
    # Interaction-free fallback always fits the bound.
    m = [rng.randint(-1, 1) for _ in range(n)]
    table = [
        sum(m[i] for i in range(n) if mask >> i & 1) for mask in range(1 << n)
    ]
    return SupermodularFn(n, tuple(table))


def random_separable(seed_or_rng, elements: Sequence[str]) -> SeparableConvex:
    """Objective drawn from the shapes the duality corpus exercises:
    square-sum, weighted squares, shifted squares, absolute deviations."""
    rng = _rng(seed_or_rng)
    kind = rng.randrange(4)
    n = len(elements)
    if kind == 0:
        return square_sum(elements)
    if kind == 1:
        return square_sum(elements, [rng.randint(1, 3) for _ in range(n)])
    if kind == 2:
        return SeparableConvex(
            tuple(
                (e, Shifted(rng.randint(-2, 2), Quadratic(1)))
                for e in elements
            )
        )
    return SeparableConvex(
        tuple((e, VShape(rng.randint(-2, 2), -1, 1)) for e in elements)
    )

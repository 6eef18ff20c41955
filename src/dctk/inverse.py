"""Inverse optimization over integral linear systems.

Given feasible points z1, ..., zk of [Q'x >= p', Q=x = p=] and a
separable convex deviation Phi (typically a distance from a reference
cost w0), find an integral cost w minimizing Phi(w) among those making
every target a w-minimizer: the w in the normal cone of the targets'
tangent cone (:func:`polyhedron.tangent_cone`, built once by the
caller).  The dual side maximizes -conj(Phi)(z) over the integer points
of that tangent cone, which is the mu-form of the normal-cone system.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence, Tuple

from .conjugate import FlatBottom, SeparableConvex, VShape, conjugate_eval
from .errors import NoFeasibleWeight
from .extint import ExtInt, is_finite
from .polyhedron import (
    MinMaxReport,
    TangentCone,
    Window,
    minimize_bruteforce,
    normal_cone,
    separable_first_minimum,
)


def inverse_minimize(
    cone: TangentCone, deviation: SeparableConvex, w_window: Window
) -> Tuple[Tuple[int, ...], ExtInt]:
    """The cheapest admissible integral cost: :func:`minimize_bruteforce`
    of the deviation over the normal cone of the targets' tangent cone,
    the first least value in lex order."""
    rep = minimize_bruteforce(normal_cone(cone), deviation, w_window)
    if rep.primal_witness is None:
        raise NoFeasibleWeight(
            "no integral cost in the window makes the target optimal"
        )
    return rep.primal_witness, rep.primal_value


def inverse_dual_search(
    cone: TangentCone, deviation: SeparableConvex, z_window: Window
) -> MinMaxReport:
    """max -conj(Phi)(z) over integer points of the tangent cone: the
    first least conjugate, negated, by :func:`separable_first_minimum`
    with each part's conjugate finite on its slope range."""
    parts = [(partial(conjugate_eval, p), *p.slope_range()) for _, p in deviation.parts]
    least, arg = separable_first_minimum(cone.cone_system, z_window, parts)
    return MinMaxReport(
        dual_value=-least,
        dual_witness=arg,
        bounds_used={"z_window": z_window.to_json()},
    )


# ---------------------------------------------------------------------------
# Deviation builders


def l1_deviation(w0: Sequence[int], elements: Sequence[str]) -> SeparableConvex:
    """Phi(w) = sum |w(s) - w0(s)|."""
    return SeparableConvex(
        tuple((e, VShape(k0, -1, 1)) for e, k0 in zip(elements, w0))
    )


def weighted_l1_deviation(
    w0: Sequence[int],
    c1: Sequence[int],
    c2: Sequence[int],
    elements: Sequence[str],
) -> SeparableConvex:
    """Asymmetric per-unit penalties: c1 below w0, c2 above."""
    return SeparableConvex(
        tuple(
            (e, VShape(k0, -a, b))
            for e, k0, a, b in zip(elements, w0, c1, c2)
        )
    )


def box_deviation(
    l0: Sequence[ExtInt],
    u0: Sequence[ExtInt],
    c1: Sequence[int],
    c2: Sequence[int],
    elements: Sequence[str],
) -> SeparableConvex:
    """Free inside [l0, u0], linear penalties c1 below and c2 above."""
    return SeparableConvex(
        tuple(
            (e, FlatBottom(a, b, -p, q))
            for e, a, b, p, q in zip(elements, l0, u0, c1, c2)
        )
    )


Z_FALLBACK = 6


def default_z_window(deviation: SeparableConvex) -> Window:
    """Componentwise effective domain of the conjugate when the slopes
    are bounded (then the window is exact, not a heuristic), else
    ±Z_FALLBACK (±6) on each unbounded side."""
    los: List[int] = []
    his: List[int] = []
    for _, phi in deviation.parts:
        lo, hi = phi.slope_range()
        los.append(lo if is_finite(lo) else -Z_FALLBACK)
        his.append(hi if is_finite(hi) else Z_FALLBACK)
    return Window(tuple(los), tuple(his))

"""Inverse optimization over integral linear systems.

Given a feasible point z0 of [Q'x >= p', Q=x = p=] and a separable
convex deviation Phi (typically a distance from a reference cost w0),
find an integral cost w minimizing Phi(w) among those making z0 a
w-minimizer.  The dual side maximizes -conj(Phi)(z) over the integer
points of the tangent cone at z0.  Multi-target instances reduce to a
single target on the dilated system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import List, Optional, Sequence, Tuple

from . import ratlin
from .conjugate import (
    FlatBottom,
    SeparableConvex,
    UnivariateConvex,
    VShape,
    conjugate_table,
)
from .errors import NoFeasibleWeight, NotFeasible
from .extint import MINUS_INF, PLUS_INF, ExtInt, is_finite
from .polyhedron import (
    LinearSystem,
    MinMaxReport,
    TangentCone,
    Window,
    dilation,
    enumerate_integer_points,
    normal_cone,
    tangent_cone,
)


@dataclass(frozen=True)
class InverseInstance:
    parent: LinearSystem
    targets: Tuple[Tuple[int, ...], ...]
    deviation: SeparableConvex

    def __post_init__(self):
        check_targets(self.parent, self.targets)

    @cached_property
    def cone(self) -> TangentCone:
        """The tangent cone at the targets' sum on the k-dilated system."""
        return tangent_cone(*reduce_targets(self.parent, self.targets))


class _Values(dict):
    """k -> phi.value(k), each computed when first asked for."""

    def __init__(self, phi: UnivariateConvex):
        self.phi = phi

    def __missing__(self, k: int) -> ExtInt:
        v = self[k] = self.phi.value(k)
        return v


def inverse_minimize(
    inst: InverseInstance, w_window: Window
) -> Tuple[Tuple[int, ...], ExtInt]:
    """Exhaustive scan for the cheapest admissible integral cost: the
    normal cone at the (combined) target, in lex order, with each
    coordinate's deviation value kept once computed; the first least
    value wins."""
    if len(inst.deviation.parts) != inst.parent.n:
        raise ValueError(f"expected {inst.parent.n} deviation components")
    tables = [_Values(phi) for _, phi in inst.deviation.parts]
    best: ExtInt = PLUS_INF
    arg: Optional[Tuple[int, ...]] = None
    for w in enumerate_integer_points(normal_cone(inst.cone), w_window):
        v = sum(map(getitem, tables, w))
        if v < best:
            best, arg = v, w
    if arg is None:
        raise NoFeasibleWeight(
            "no integral cost in the window makes the target optimal"
        )
    return arg, best


def inverse_dual_search(
    cone: TangentCone,
    deviation: SeparableConvex,
    z_window: Window,
    w_star: Optional[Sequence[int]] = None,
) -> MinMaxReport:
    """max -conj(Phi)(z) over integer points of the tangent cone.

    When the primal witness w* is supplied, the report also records the
    orthogonality (w*.z* = 0) and fitting (Phi'(w*-1) <= z* <= Phi'(w*))
    checks for the best pair.
    """
    conj = conjugate_table(deviation)
    best: ExtInt = MINUS_INF
    arg: Optional[Tuple[int, ...]] = None
    for z in enumerate_integer_points(cone.cone_system, z_window):
        c = conj(z)
        if not is_finite(c):
            continue
        if -c > best:
            best, arg = -c, z
    report = MinMaxReport(
        dual_value=best,
        dual_witness=arg,
        bounds_used={"z_window": z_window.to_json()},
    )
    if w_star is not None and arg is not None:
        report.bounds_used["orthogonal"] = ratlin.dot(w_star, arg) == 0
        report.bounds_used["fitting"] = deviation.first_unfit(w_star, arg) is None
    return report


def check_targets(sys: LinearSystem, targets: Sequence[Sequence[int]]) -> None:
    """Each target has n entries and is a point of the system."""
    for z in targets:
        if len(z) != sys.n:
            raise ValueError(f"target {tuple(z)} needs {sys.n} entries")
        if not sys.contains(z):
            raise NotFeasible(f"target {tuple(z)} violates the system")


def reduce_targets(
    sys: LinearSystem, targets: Sequence[Sequence[int]]
) -> Tuple[LinearSystem, Tuple[int, ...]]:
    """k targets on R become one target (their sum) on the k-dilation."""
    k = len(targets)
    if k < 1:
        raise ValueError("need at least one target")
    check_targets(sys, targets)
    z0 = tuple(sum(t[i] for t in targets) for i in range(sys.n))
    return dilation(sys, k), z0


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

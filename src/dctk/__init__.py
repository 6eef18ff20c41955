"""dctk: exact minimization of separable discrete convex functions over
discrete box-TDI sets, with brute-force-checkable duality certificates."""

from .conjugate import (
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
    subdifferential_interval,
)
from .extint import MINUS_INF, PLUS_INF, ExtInt
from .mconvex import SupermodularFn
from .netflow import Digraph, FlowInstance
from .polyhedron import DualVector, LinearSystem, MinMaxReport, Row, Window

__version__ = "0.1.0"

#!/usr/bin/env python3
"""End-to-end walk through the library on a small named instance.

Minimizes the square-sum over the bases of a two-element supermodular
function, verifies the weight certificate the descent returns, solves
the same problem as a convex-cost flow with a node potential
certificate, and finishes with the box-integrality probe.
"""

import json

from dctk.conjugate import square_sum
from dctk.fixtures import d2_instance, p2, p2_system
from dctk.mconvex import minimize_separable, verify_mconvex_optimality
from dctk.netflow import certify_flow, optimal_potential
from dctk.polyhedron import Window, probe_box_integer


def main() -> None:
    p = p2()
    Phi = square_sum(p.elements)
    z, w = minimize_separable(p, Phi)
    rep = verify_mconvex_optimality(p, Phi, z, w)
    print("base minimization:", json.dumps(rep.to_json(), sort_keys=True))

    inst = d2_instance()
    x, pi = optimal_potential(inst)
    flow_rep = certify_flow(inst, x, pi)
    print("flow:", list(x), "potential:", list(pi),
          "value:", flow_rep.primal_value)

    ok, witness = probe_box_integer(p2_system(), Window.uniform(2, 0, 2))
    print("box-integer probe:", ok, witness)


if __name__ == "__main__":
    main()

"""Reference computations the benchmark checks dctk's answers against.

Nothing here imports dctk.  Every routine works on the same JSON the
library receives and is deliberately naive: exhaustive scans where they
reach, and otherwise a primal = dual certificate evaluated with this
module's own arithmetic, which proves optimality by weak duality.
Infinity is ``INF`` (a float), so finite values stay exact ints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

INF = float("inf")

# Domains up to this many points are scanned outright when conjugating.
SCAN_LIMIT = 20000


# ---------------------------------------------------------------------------
# Univariate functions in dctk's tagged JSON form


def value(f: dict, k: int):
    form = f["form"]
    if form == "table":
        i = k - f["k0"]
        return f["values"][i] if 0 <= i < len(f["values"]) else INF
    if form == "quadratic":
        return f["a"] * k * k
    if form == "vshape":
        if not _within(k, f.get("A"), f.get("B")):
            return INF
        return (f["c_minus"] if k <= f["k0"] else f["c_plus"]) * (k - f["k0"])
    if form == "flat_bottom":
        if not _within(k, f.get("A"), f.get("B")):
            return INF
        a, b = f.get("a"), f.get("b")
        if a is not None and k < a:
            return f["c_minus"] * (k - a)
        if b is not None and k > b:
            return f["c_plus"] * (k - b)
        return 0
    if form == "linear_plus":
        v = value(f["inner"], k)
        return v if v == INF else v + f["c"] * k
    if form == "shifted":
        return value(f["inner"], k - f["k0"])
    if form == "restricted":
        return value(f["inner"], k) if _within(k, f.get("A"), f.get("B")) else INF
    if form == "sum_of":
        vals = [value(p, k) for p in f["parts"]]
        return INF if INF in vals else sum(vals)
    raise ValueError(f"unknown form {form!r}")


def _within(k, lo, hi) -> bool:
    return (lo is None or k >= lo) and (hi is None or k <= hi)


def domain(f: dict):
    """(lo, hi) of the effective domain; None marks an infinite end."""
    form = f["form"]
    if form == "table":
        return f["k0"], f["k0"] + len(f["values"]) - 1
    if form == "quadratic":
        return None, None
    if form in ("vshape", "flat_bottom"):
        return f.get("A"), f.get("B")
    if form == "linear_plus":
        return domain(f["inner"])
    if form == "shifted":
        lo, hi = domain(f["inner"])
        s = f["k0"]
        return (None if lo is None else lo + s), (None if hi is None else hi + s)
    if form == "restricted":
        return _meet([domain(f["inner"]), (f.get("A"), f.get("B"))])
    if form == "sum_of":
        return _meet([domain(p) for p in f["parts"]])
    raise ValueError(f"unknown form {form!r}")


def _meet(doms):
    los = [lo for lo, _ in doms if lo is not None]
    his = [hi for _, hi in doms if hi is not None]
    return (max(los) if los else None), (min(his) if his else None)


def end_slopes(f: dict):
    """Limits of the slope f(k+1) - f(k) as k -> -inf and k -> +inf.
    Only the ends where the domain is infinite are meaningful."""
    form = f["form"]
    if form == "quadratic":
        return -INF, INF
    if form == "vshape":
        return f["c_minus"], f["c_plus"]
    if form == "flat_bottom":
        lo = f["c_minus"] if f.get("a") is not None else 0
        hi = f["c_plus"] if f.get("b") is not None else 0
        return lo, hi
    if form == "linear_plus":
        lo, hi = end_slopes(f["inner"])
        return lo + f["c"], hi + f["c"]
    if form in ("shifted", "restricted"):
        return end_slopes(f["inner"])
    if form == "sum_of":
        ends = [end_slopes(p) for p in f["parts"]]
        return sum(lo for lo, _ in ends), sum(hi for _, hi in ends)
    raise ValueError(f"no slope limits for form {form!r}")


def slope(f: dict, k: int):
    """Right slope f(k+1) - f(k), extended by -inf below and +inf at or
    above the domain, as the optimality criteria read it."""
    v0, v1 = value(f, k), value(f, k + 1)
    if v1 == INF:
        lo, hi = domain(f)
        if v0 == INF and (lo is not None and k < lo):
            return -INF
        return INF
    if v0 == INF:
        return -INF
    return v1 - v0


def conjugate(f: dict, ell: int):
    """max_k (k*ell - f(k)) exactly; INF when unbounded."""
    lo, hi = domain(f)
    if lo is not None and hi is not None and hi - lo <= SCAN_LIMIT:
        return max(k * ell - value(f, k) for k in range(lo, hi + 1)
                   if value(f, k) != INF)
    s_lo, s_hi = end_slopes(f)
    if (hi is None and ell > s_hi) or (lo is None and ell < s_lo):
        return INF

    def gain(k):  # g(k+1) - g(k) with g(k) = k*ell - f(k); nonincreasing
        v0, v1 = value(f, k), value(f, k + 1)
        return -INF if v1 == INF else ell - (v1 - v0)

    start = 0 if lo is None else lo
    if hi is not None:
        start = min(start, hi)
    a, b = start, start
    step = 1
    while (hi is None or b < hi) and gain(b) > 0:
        b = b + step if hi is None else min(hi, b + step)
        step *= 2
    step = 1
    while (lo is None or a > lo) and gain(a - 1) < 0:
        a = a - step if lo is None else max(lo, a - step)
        step *= 2
    # The first k in [a, b] with gain(k) <= 0 maximizes g.
    while a < b:
        mid = (a + b) // 2
        if gain(mid) <= 0:
            b = mid
        else:
            a = mid + 1
    return a * ell - value(f, a)


def sep_value(parts, z):
    vals = [value(f, k) for f, k in zip(parts, z)]
    return INF if INF in vals else sum(vals)


def sep_conjugate(parts, w):
    vals = [conjugate(f, l) for f, l in zip(parts, w)]
    return INF if INF in vals else sum(vals)


def ext_json(v):
    """dctk's JSON spelling of an extended integer."""
    if v == INF:
        return "+inf"
    if v == -INF:
        return "-inf"
    return v


# ---------------------------------------------------------------------------
# Supermodular set functions (dense tables over bitmasks, all finite)


def table_of(p_json: dict):
    n = p_json["n"]
    return n, [p_json["p"][str(mask)] for mask in range(1 << n)]


def mask_sum(z, mask):
    return sum(v for i, v in enumerate(z) if mask >> i & 1)


def is_base(n, table, z) -> bool:
    full = (1 << n) - 1
    if mask_sum(z, full) != table[full]:
        return False
    return all(table[m] is None or mask_sum(z, m) >= table[m] for m in range(1, full))


def bases(n, table):
    """All integral bases in lex order, by depth-first search pruned with
    p(X) <= z(X) <= p(S) - p(S - X) on the subsets of the fixed prefix."""
    full = (1 << n) - 1
    upper = [table[full] - table[full ^ m] for m in range(1 << n)]
    out = []
    z = []

    def rec(i):
        if i == n:
            if is_base(n, table, z):
                out.append(tuple(z))
            return
        for v in range(table[1 << i], upper[1 << i] + 1):
            z.append(v)
            if all(table[m] <= mask_sum(z, m) <= upper[m]
                   for m in range(1 << i, 1 << (i + 1))):
                rec(i + 1)
            z.pop()

    rec(0)
    return out


def lovasz(n, table, w):
    """min{w.x : x in the base polyhedron}, by the greedy order."""
    order = sorted(range(n), key=lambda i: (-w[i], i))
    total, prefix = 0, 0
    for j, i in enumerate(order):
        prefix |= 1 << i
        nxt = w[order[j + 1]] if j + 1 < n else 0
        total += table[prefix] * (w[i] - nxt)
    return total


def top_sets_tight(n, table, z, w) -> bool:
    for beta in set(w):
        mask = sum(1 << i for i in range(n) if w[i] >= beta)
        if table[mask] is None or mask_sum(z, mask) != table[mask]:
            return False
    return True


def base_system(p_json: dict) -> dict:
    """dctk's LinearSystem JSON for the base polyhedron of p."""
    n, table = table_of(p_json)
    full = (1 << n) - 1
    rows = [{"coeffs": [m >> i & 1 for i in range(n)], "rhs": table[m], "kind": "geq"}
            for m in range(1, full) if table[m] is not None]
    rows.append({"coeffs": [1] * n, "rhs": table[full], "kind": "eq"})
    return {"elements": list(p_json["elements"]), "rows": rows}


# ---------------------------------------------------------------------------
# Linear systems in dctk's JSON form


def row_ok(row, x) -> bool:
    lhs = sum(a * b for a, b in zip(row["coeffs"], x))
    return lhs == row["rhs"] if row["kind"] == "eq" else lhs >= row["rhs"]


def contains(system, x) -> bool:
    return all(row_ok(r, x) for r in system["rows"])


def dilate(system, k):
    return {"elements": system["elements"],
            "rows": [dict(r, rhs=r["rhs"] * k) for r in system["rows"]]}


def solve(rows, rhs):
    """Unique solution of a square rational system, or None."""
    n = len(rows)
    m = [[Fraction(v) for v in r] + [Fraction(b)] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def rank(rows) -> int:
    m = [[Fraction(v) for v in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def vertices(system):
    """Vertices of a pointed polyhedron, by every square subsystem."""
    rows = system["rows"]
    n = len(system["elements"])
    out = set()
    for idx in itertools.combinations(range(len(rows)), n):
        x = solve([rows[i]["coeffs"] for i in idx], [rows[i]["rhs"] for i in idx])
        if x is not None and contains(system, x):
            out.add(x)
    return sorted(out)


def hull_window(verts, pad=0):
    """Smallest integer box around the vertices, per coordinate."""
    n = len(verts[0])
    lo = [min(v[j] for v in verts) for j in range(n)]
    hi = [max(v[j] for v in verts) for j in range(n)]
    return ([int(_floor(v)) - pad for v in lo], [int(_ceil(v)) + pad for v in hi])


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def box_points(lo, hi):
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def brute_min(system, parts, lo, hi):
    """(min value, lex-first argmin) of the separable function over the
    integer points of the system inside the box."""
    best, arg = INF, None
    for z in box_points(lo, hi):
        if contains(system, z):
            v = sep_value(parts, z)
            if v < best:
                best, arg = v, z
    return best, arg


def times_q(system, y):
    n = len(system["elements"])
    return [sum(yi * r["coeffs"][j] for yi, r in zip(y, system["rows"])) for j in range(n)]


def dual_vector_value(system, parts, y):
    """y.p - conj(Phi)(yQ): a lower bound on the integer minimum for any
    sign-feasible y (weak duality)."""
    c = sep_conjugate(parts, times_q(system, y))
    return -INF if c == INF else sum(yi * r["rhs"] for yi, r in zip(y, system["rows"])) - c


def sign_feasible(system, y) -> bool:
    return len(y) == len(system["rows"]) and all(
        yi >= 0 for yi, r in zip(y, system["rows"]) if r["kind"] == "geq")


def lp_min(verts, w):
    """min w.x over a polytope given by its vertices."""
    return min(sum(a * b for a, b in zip(w, v)) for v in verts)


def is_vertex_of_box_cut(system, x) -> bool:
    """x is a vertex of system /\\ box for some integral box: the rows
    tight at x plus unit rows for its integral coordinates have rank n."""
    n = len(x)
    tight = [r["coeffs"] for r in system["rows"]
             if sum(a * b for a, b in zip(r["coeffs"], x)) == r["rhs"]]
    tight += [[int(i == j) for i in range(n)] for j in range(n) if x[j].denominator == 1]
    return rank(tight) == n


# ---------------------------------------------------------------------------
# Flows


def flow_min_cost(inst: dict, parts) -> int:
    """Optimal value of a lower-bound-0, uncapacitated convex-cost flow,
    by networkx linear min-cost flow on unit-expanded arcs.

    Costs must be nondecreasing on [0, inf), so an optimum carries at
    most the total demand on any arc and the expansion cap is exact.
    """
    import networkx as nx

    cap = sum(v for v in inst["m"].values() if v > 0)
    g = nx.MultiDiGraph()
    for v in inst["nodes"]:
        g.add_node(v, demand=inst["m"][v])
    base = 0
    for (t, h), f in zip(inst["arcs"], parts):
        base += value(f, 0)
        for k in range(cap):
            g.add_edge(t, h, weight=value(f, k + 1) - value(f, k), capacity=1)
    cost, _ = nx.network_simplex(g)
    return base + cost


def is_flow(inst: dict, x) -> bool:
    if len(x) != len(inst["arcs"]) or any(v < 0 for v in x):
        return False
    net = {v: 0 for v in inst["nodes"]}
    for (t, h), v in zip(inst["arcs"], x):
        net[h] += v
        net[t] -= v
    return net == inst["m"]


def flow_dual(inst: dict, parts, pi) -> object:
    """m.pi - sum_a (phi_a on [0, inf))*(pi(head) - pi(tail)): the dual
    bound a node potential certifies, for any convex arc costs."""
    pos = {v: i for i, v in enumerate(inst["nodes"])}
    total = sum(inst["m"][v] * pi[pos[v]] for v in inst["nodes"])
    for (t, h), f in zip(inst["arcs"], parts):
        c = conjugate({"form": "restricted", "A": 0, "B": None, "inner": f},
                      pi[pos[h]] - pi[pos[t]])
        if c == INF:
            return -INF
        total -= c
    return total

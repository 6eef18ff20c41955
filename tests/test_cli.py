import contextlib
import io
import json
import re
import subprocess
import sys

import pytest

from dctk import cli, conjugate, fixtures, mconvex, netflow, polyhedron

from helpers import child_env, find_weight_in_box

SQ2 = {
    "e1": {"form": "quadratic", "a": 1},
    "e2": {"form": "quadratic", "a": 1},
}
DEV2 = {
    "e1": {"form": "vshape", "k0": 3, "c_minus": -1, "c_plus": 1,
           "A": None, "B": None},
    "e2": {"form": "vshape", "k0": 1, "c_minus": -1, "c_plus": 1,
           "A": None, "B": None},
}

QUAD3 = {"form": "quadratic", "a": 3}
D2 = fixtures.d2_instance().to_json()
P2, P2B = fixtures.p2().to_json(), fixtures.p2b().to_json()
P2_SYSTEM = fixtures.p2_system().to_json()

# Two base sets on three elements with four common bases, and a mixed
# objective over them.
M2_N3 = [{"n": 3, "p": {str(mask): v for mask, v in enumerate(table)}}
         for table in ((0, -1, 1, 1, -1, -1, 0, 1), (0, -1, 1, 1, -2, -2, 0, 1))]
PHI3 = {
    "e1": {"form": "quadratic", "a": 1},
    "e2": {"form": "vshape", "k0": 1, "c_minus": -2, "c_plus": 1},
    "e3": {"form": "quadratic", "a": 2},
}
BOX2 = {
    "e1": {"form": "flat_bottom", "a": 3, "b": 4, "c_minus": -1, "c_plus": 2, "A": -4, "B": 6},
    "e2": {"form": "flat_bottom", "a": 0, "b": 1, "c_minus": -2, "c_plus": 1, "A": -4, "B": 6},
}


CLI = [sys.executable, "-m", "dctk.cli"]


def run_cli(args):
    """Run `cli.run(args)` in this process with stdout and stderr captured.

    The result has the fields of a finished subprocess (returncode,
    stdout, stderr); argparse's own errors land in stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(args)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_process(args, timeout=None):
    """Run the CLI in a child process, as the `dctk` console script would.

    The child gets os.environ with src/ first on PYTHONPATH, so the suite
    runs from a plain checkout without installing the package.  Used where
    the process boundary itself is under test: the exit code from main()
    and byte-identical stdout."""
    return subprocess.run(CLI + args, capture_output=True, text=True, env=child_env(), timeout=timeout)


# One case per leaf command (two for conjugate), each on a named fixture,
# pinned to the exact stdout bytes and exit code.
GOLDEN = {
    "conjugate": (
        ["conjugate", "--phi", '{"form":"quadratic","a":1}', "--ell", "3"],
        '{"status":"OK","value":2}'),
    "conjugate-closed": (
        ["conjugate", "--closed", "--phi", '{"form":"quadratic","a":1}', "--ell", "3"],
        '{"status":"OK","value":2}'),
    "minimize-mconvex": (
        ["minimize", "mconvex", "--instance", json.dumps(P2), "--phi", json.dumps(SQ2)],
        '{"report":{"bounds_used":{},"dual_value":2,"dual_witness":[3,3],"equality":true,'
        '"notes":[],"primal_value":2,"primal_witness":[1,1],"support_size":2},"status":"OK"}'),
    "minimize-m2": (
        ["minimize", "m2", "--instance", json.dumps({"p1": P2, "p2": P2B}),
         "--phi", json.dumps(SQ2)],
        '{"report":{"bounds_used":{"w_bound":3},"dual_value":2,"dual_witness":[[-2,-2],[3,3]],'
        '"equality":true,"notes":[],"primal_value":2,"primal_witness":[1,1],"support_size":4},'
        '"status":"OK"}'),
    "minimize-flow": (
        ["minimize", "flow", "--instance", json.dumps(D2)],
        '{"dual_value":2,"flow":[1,1],"potential":[0,1],"status":"OK","value":2}'),
    "minimize-boxtdi": (
        ["minimize", "boxtdi", "--instance", json.dumps(P2_SYSTEM), "--phi", json.dumps(SQ2),
         "--window", "0..2"],
        '{"report":{"bounds_used":{"support_within_2n":true,"window":{"hi":[2,2],"lo":[0,0]},'
        '"y_bound":6},"dual_value":2,"dual_witness":[0,0,1],"equality":true,"notes":[],'
        '"primal_value":2,"primal_witness":[1,1],"support_size":1},"status":"OK"}'),
    "certify-mconvex": (
        ["certify", "mconvex", "--instance", json.dumps(P2), "--phi", json.dumps(SQ2),
         "--point", "[1,1]"],
        '{"report":{"bounds_used":{},"dual_value":2,"dual_witness":[3,3],"equality":true,'
        '"notes":[],"primal_value":2,"primal_witness":[1,1],"support_size":2},"status":"OK"}'),
    "certify-flow": (
        ["certify", "flow", "--instance", json.dumps(D2), "--flow", "[1,1]",
         "--potential", "[0,2]"],
        '{"report":{"bounds_used":{},"dual_value":2,"dual_witness":[0,2],"equality":true,'
        '"notes":[],"primal_value":2,"primal_witness":[1,1],"support_size":1},"status":"OK"}'),
    "inverse": (
        ["inverse", "--system", json.dumps(P2_SYSTEM), "--target", "[2,0]",
         "--deviation", json.dumps(DEV2), "--w-window=-1..5"],
        '{"bounds_used":{"w_window":{"hi":[5,5],"lo":[-1,-1]},"z_window":{"hi":[1,1],'
        '"lo":[-1,-1]}},"checks":{"fitting":true,"orthogonal":true},"dual_value":2,'
        '"dual_witness":[-1,1],"status":"OK","value":2,"w_star":[1,1]}'),
    "minimize-m2-n3": (
        ["minimize", "m2", "--instance", json.dumps({"p1": M2_N3[0], "p2": M2_N3[1]}),
         "--phi", json.dumps(PHI3)],
        '{"report":{"bounds_used":{"w_bound":3},"dual_value":0,"dual_witness":[[-3,-3,-3],[2,2,1]],'
        '"equality":true,"notes":[],"primal_value":0,"primal_witness":[0,1,0],"support_size":6},'
        '"status":"OK"}'),
    "inverse-box-deviation": (
        # The deviation's finite domain leaves the z-window at its +-6 fallback.
        ["inverse", "--system", json.dumps(P2_SYSTEM), "--target", "[2,0]",
         "--deviation", json.dumps(BOX2), "--w-window=-3..4"],
        '{"bounds_used":{"w_window":{"hi":[4,4],"lo":[-3,-3]},"z_window":{"hi":[6,6],'
        '"lo":[-6,-6]}},"checks":{"fitting":true,"orthogonal":true},"dual_value":2,'
        '"dual_witness":[-1,1],"status":"OK","value":2,"w_star":[1,1]}'),
    "probe": (
        ["probe", "--system", json.dumps(P2_SYSTEM), "--window", "0..2"],
        '{"box_integer":true,"status":"OK","witness":null}'),
    "selftest": (
        ["selftest", "--seed", "1"],
        '{"failures":[],"seed":1,"status":"OK"}'),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_stdout(name):
    argv, stdout = GOLDEN[name]
    p = run_cli(argv)
    assert (p.returncode, p.stdout) == (cli.EXIT_OK, stdout + "\n")


def test_reused_parser_carries_no_state(tmp_path):
    """Each call of one process's run() answers as a fresh process does:
    no appended --target, default or --json-out leaks into the next."""
    system, dev = json.dumps(P2_SYSTEM), json.dumps(DEV2)
    inverse = ["inverse", "--system", system, "--deviation", dev, "--w-window=-1..5"]
    probe = ["probe", "--system", system, "--window", "0..2"]
    out = tmp_path / "F.json"
    for argv in (
        ["probe", "--system", system],                  # argparse error, exit 4
        inverse + ["--target", "[2,0]", "--target", "[0,2]"],
        inverse + ["--target", "[2,0]"],
        probe + ["--json-out", str(out)],
        probe,
    ):
        here, fresh = run_cli(argv), run_cli_process(argv)
        assert (here.returncode, here.stdout) == (fresh.returncode, fresh.stdout)
        if out.exists():
            assert "--json-out" in argv and out.read_text() == here.stdout
            out.unlink()


ROOT_USAGE = "usage: dctk [-h] {conjugate,minimize,certify,inverse,probe,selftest} ...\n"
MINIMIZE_USAGE = "usage: dctk minimize [-h] {mconvex,m2,flow,boxtdi} ...\n"


@pytest.mark.parametrize("argv, stderr", [
    (["conjugate", "--phi", '{"form":"quadratic","a":1}', "--ell", "3", "extra"],
     ROOT_USAGE + "dctk: error: unrecognized arguments: extra\n"),
    (["probe", "--system", json.dumps(P2_SYSTEM), "--window", "0..2", "--bad"],
     ROOT_USAGE + "dctk: error: unrecognized arguments: --bad\n"),
    (["minimize", "bogus"], MINIMIZE_USAGE + "dctk minimize: error: argument subject: invalid choice: "
     "'bogus' (choose from 'mconvex', 'm2', 'flow', 'boxtdi')\n"),
    (["minimize"], MINIMIZE_USAGE + "dctk minimize: error: the following arguments are required: subject\n"),
    ([], ROOT_USAGE + "dctk: error: the following arguments are required: verb\n"),
], ids=["conjugate-extra", "probe-bad-flag", "minimize-bogus", "minimize-alone", "no-command"])
def test_argparse_errors(monkeypatch, argv, stderr):
    """run() parses at the leaf its first words name, and argparse's
    errors still come from the parser that gave them when the root parsed
    all of argv: a leaf's leftover arguments are the root's error."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to the terminal
    p = run_cli(argv)
    assert (p.returncode, p.stdout, p.stderr) == (cli.EXIT_INVALID, "", stderr)


class TestConjugateCommand:
    def test_quadratic(self):
        p = run_cli(["conjugate", "--phi", '{"form":"quadratic","a":1}',
                     "--ell", "3"])
        assert p.returncode == 0
        assert json.loads(p.stdout)["value"] == 2

    def test_closed_agrees(self):
        a = run_cli(["conjugate", "--phi", '{"form":"quadratic","a":2}',
                     "--ell", "5"])
        b = run_cli(["conjugate", "--closed", "--phi",
                     '{"form":"quadratic","a":2}', "--ell", "5"])
        assert json.loads(a.stdout)["value"] == json.loads(b.stdout)["value"] == 3

    def test_infinite_value(self):
        p = run_cli(["conjugate", "--phi",
                     '{"form":"vshape","k0":3,"c_minus":-1,"c_plus":1,'
                     '"A":null,"B":null}', "--ell", "2"])
        assert json.loads(p.stdout)["value"] == "+inf"

    def test_invalid_json(self):
        p = run_cli(["conjugate", "--phi", '{"form":"nope"}', "--ell", "0"])
        assert p.returncode == cli.EXIT_INVALID

    def test_closed_restricted_far_argmax(self):
        phi = {"form": "restricted", "A": -200, "B": 200, "inner": {"form": "quadratic", "a": 1}}
        p = run_cli(["conjugate", "--closed", "--phi", json.dumps(phi), "--ell", "300"])
        assert p.returncode == 0
        assert p.stdout == '{"status":"OK","value":22500}\n'

    def test_closed_sum_is_unsupported(self):
        phi = {"form": "sum_of", "parts": [
            {"form": "quadratic", "a": 1},
            {"form": "vshape", "k0": 0, "c_minus": -100, "c_plus": 100, "A": None, "B": None},
        ]}
        p = run_cli(["conjugate", "--closed", "--phi", json.dumps(phi), "--ell", "300"])
        assert p.returncode == cli.EXIT_INVALID and p.stdout == ""
        p = run_cli(["conjugate", "--phi", json.dumps(phi), "--ell", "300"])
        assert json.loads(p.stdout)["value"] == 10000


class TestMinimizeCommands:
    def test_mconvex(self):
        p = run_cli([
            "minimize", "mconvex",
            "--instance", json.dumps(fixtures.p2().to_json()),
            "--phi", json.dumps(SQ2),
        ])
        assert p.returncode == 0
        rep = json.loads(p.stdout)["report"]
        assert rep["primal_value"] == 2
        assert rep["primal_witness"] == [1, 1]
        assert rep["dual_witness"] == [3, 3]
        assert rep["equality"] is True

    def test_m2(self):
        inst = {"p1": fixtures.p2().to_json(), "p2": fixtures.p2b().to_json()}
        p = run_cli([
            "minimize", "m2", "--instance", json.dumps(inst),
            "--phi", json.dumps(SQ2), "--w-window", "3",
        ])
        assert p.returncode == 0
        rep = json.loads(p.stdout)["report"]
        assert rep["primal_value"] == rep["dual_value"] == 2

    @pytest.mark.parametrize("elements, needle", [
        ("ab", "a list of strings"),
        (["a", "a"], "distinct"),
        ([1, 2], "a list of strings"),
    ], ids=["string", "repeated", "integers"])
    @pytest.mark.parametrize("command", ["mconvex", "m2"])
    def test_bad_elements_are_invalid(self, command, elements, needle):
        # Both commands read p through SupermodularFn, so both reject the
        # names that LinearSystem rejects.
        p1 = {**fixtures.p2().to_json(), "elements": elements}
        inst = p1 if command == "mconvex" else {"p1": p1, "p2": fixtures.p2b().to_json()}
        p = run_cli(["minimize", command, "--instance", json.dumps(inst), "--phi", json.dumps(SQ2)])
        assert (p.returncode, p.stdout) == (cli.EXIT_INVALID, "")
        assert needle in p.stderr

    def test_flow(self):
        p = run_cli([
            "minimize", "flow",
            "--instance", json.dumps(fixtures.d2_instance().to_json()),
        ])
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["flow"] == [1, 1] and out["value"] == out["dual_value"] == 2

    def test_flow_infeasible(self):
        bad = {
            "nodes": ["s", "t"],
            "arcs": [["s", "t"]],
            "m": {"s": 1, "t": -1},
            "lower": [0],
            "upper": [None],
            "cost": {"a0": {"form": "quadratic", "a": 1}},
        }
        p = run_cli(["minimize", "flow", "--instance", json.dumps(bad)])
        assert p.returncode == cli.EXIT_INFEASIBLE
        assert json.loads(p.stdout) == {"status": "INFEASIBLE", "violating_set": ["t"]}

    @staticmethod
    def two_way(upper):
        return {
            "nodes": ["s", "t"],
            "arcs": [["s", "t"], ["t", "s"]],
            "m": {"s": 0, "t": 0},
            "lower": [0, 0],
            "upper": [upper, upper],
            "cost": {"a0": {"form": "vshape", "k0": 0, "c_minus": -1, "c_plus": -1},
                     "a1": {"form": "vshape", "k0": 0, "c_minus": 0, "c_plus": 0}},
        }

    def test_flow_fractional_demand_is_invalid(self):
        # Flows move whole units, so a demand of 1.5 was never met and the
        # search for a feasible flow ran on forever: the timeout fails a
        # regression instead of hanging the suite.
        inst = {"nodes": ["s", "t"], "arcs": [["s", "t"]], "m": {"s": -1.5, "t": 1.5},
                "lower": [0], "upper": [None]}
        p = run_cli_process(["minimize", "flow", "--instance", json.dumps(inst)], timeout=30)
        assert (p.returncode, p.stdout, p.stderr) == (
            cli.EXIT_INVALID, "", "error: m entries must be integers, got -1.5\n")

    def test_flow_bool_demand_is_invalid(self):
        inst = {"nodes": ["s", "t"], "arcs": [["s", "t"]], "m": {"s": -1, "t": True},
                "lower": [0], "upper": [None]}
        p = run_cli(["minimize", "flow", "--instance", json.dumps(inst)])
        assert (p.returncode, p.stdout, p.stderr) == (
            cli.EXIT_INVALID, "", "error: m entries must be integers, got True\n")

    def test_flow_unbounded(self):
        p = run_cli(["minimize", "flow", "--instance", json.dumps(self.two_way(None))])
        assert p.returncode == cli.EXIT_UNBOUNDED
        assert json.loads(p.stdout)["status"] == "UNBOUNDED"

    def test_flow_unbounded_with_a_far_kink(self):
        inst = self.two_way(None)
        inst["cost"]["a0"]["k0"] = 10**6
        p = run_cli(["minimize", "flow", "--instance", json.dumps(inst)])
        assert p.returncode == cli.EXIT_UNBOUNDED
        assert p.stdout == ('{"detail":"negative cycle of unbounded room and constant cost",'
                            '"status":"UNBOUNDED"}\n')

    def test_flow_budget_exhausted_is_inconclusive(self):
        p = run_cli(["minimize", "flow", "--instance", json.dumps(self.two_way(150000))])
        assert p.returncode == cli.EXIT_INCONCLUSIVE
        assert json.loads(p.stdout)["status"] == "INCONCLUSIVE"

    def test_flow_infeasible_finite_bounds(self):
        # {s, a} can pass on 2 + 2 units against a demand of 5.
        bad = {
            "nodes": ["s", "a", "t"],
            "arcs": [["s", "a"], ["a", "t"], ["s", "t"]],
            "m": {"s": -5, "a": 0, "t": 5},
            "lower": [0, 0, 1],
            "upper": [10, 2, 2],
        }
        p = run_cli(["minimize", "flow", "--instance", json.dumps(bad)])
        assert p.returncode == cli.EXIT_INFEASIBLE
        assert json.loads(p.stdout)["violating_set"] == ["s", "a"]

    @pytest.mark.parametrize("inst, value", [
        # A free arc carrying -2 (the nonnegative-flow dual gave 6).
        ({"nodes": ["s", "t"], "arcs": [["s", "t"]], "m": {"s": 2, "t": -2},
          "lower": [None], "upper": [None]}, 4),
        # d2 with upper bounds 1 and 5, demand 4 (the uncapacitated dual gave 8).
        ({**D2, "m": {"s": -4, "t": 4}, "upper": [1, 5]}, 10),
        # d2 with cost 3k^2 per arc (the square-sum dual gave 2).
        ({**D2, "cost": {"a0": QUAD3, "a1": QUAD3}}, 6),
    ])
    def test_flow_dual_equals_value(self, inst, value):
        p = run_cli(["minimize", "flow", "--instance", json.dumps(inst)])
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["status"] == "OK"
        assert out["value"] == out["dual_value"] == value
        assert "variant" not in out

    def test_flow_variant_is_gone(self):
        p = run_cli(["minimize", "flow", "--instance", json.dumps(D2), "--variant", "free"])
        assert p.returncode == cli.EXIT_INVALID

    def test_boxtdi(self):
        p = run_cli([
            "minimize", "boxtdi",
            "--instance", json.dumps(fixtures.p2_system().to_json()),
            "--phi", json.dumps(SQ2),
            "--window", "0..2",
        ])
        assert p.returncode == 0
        rep = json.loads(p.stdout)["report"]
        assert rep["primal_value"] == rep["dual_value"] == 2
        assert "verified" not in rep

    # rows a >= 10 and b >= 10 (feasible), and a >= 1 with -a >= 0 (empty)
    @pytest.mark.parametrize("rows, code, stdout", [
        ([[[1, 0], 10], [[0, 1], 10]], cli.EXIT_INCONCLUSIVE,
         '{"detail":"no integer point in the window, but the system is not empty",'
         '"status":"INCONCLUSIVE","window":{"hi":[3,3],"lo":[0,0]}}\n'),
        ([[[1, 0], 1], [[-1, 0], 0]], cli.EXIT_INFEASIBLE,
         '{"status":"INFEASIBLE","window":{"hi":[3,3],"lo":[0,0]}}\n'),
    ], ids=["empty-window", "empty-system"])
    def test_boxtdi_infeasible_only_without_lp_vertex(self, rows, code, stdout):
        system = {"elements": ["e1", "e2"], "rows": [
            {"coeffs": c, "rhs": r, "kind": "geq"} for c, r in rows]}
        p = run_cli([
            "minimize", "boxtdi", "--instance", json.dumps(system),
            "--phi", json.dumps(SQ2), "--window", "0..3",
        ])
        assert (p.returncode, p.stdout) == (code, stdout)

    def test_boxtdi_objective_infinite_in_window(self):
        # a + b >= 0 has points in the window, but a's table is finite only at 9.
        system = {"elements": ["a", "b"], "rows": [{"coeffs": [1, 1], "rhs": 0, "kind": "geq"}]}
        phi = {"a": {"form": "table", "k0": 9, "values": [0]}, "b": {"form": "quadratic", "a": 1}}
        p = run_cli([
            "minimize", "boxtdi", "--instance", json.dumps(system),
            "--phi", json.dumps(phi), "--window", "0..3",
        ])
        assert (p.returncode, p.stdout) == (cli.EXIT_INCONCLUSIVE, (
            '{"detail":"the objective is infinite at every integer point in the window",'
            '"status":"INCONCLUSIVE","window":{"hi":[3,3],"lo":[0,0]}}\n'))

    def test_boxtdi_empty_window_searches_no_dual(self, monkeypatch):
        # No integer point in the window: the answer needs no dual, so the
        # kernel runs once, for the primal, with no forms, and no
        # conjugate is evaluated.
        kernel, evaluate = polyhedron.separable_first_minimum, conjugate.conjugate_eval
        calls = []

        def counting_kernel(sys, win, parts, forms=()):
            calls.append(("kernel", len(forms)))
            return kernel(sys, win, parts, forms)

        def counting_eval(p, t):
            calls.append(("eval", t))
            return evaluate(p, t)

        monkeypatch.setattr(polyhedron, "separable_first_minimum", counting_kernel)
        for module in (polyhedron, conjugate):
            monkeypatch.setattr(module, "conjugate_eval", counting_eval)
        system = {"elements": ["e1", "e2"], "rows": [
            {"coeffs": [1, 0], "rhs": 10, "kind": "geq"}, {"coeffs": [0, 1], "rhs": 10, "kind": "geq"}]}
        p = run_cli([
            "minimize", "boxtdi", "--instance", json.dumps(system),
            "--phi", json.dumps(SQ2), "--window", "0..3", "--y-bound", "12",
        ])
        assert (p.returncode, p.stdout) == (cli.EXIT_INCONCLUSIVE, (
            '{"detail":"no integer point in the window, but the system is not empty",'
            '"status":"INCONCLUSIVE","window":{"hi":[3,3],"lo":[0,0]}}\n'))
        assert calls == [("kernel", 0)]

    def test_mconvex_budget_exhausted_is_inconclusive(self):
        # z1 + z2 = 0 with z >= -30000: the optimum (0, 0) lies further
        # from the greedy start than the descent budget reaches.
        inst = {"n": 2, "p": {"0": 0, "1": -30000, "2": -30000, "3": 0},
                "elements": ["e1", "e2"]}
        p = run_cli(["minimize", "mconvex", "--instance", json.dumps(inst),
                     "--phi", json.dumps(SQ2)])
        assert p.returncode == cli.EXIT_INCONCLUSIVE
        assert p.stdout == '{"detail":"descent budget exhausted","status":"INCONCLUSIVE"}\n'

    # The line z1 + z2 = 0, unbounded both ways, and the line with z >= -5
    # (and z >= -1); the optimum of z1^2 + z2^2 is (0, 0) on each.
    LINE = {"n": 2, "p": {"0": 0, "1": None, "2": None, "3": 0}, "elements": ["e1", "e2"]}
    LINE5 = {**LINE, "p": {"0": 0, "1": -5, "2": -5, "3": 0}}
    LINE1 = {**LINE, "p": {"0": 0, "1": -1, "2": -1, "3": 0}}
    # Each half of the line is unbounded on one side, and each bounds the
    # other: z2 >= 0 and z1 >= 0 meet at (0, 0) only.
    HALF2 = {**LINE, "p": {"0": 0, "1": None, "2": 0, "3": 0}}
    HALF1 = {**LINE, "p": {"0": 0, "1": 0, "2": None, "3": 0}}

    def test_mconvex_minus_inf_greedy_prefix_is_inconclusive(self):
        p = run_cli(["minimize", "mconvex", "--instance", json.dumps(self.LINE),
                     "--phi", json.dumps(SQ2)])
        assert (p.returncode, p.stdout) == (cli.EXIT_INCONCLUSIVE, (
            '{"detail":"greedy prefix hits a MINUS_INF value; base components undefined",'
            '"status":"INCONCLUSIVE"}\n'))

    def test_mconvex_infinite_start_descends_into_dom(self):
        # The greedy start (-5, 5) is outside dom Phi; the bases are
        # (k, -k) for |k| <= 5, and (0, 0), the only one in dom Phi, is
        # the brute-force optimum.
        phi = {**SQ2, "e1": {"form": "restricted", "A": 0, "B": 0, "inner": SQ2["e1"]}}
        p = run_cli(["minimize", "mconvex", "--instance", json.dumps(self.LINE5),
                     "--phi", json.dumps(phi)])
        assert (p.returncode, p.stdout) == (cli.EXIT_OK, (
            '{"report":{"bounds_used":{},"dual_value":0,"dual_witness":[1,1],"equality":true,'
            '"notes":[],"primal_value":0,"primal_witness":[0,0],"support_size":2},"status":"OK"}\n'))

    # e1 fixed at 0 on p2: the greedy start (0, 2) is optimal.  e1's right
    # slope +inf reads as 5, e2's, so w = (5, 5), whose one top set is S;
    # a w(e1) below 5 would make {e2} a top set, which (0, 2) leaves slack.
    E1_AT_0 = {**SQ2, "e1": {"form": "table", "k0": 0, "values": [0]}}

    @pytest.mark.parametrize("argv", [["minimize", "mconvex"], ["certify", "mconvex", "--point", "[0,2]"]],
                             ids=["minimize", "certify"])
    def test_mconvex_infinite_slope_certificate(self, argv):
        p = run_cli(argv + ["--instance", json.dumps(P2), "--phi", json.dumps(self.E1_AT_0)])
        assert (p.returncode, p.stdout) == (cli.EXIT_OK, (
            '{"report":{"bounds_used":{},"dual_value":4,"dual_witness":[5,5],"equality":true,'
            '"notes":[],"primal_value":4,"primal_witness":[0,2],"support_size":2},"status":"OK"}\n'))

    # The bases of p2 have e1 in 0..2: e1 fixed at 5, or finite nowhere.
    @pytest.mark.parametrize("e1", [
        {"form": "table", "k0": 5, "values": [0]},
        {"form": "restricted", "A": 3, "B": 4, "inner": {"form": "table", "k0": 0, "values": [0]}},
    ], ids=["no-base", "part-finite-nowhere"])
    def test_mconvex_no_base_in_dom_is_infeasible(self, e1):
        p = run_cli(["minimize", "mconvex", "--instance", json.dumps(P2),
                     "--phi", json.dumps({**SQ2, "e1": e1})])
        assert (p.returncode, p.stdout) == (
            cli.EXIT_INFEASIBLE, '{"detail":"no base where the objective is finite","status":"INFEASIBLE"}\n')

    @pytest.mark.parametrize("table, masks", [
        ((0, 2, 2, 2), "1, 2"),
        # Finite on the ring family 0, {1}, {2,3}, S: no square of single
        # elements sees p{1} + p{2,3} > p(empty) + p(S).
        ((0, 10, None, None, None, None, 10, 0), "1, 6"),
    ], ids=["square", "ring-family"])
    def test_mconvex_not_supermodular_is_invalid(self, table, masks):
        inst = {"n": len(table).bit_length() - 1, "p": dict(zip(map(str, range(len(table))), table))}
        p = run_cli(["minimize", "mconvex", "--instance", json.dumps(inst),
                     "--phi", json.dumps(PHI3)])
        assert (p.returncode, p.stdout) == (cli.EXIT_INVALID, "")
        assert p.stderr == f"error: supermodularity fails at masks {masks}\n"

    def test_mconvex_bool_ground_size_is_invalid(self):
        inst = {"n": True, "p": {"0": 0, "1": 3}}
        p = run_cli(["minimize", "mconvex", "--instance", json.dumps(inst),
                     "--phi", json.dumps({"e1": SQ2["e1"]})])
        assert (p.returncode, p.stdout, p.stderr) == (
            cli.EXIT_INVALID, "", "error: ground set size must be an integer in 1..20, got True\n")

    @pytest.mark.parametrize("value", [0.5, True, "1"])
    def test_mconvex_non_integer_value_is_invalid(self, value):
        inst = {"n": 2, "p": {"0": 0, "1": value, "2": 0, "3": 2}}
        p = run_cli(["minimize", "mconvex", "--instance", json.dumps(inst),
                     "--phi", json.dumps(SQ2)])
        assert (p.returncode, p.stdout) == (cli.EXIT_INVALID, "")
        assert p.stderr == f"error: p takes integers and MINUS_INF only, got {value!r}\n"

    def test_mconvex_above_fourteen_is_unchecked(self):
        # p is 0 but for p{1,2} = -1, which breaks supermodularity; only
        # n <= 14 is checked, and the report says so.
        n = 15
        inst = {"n": n, "p": {str(x): -(x == 3) for x in range(1 << n)}}
        phi = {f"e{i + 1}": SQ2["e1"] for i in range(n)}
        args = ["--instance", json.dumps(inst), "--phi", json.dumps(phi)]
        for argv in (["minimize", "mconvex"], ["certify", "mconvex", "--point", json.dumps([0] * n)]):
            p = run_cli(argv + args)
            assert p.returncode == cli.EXIT_OK
            assert json.loads(p.stdout)["report"]["notes"] == [
                "supermodularity of p unchecked (n > 14)"]

    @pytest.mark.parametrize("order", [("LINE", "LINE1"), ("LINE1", "LINE"), ("HALF2", "HALF1")])
    def test_m2_with_one_unbounded_side(self, order):
        inst = {key: getattr(self, name) for key, name in zip(("p1", "p2"), order)}
        p = run_cli(["minimize", "m2", "--instance", json.dumps(inst), "--phi", json.dumps(SQ2)])
        assert (p.returncode, p.stdout) == (cli.EXIT_OK, (
            '{"report":{"bounds_used":{"w_bound":3},"dual_value":0,"dual_witness":[[-3,-3],[2,2]],'
            '"equality":true,"notes":[],"primal_value":0,"primal_witness":[0,0],"support_size":4},'
            '"status":"OK"}\n'))

    def test_m2_empty_intersection_is_infeasible(self):
        inst = {"p1": P2, "p2": {"n": 2, "p": {"0": 0, "1": 0, "2": 0, "3": 3}}}
        p = run_cli(["minimize", "m2", "--instance", json.dumps(inst), "--phi", json.dumps(SQ2)])
        assert (p.returncode, p.stdout, p.stderr) == (cli.EXIT_INFEASIBLE, (
            '{"detail":"no integral point in both base sets","status":"INFEASIBLE"}\n'), "")

    def test_m2_meet_bounded_by_the_lp(self):
        # p1 finite (0) on {}, {3}, {1,2}, S and p2 on {}, {2}, {1,3}, S:
        # the meet of the base boxes leaves z1 free both ways, and the
        # intersection theorem's box over both tables is [0, 0]^3.
        sides = [{"n": 3, "elements": ["e1", "e2", "e3"],
                  "p": {str(m): 0 if m in finite else None for m in range(8)}}
                 for finite in ((0, 4, 3, 7), (0, 2, 5, 7))]
        phi = {e: {"form": "quadratic", "a": 1} for e in ("e1", "e2", "e3")}
        p = run_cli(["minimize", "m2", "--instance", json.dumps(dict(zip(("p1", "p2"), sides))),
                     "--phi", json.dumps(phi)])
        assert (p.returncode, p.stdout, p.stderr) == (cli.EXIT_OK, (
            '{"report":{"bounds_used":{"w_bound":3},"dual_value":0,"dual_witness":[[-3,-3,-3],[2,2,2]],'
            '"equality":true,"notes":[],"primal_value":0,"primal_witness":[0,0,0],"support_size":6},'
            '"status":"OK"}\n'), "")

    @pytest.mark.parametrize("other, stdout, code", [
        ("LINE", '{"detail":"the common bases are unbounded","status":"INCONCLUSIVE"}\n', cli.EXIT_INCONCLUSIVE),
        ("HALF2", '{"detail":"the common bases are unbounded","status":"INCONCLUSIVE"}\n', cli.EXIT_INCONCLUSIVE),
        ("SHIFTED", '{"detail":"no integral point in both base sets","status":"INFEASIBLE"}\n', cli.EXIT_INFEASIBLE),
    ], ids=["same-line", "half-line", "parallel-line"])
    def test_m2_meet_the_lp_cannot_bound(self, other, stdout, code):
        # The line z1 + z2 = 0 meets itself and its half z2 >= 0 in an
        # unbounded set, and misses the line z1 + z2 = 1: the intersection
        # theorem's box is infinite, or p1(S) != p2(S) empties it.
        shifted = {**self.LINE, "p": {"0": 0, "1": None, "2": None, "3": 1}}
        inst = {"p1": self.LINE, "p2": shifted if other == "SHIFTED" else getattr(self, other)}
        p = run_cli(["minimize", "m2", "--instance", json.dumps(inst), "--phi", json.dumps(SQ2)])
        assert (p.returncode, p.stdout, p.stderr) == (code, stdout, "")

    @pytest.mark.parametrize("p2_order, stdout, code, stderr", [
        ("same", '{"detail":"no integral point in both base sets","status":"INFEASIBLE"}\n',
         cli.EXIT_INFEASIBLE, ""),
        ("swapped", "", cli.EXIT_INVALID, "error: ground sets differ: ['a', 'b'] and ['b', 'a']\n"),
    ], ids=["same-order", "swapped-order"])
    def test_m2_matches_elements_by_name(self, p2_order, stdout, code, stderr):
        # p1 on (a, b) has the one base a = 2; p2 asks b >= 1, written in
        # p1's order or in the order (b, a).  Read by position, the swapped
        # p2 asked a >= 1 and (2, 0) was printed as OK.
        p1 = {"n": 2, "elements": ["a", "b"], "p": {"0": 0, "1": 2, "2": 0, "3": 2}}
        p2 = ({"n": 2, "elements": ["a", "b"], "p": {"0": 0, "1": 0, "2": 1, "3": 2}} if p2_order == "same"
              else {"n": 2, "elements": ["b", "a"], "p": {"0": 0, "1": 1, "2": 0, "3": 2}})
        phi = {e: {"form": "quadratic", "a": 1} for e in ("a", "b")}
        p = run_cli(["minimize", "m2", "--instance", json.dumps({"p1": p1, "p2": p2}), "--phi", json.dumps(phi)])
        assert (p.returncode, p.stdout, p.stderr) == (code, stdout, stderr)

    def test_m2_gap_is_inconclusive(self):
        # With |w_i| <= 1 the best split reaches 4 against the minimum 10:
        # a report whose dual falls short is never printed as OK.
        quad5 = {"form": "quadratic", "a": 5}
        p = run_cli(["minimize", "m2", "--instance", json.dumps({"p1": P2, "p2": P2B}),
                     "--phi", json.dumps({"e1": quad5, "e2": quad5}), "--w-window", "1"])
        assert (p.returncode, p.stdout) == (cli.EXIT_INCONCLUSIVE, (
            '{"report":{"bounds_used":{"w_bound":1},"dual_value":4,"dual_witness":[[1,1],[1,1]],'
            '"equality":false,"notes":[],"primal_value":10,"primal_witness":[1,1],"support_size":4},'
            '"status":"INCONCLUSIVE"}\n'))


class TestCertifyCommands:
    def test_mconvex_point(self):
        p = run_cli([
            "certify", "mconvex",
            "--instance", json.dumps(fixtures.p2().to_json()),
            "--phi", json.dumps(SQ2),
            "--point", "[1,1]",
        ])
        assert p.returncode == 0
        assert json.loads(p.stdout)["report"]["equality"] is True

    def test_mconvex_bad_weights(self):
        p = run_cli([
            "certify", "mconvex",
            "--instance", json.dumps(fixtures.p2().to_json()),
            "--phi", json.dumps(SQ2),
            "--point", "[1,1]",
            "--weights", "[3,2]",
        ])
        assert p.returncode == cli.EXIT_CRITERIA

    def test_flow_pair(self):
        p = run_cli([
            "certify", "flow",
            "--instance", json.dumps(fixtures.d2_instance().to_json()),
            "--flow", "[1,1]",
            "--potential", "[0,2]",
        ])
        assert p.returncode == 0

    def test_flow_potential_as_a_node_map(self):
        p = run_cli([
            "certify", "flow",
            "--instance", json.dumps(fixtures.d2_instance().to_json()),
            "--flow", "[1,1]",
            "--potential", '{"t":2,"s":0}',
        ])
        assert p.returncode == 0
        assert json.loads(p.stdout)["report"]["dual_witness"] == [0, 2]

    def test_flow_weighted_cost_pair(self):
        # The square-sum check reported primal_value 2 for this pair.
        inst = {**D2, "cost": {"a0": QUAD3, "a1": QUAD3}}
        p = run_cli([
            "certify", "flow",
            "--instance", json.dumps(inst),
            "--flow", "[1,1]",
            "--potential", "[0,3]",
        ])
        assert p.returncode == 0
        rep = json.loads(p.stdout)["report"]
        assert rep["primal_value"] == rep["dual_value"] == 6
        assert rep["equality"] is True

    def test_flow_gap(self):
        # A real process: main() must turn run()'s code into the exit status.
        p = run_cli_process([
            "certify", "flow",
            "--instance", json.dumps(fixtures.d2_instance().to_json()),
            "--flow", "[2,0]",
            "--potential", "[0,2]",
        ])
        assert p.returncode == cli.EXIT_CRITERIA

    def test_flow_gap_writes_json_out(self, tmp_path):
        out = tmp_path / "F.json"
        p = run_cli([
            "certify", "flow",
            "--instance", json.dumps(fixtures.d2_instance().to_json()),
            "--flow", "[2,0]",
            "--potential", "[0,2]",
            "--json-out", str(out),
        ])
        assert p.returncode == cli.EXIT_CRITERIA
        assert json.loads(p.stdout)["status"] == "CRITERIA_VIOLATED"
        assert out.read_bytes() == p.stdout.encode()

    def test_json_out_unwritable_is_invalid(self, tmp_path):
        p = run_cli([
            "certify", "flow",
            "--instance", json.dumps(fixtures.d2_instance().to_json()),
            "--flow", "[2,0]",
            "--potential", "[0,2]",
            "--json-out", str(tmp_path / "missing" / "F.json"),
        ])
        assert p.returncode == cli.EXIT_INVALID


def _shape(phi):
    return ["conjugate", "--ell", "0", "--phi", json.dumps(phi)]


def _system(elements, rows):
    return ["probe", "--window", "0..1", "--system", json.dumps({"elements": elements, "rows": rows})]


def _flow(**changes):
    return ["minimize", "flow", "--instance", json.dumps({**D2, **changes})]


QUAD = {"form": "quadratic", "a": 1}


class TestBadInput:
    """Input of the wrong length, type or range exits 4 with a message, not a
    traceback."""

    CERTIFY = ["certify", "mconvex", "--instance", json.dumps(P2), "--phi", json.dumps(SQ2)]
    INVERSE = ["inverse", "--system", json.dumps(P2_SYSTEM), "--deviation", json.dumps(DEV2)]
    BOXTDI = ["minimize", "boxtdi", "--instance", json.dumps(P2_SYSTEM), "--phi", json.dumps(SQ2),
              "--window", "0..2"]
    M2 = ["minimize", "m2", "--instance", json.dumps({"p1": P2, "p2": P2B}), "--phi", json.dumps(SQ2)]

    @pytest.mark.parametrize("argv, needle", [
        (CERTIFY + ["--point", "[0,2]", "--weights", "[0]"], "need 2 entries"),
        (CERTIFY + ["--point", "[1,1]", "--weights", "[3,3,7]"], "need 2 entries"),
        (INVERSE + ["--target", "[2]"], "target (2,) needs 2 entries"),
        (INVERSE + ["--target", "[1,1,4]"], "target (1, 1, 4) needs 2 entries"),
        (["conjugate", "--ell", "-1", "--phi",
          '{"form":"flat_bottom","a":0,"b":2,"c_minus":-1.5,"c_plus":1}'], "'c_minus'"),
        (["conjugate", "--ell", "0", "--phi",
          '{"form":"vshape","k0":0,"c_minus":-1,"c_plus":true}'], "'c_plus'"),
        (["conjugate", "--ell", "0", "--phi", '{"form":"quadratic","a":1.5}'], "'a'"),
        (BOXTDI + ["--y-bound", "-1"], "y_bound must be >= 0"),
        (M2 + ["--w-window=2..1"], "--w-window 2..1 is empty"),
        (M2 + ["--w-window=-1..3"], "the split window is ±K, such as ±3\n"),
        (M2 + ["--w-window=3..3"], "the split window is ±K, such as ±3\n"),
        (M2 + ["--w-window=-5..-2"], "the split window is ±K, such as ±5\n"),
        (BOXTDI[:-1] + ["3..1"], "--window 3..1 is empty"),
        (["probe", "--system", json.dumps(P2_SYSTEM), "--window", "3..1"], "--window 3..1 is empty"),
        (INVERSE + ["--target", "[1,1]", "--w-window=3..1"], "--w-window 3..1 is empty"),
        (BOXTDI[:-1] + ["3.."], "--window must be LO..HI or ±K, got '3..'"),
        (["probe", "--system", json.dumps(P2_SYSTEM), "--window", "a"], "--window must be LO..HI or ±K, got 'a'"),
        (M2 + ["--w-window=..3"], "--w-window must be LO..HI or ±K, got '..3'"),
        (INVERSE + ["--target", "[1,1]", "--w-window=1..2..3"],
         "--w-window must be LO..HI or ±K, got '1..2..3'"),
        # Not read as a second node t, without arcs, whose demand no flow meets.
        (["minimize", "flow", "--instance", json.dumps(
            {"nodes": ["s", "t", "t"], "arcs": [["s", "t"]], "m": {"s": -2, "t": 1},
             "lower": [0], "upper": [None]})], "node 't' is declared twice"),
        (CERTIFY + ["--point", "[1]"], "--point needs 2 entries, got 1"),
        (CERTIFY + ["--point", "[1,1,1]"], "--point needs 2 entries, got 3"),
        (_shape({"form": "table", "k0": 0, "values": []}), "Table needs at least one value"),
        (_shape({"form": "quadratic", "a": 0}), "Quadratic coefficient must be a positive integer"),
        (_shape({"form": "vshape", "k0": 0, "c_minus": 2, "c_plus": 1}), "need c_minus <= c_plus"),
        (_shape({"form": "vshape", "k0": 5, "c_minus": 0, "c_plus": 1, "A": 0, "B": 3}), "need A <= k0 <= B"),
        (_shape({"form": "flat_bottom", "a": 0, "b": 1, "c_minus": 1, "c_plus": 2}), "need c_minus <= 0 <= c_plus"),
        (_shape({"form": "flat_bottom", "a": 2, "b": 1, "c_minus": -1, "c_plus": 1}), "need A <= a <= b <= B"),
        (_shape({"form": "restricted", "A": 3, "B": 1, "inner": QUAD}), "need A <= B"),
        (_shape({"form": "sum_of", "parts": []}), "SumOf needs at least one part"),
        (_system([], [{"coeffs": [], "rhs": 0, "kind": "geq"}]), "need at least one element"),
        (_system(["a"], []), "need at least one row"),
        (_system(["a"], [{"coeffs": [1, 2], "rhs": 0, "kind": "geq"}]), "row length does not match ground set"),
        (_system(["a"], [{"coeffs": [1], "rhs": 0, "kind": "leq"}]), "row kind must be"),
        (["minimize", "mconvex", "--instance", json.dumps({**P2, "elements": ["e1"]}), "--phi", json.dumps(SQ2)],
         "element names must match n"),
        (_flow(lower=[0]), "bounds must have one entry per arc"),
        (_flow(m={"s": -2, "t": 1}), "m must sum to zero"),
        (_flow(lower=[0, 3], upper=[None, 2]), "need lower <= upper per arc"),
        (_flow(arcs=[["s", "t"], ["s", "u"]]), "uses an undeclared node"),
        (_flow(upper=[5, None], cost={"a0": {"form": "restricted", "A": 10, "B": 12, "inner": QUAD}, "a1": QUAD}),
         "the cost of arc 0 is finite nowhere within its bounds"),
    ], ids=["short-weights", "long-weights", "short-target", "long-target",
            "float-c_minus", "bool-c_plus", "float-a", "negative-y-bound", "empty-split-window",
            "asymmetric-split-window", "one-point-split-window", "negative-split-window",
            "empty-boxtdi-window", "empty-probe-window", "empty-inverse-window",
            "malformed-boxtdi-window", "malformed-probe-window", "malformed-split-window",
            "malformed-inverse-window", "duplicate-node", "short-point", "long-point",
            "table-empty", "quadratic-zero", "vshape-slopes", "vshape-kink", "flat-slopes",
            "flat-order", "restricted-order", "sum-empty", "no-element", "no-row", "row-length",
            "row-kind", "element-names", "flow-bounds", "flow-demand", "flow-bound-order",
            "flow-node", "flow-cost-domain"])
    def test_exits_invalid_with_message(self, argv, needle):
        p = run_cli(argv)
        assert (p.returncode, p.stdout) == (cli.EXIT_INVALID, "")
        assert p.stderr.startswith("error:") and needle in p.stderr

    # A shape's missing or malformed argument is named with its form.
    @pytest.mark.parametrize("phi, stderr", [
        ({"form": "quadratic"}, "quadratic: missing 'a'"),
        ({"form": "sum_of", "parts": 5}, "sum_of: 'parts' must be a list, got 5"),
        ({"form": "vshape", "k0": 0, "c_minus": -1, "c_plus": 1, "A": 1.5},
         "vshape: 'A' must be an integer or null, got 1.5"),
        ({"form": "quadratic", "a": 1.5}, "quadratic: 'a' must be an integer, got 1.5"),
    ], ids=["missing-key", "parts-not-a-list", "float-bound", "float-int"])
    def test_shape_errors_name_form_and_key(self, phi, stderr):
        p = run_cli(["conjugate", "--phi", json.dumps(phi), "--ell", "1"])
        assert (p.returncode, p.stdout, p.stderr) == (cli.EXIT_INVALID, "", f"error: {stderr}\n")

    # A missing key of an instance is named with the object that lacks it.
    @pytest.mark.parametrize("argv, stderr", [
        (["minimize", "mconvex", "--instance", '{"n":2,"p":{"0":0,"1":0,"3":2}}', "--phi", json.dumps(SQ2)],
         "p: missing mask '2'"),
        (["minimize", "mconvex", "--instance", json.dumps(P2), "--phi", '{"e1":{"form":"quadratic","a":1}}'],
         "phi: missing element 'e2'"),
        (["conjugate", "--phi", '{"form":"shifted","k0":1,"inner":5}', "--ell", "1"],
         "shifted: 'inner' must be a tagged object, got 5"),
        (["conjugate", "--phi", '{"form":"sum_of","parts":[{"form":"quadratic","a":1},5]}', "--ell", "1"],
         "sum_of: 'parts' entry 1 must be a tagged object, got 5"),
        (["minimize", "boxtdi", "--instance", json.dumps(
            {**P2_SYSTEM, "rows": [{"coeffs": [1, 0], "rhs": 0}] + P2_SYSTEM["rows"]}),
          "--phi", json.dumps(SQ2), "--window", "0..2"], "row 0: missing 'kind'"),
        (["minimize", "flow", "--instance", json.dumps({**D2, "m": {"s": -1}})], "m: missing node 't'"),
        (["certify", "flow", "--instance", json.dumps(D2), "--flow", "[1,1]", "--potential", '{"s":0}'],
         "--potential: missing node 't'"),
        (["minimize", "flow", "--instance", json.dumps({**D2, "cost": {"a0": D2["cost"]["a0"]}})],
         "cost: missing arc 'a1'"),
        (["minimize", "m2", "--instance", json.dumps({"p1": P2}), "--phi", json.dumps(SQ2)],
         "m2 instance: missing 'p2'"),
        (["minimize", "m2", "--instance", "[1,2]", "--phi", json.dumps(SQ2)], "m2 instance: missing 'p1'"),
        (["minimize", "mconvex", "--instance", json.dumps({"p": P2["p"]}), "--phi", json.dumps(SQ2)],
         "set function: missing 'n'"),
        (["minimize", "boxtdi", "--instance", json.dumps({"elements": ["e1", "e2"]}),
          "--phi", json.dumps(SQ2), "--window", "0..2"], "system: missing 'rows'"),
        (["minimize", "flow", "--instance", json.dumps({k: v for k, v in D2.items() if k != "upper"})],
         "flow instance: missing 'upper'"),
    ], ids=["mask", "element", "inner", "parts-entry", "row-kind", "node", "potential-node", "arc", "m2-side",
            "m2-not-an-object", "ground-size", "rows", "flow-bound"])
    def test_missing_keys_name_object_and_key(self, argv, stderr):
        p = run_cli(argv)
        assert (p.returncode, p.stdout, p.stderr) == (cli.EXIT_INVALID, "", f"error: {stderr}\n")

    CERTIFY_FLOW = ["certify", "flow", "--instance", json.dumps(D2)]

    # Each entry of an integer vector flag must be an int: the first three
    # were printed as OK (exit 0), the weights as CRITERIA_VIOLATED (exit 5)
    # and the float potentials failed inside an extended-integer comparison.
    @pytest.mark.parametrize("argv, stderr", [
        (CERTIFY + ["--point", "[true,true]"], "--point must be a list of integers, got [true, true]"),
        (INVERSE + ["--target", "[0.5,1.5]"], "--target must be a list of integers, got [0.5, 1.5]"),
        (CERTIFY_FLOW + ["--flow", "[1,true]", "--potential", "[0,2]"],
         "--flow must be a list of integers, got [1, true]"),
        (CERTIFY + ["--point", "[1,1]", "--weights", "[3,true]"],
         "--weights must be a list of integers, got [3, true]"),
        (CERTIFY_FLOW + ["--flow", "[1,1]", "--potential", "[0.5,0]"],
         "--potential must be a list of integers, got [0.5, 0]"),
        (CERTIFY_FLOW + ["--flow", "[1,1]", "--potential", '{"s":0,"t":1.5}'],
         "--potential must be a list of integers, got [0, 1.5]"),
        (CERTIFY + ["--point", '{"e1":1,"e2":1}'],
         '--point must be a list of integers, got {"e1": 1, "e2": 1}'),
    ], ids=["bool-point", "float-target", "bool-flow", "bool-weights", "float-potential",
            "float-potential-map", "point-map"])
    def test_integer_vector_flags(self, argv, stderr):
        p = run_cli(argv)
        assert (p.returncode, p.stdout, p.stderr) == (cli.EXIT_INVALID, "", f"error: {stderr}\n")


D2_INSTANCE = fixtures.d2_instance()
P2_LIB = fixtures.p2_system()
SQ2_PHI = conjugate.square_sum(P2_LIB.elements)
WIN2 = polyhedron.Window.uniform(2, -6, 6)


# The checks that only the library reaches raise ValueError with their message.
@pytest.mark.parametrize("call, needle", [
    (lambda: netflow.FlowInstance(D2_INSTANCE.digraph, (0,), D2_INSTANCE.lower, D2_INSTANCE.upper,
                                  D2_INSTANCE.cost), "m must have one entry per node"),
    (lambda: netflow.FlowInstance(D2_INSTANCE.digraph, D2_INSTANCE.m, D2_INSTANCE.lower, D2_INSTANCE.upper,
                                  conjugate.SeparableConvex(D2_INSTANCE.cost.parts[:1])),
     "cost must have one part per arc"),
    (lambda: mconvex.SupermodularFn(2, (0, 0, 2)), "table must have 2^n entries"),
    (lambda: polyhedron.Window((0,), (1, 1)), "lo/hi length mismatch"),
    (lambda: polyhedron.Window((1, 0), (0, 0)), "need lo <= hi componentwise"),
    (lambda: polyhedron.dilation(fixtures.p2_system(), 0), "dilation factor must be >= 1"),
    (lambda: polyhedron.tangent_cone(P2_LIB), "need at least one target"),
    (lambda: polyhedron.vertex_hull_window(polyhedron.LinearSystem(
        ("a",), (polyhedron.Row((1,), 1, "geq"), polyhedron.Row((-1,), 0, "geq")))), "system has no vertices"),
    (lambda: polyhedron.tangent_cone(P2_LIB, (2,)), "target (2,) needs 2 entries"),
    (lambda: find_weight_in_box(P2_LIB, (1, 1, 5), (-6, -6), (6, 6), WIN2), "target (1, 1, 5) needs 2 entries"),
    (lambda: polyhedron.feasibility_condition(P2_LIB, (1, 1, 5), (0, 0, 0), (0, 0, 0)),
     "window length 3 does not match the system's 2 elements"),
    (lambda: polyhedron.minimize_bruteforce(P2_LIB, SQ2_PHI, polyhedron.Window.uniform(3, 0, 2)),
     "window length 3 does not match the system's 2 elements"),
    (lambda: polyhedron.minimize_bruteforce(P2_LIB, SQ2_PHI, polyhedron.Window.uniform(1, 0, 2)),
     "window length 1 does not match the system's 2 elements"),
    (lambda: next(polyhedron.enumerate_integer_points(P2_LIB, polyhedron.Window.uniform(1, 0, 2))),
     "window length 1 does not match the system's 2 elements"),
    (lambda: polyhedron.mu_form_dual_search(P2_LIB, conjugate.square_sum(("a",)), WIN2),
     "expected 1 components, got 2"),
    (lambda: polyhedron.mu_form_dual_search(P2_LIB, conjugate.square_sum(("a", "b", "c")), WIN2),
     "expected 3 components, got 2"),
    (lambda: polyhedron.mu_form_dual_search(P2_LIB, SQ2_PHI, WIN2, (3, 3)),
     "z=(3, 3) is not a point of the system with finite Phi"),
    (lambda: polyhedron.mu_form_dual_search(P2_LIB, conjugate.SeparableConvex(
        tuple((e, conjugate.Restricted(1, 1, conjugate.Quadratic(1))) for e in P2_LIB.elements)), WIN2, (0, 2)),
     "z=(0, 2) is not a point of the system with finite Phi"),
], ids=["flow-m-length", "flow-cost-length", "set-function-table", "window-length", "window-order",
        "dilation-factor", "no-target", "hull-of-empty", "tangent-cone-point", "weight-box-point",
        "feasibility-point", "primal-long-window", "primal-short-window", "points-short-window",
        "mu-form-short-phi", "mu-form-long-phi", "mu-form-point-outside", "mu-form-point-phi-inf"])
def test_library_input_checks(call, needle):
    with pytest.raises(ValueError, match=re.escape(needle)):
        call()


class TestVerdictIsTheCommandsOwnCheck:
    """OK needs the dual value that the command computes from the witness
    itself: a search that returns a wrong witness, reported at the
    primal's value, gets INCONCLUSIVE and its witness's true value."""

    @pytest.mark.parametrize("y, value", [((0, 0, 0), 0), ((-1, 0, 1), 2)], ids=["worth-0", "sign-infeasible"])
    def test_boxtdi(self, monkeypatch, y, value):
        # (-1, 0, 1) is worth the minimum 2, but is negative on a >= row.
        wrong = polyhedron.MinMaxReport(dual_value=2, dual_witness=polyhedron.DualVector(y))
        monkeypatch.setattr(polyhedron, "dual_search_bruteforce", lambda *args: wrong)
        p = run_cli(GOLDEN["minimize-boxtdi"][0])
        out = json.loads(p.stdout)
        assert (p.returncode, out["status"]) == (cli.EXIT_INCONCLUSIVE, "INCONCLUSIVE")
        assert (out["report"]["dual_value"], out["report"]["equality"]) == (value, False)

    def test_m2(self, monkeypatch):
        split = mconvex.m2_minimize_and_split

        def wrong(*args, **kwargs):
            report = split(*args, **kwargs)
            report.dual_witness = ((0, 0), (0, 0))
            return report

        monkeypatch.setattr(mconvex, "m2_minimize_and_split", wrong)
        p = run_cli(GOLDEN["minimize-m2"][0])
        out = json.loads(p.stdout)
        assert (p.returncode, out["status"]) == (cli.EXIT_INCONCLUSIVE, "INCONCLUSIVE")
        assert (out["report"]["dual_value"], out["report"]["equality"]) == (0, False)


class TestFileInputs:
    """Every instance flag takes a path to a JSON file as well as inline
    JSON, and a file that is missing or not JSON exits 4 with a message."""

    @pytest.mark.parametrize("name, flags", [
        ("inverse", ("--system", "--deviation")),
        ("minimize-boxtdi", ("--instance", "--phi")),
    ])
    def test_file_paths_print_what_inline_json_prints(self, tmp_path, name, flags):
        argv = list(GOLDEN[name][0])
        for flag in flags:
            i = argv.index(flag) + 1
            path = tmp_path / f"{flag.lstrip('-')}.json"
            path.write_text(argv[i], encoding="utf-8")
            argv[i] = str(path)
        p = run_cli(argv)
        assert (p.returncode, p.stdout, p.stderr) == (cli.EXIT_OK, GOLDEN[name][1] + "\n", "")

    @pytest.mark.parametrize("content", [None, "{\"elements\": [", "not json"],
                             ids=["missing-file", "truncated-json", "bare-word"])
    def test_unreadable_file_is_invalid(self, tmp_path, content):
        path = tmp_path / "system.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        p = run_cli(["inverse", "--system", str(path), "--target", "[2,0]",
                     "--deviation", json.dumps(DEV2), "--w-window=-1..5"])
        assert (p.returncode, p.stdout) == (cli.EXIT_INVALID, "")
        assert p.stderr.startswith("error:"), p.stderr


class TestInverseCommand:
    def test_worked_example(self):
        p = run_cli([
            "inverse",
            "--system", json.dumps(fixtures.p2_system().to_json()),
            "--target", "[2,0]",
            "--deviation", json.dumps(DEV2),
            "--w-window=-1..5",
        ])
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["value"] == out["dual_value"] == 2
        assert out["checks"] == {"orthogonal": True, "fitting": True}

    def test_targets_checked_before_the_window(self):
        # A target off the system and an empty window: the target is named.
        p = run_cli(TestBadInput.INVERSE + ["--target", "[1,0]", "--w-window=3..1"])
        assert (p.returncode, p.stdout, p.stderr) == (
            cli.EXIT_CRITERIA, '{"detail":"target (1, 0) violates the system","status":"CRITERIA_VIOLATED"}\n', "")


class TestProbeCommand:
    def test_p2(self):
        p = run_cli([
            "probe",
            "--system", json.dumps(fixtures.p2_system().to_json()),
            "--window", "0..2",
        ])
        assert p.returncode == 0
        assert json.loads(p.stdout)["box_integer"] is True

    def test_s3_dilation_witness(self):
        s3_2 = polyhedron.dilation(fixtures.s3_system(), 2)
        p = run_cli(["probe", "--system", json.dumps(s3_2.to_json()), "--window", "0..1"])
        assert p.returncode == cli.EXIT_CRITERIA
        assert p.stdout == (
            '{"box_integer":false,"status":"CRITERIA_VIOLATED",'
            '"witness":[1,1,1,"1/2","1/2","1/2"]}\n'
        )

    @pytest.mark.parametrize("row", [
        {"coeffs": [1.5, 0], "rhs": 0, "kind": "geq"},
        {"coeffs": [1, 0], "rhs": 2.0, "kind": "geq"},
        {"coeffs": [True, 0], "rhs": 0, "kind": "geq"},
        {"coeffs": [1, "1"], "rhs": 0, "kind": "geq"},
    ])
    def test_non_integer_row_is_invalid(self, row):
        system = fixtures.p2_system().to_json()
        system["rows"].append(row)
        p = run_cli(["probe", "--system", json.dumps(system), "--window", "0..2"])
        assert p.returncode == cli.EXIT_INVALID
        assert p.stdout == ""
        assert "integers" in p.stderr

    @pytest.mark.parametrize("elements, needle", [
        ("ab", "a list of strings"),
        (["a", "a"], "distinct"),
        ([1, 2], "a list of strings"),
    ], ids=["string", "repeated", "integers"])
    def test_bad_elements_are_invalid(self, elements, needle):
        system = {**fixtures.p2_system().to_json(), "elements": elements}
        p = run_cli(["probe", "--system", json.dumps(system), "--window", "0..2"])
        assert (p.returncode, p.stdout) == (cli.EXIT_INVALID, "")
        assert needle in p.stderr


class TestSelftest:
    def test_passes_and_is_deterministic(self):
        a = run_cli(["selftest"])
        b = run_cli(["selftest"])
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_seed_recorded(self):
        p = run_cli(["selftest", "--seed", "5"])
        assert json.loads(p.stdout)["seed"] == 5


class TestDeterminism:
    def test_byte_identical_across_hash_seeds(self):
        args = [
            "minimize", "mconvex",
            "--instance", json.dumps(fixtures.p2().to_json()),
            "--phi", json.dumps(SQ2),
        ]
        outs = set()
        for seed in ("0", "1"):
            # bytes, not text: the comparison is of stdout byte for byte
            proc = subprocess.run(
                CLI + args, capture_output=True,
                env=child_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["status"] == "OK"
            outs.add(proc.stdout)
        assert len(outs) == 1

    def test_sorted_keys(self):
        p = run_cli(["selftest"])
        obj = json.loads(p.stdout)
        assert list(obj) == sorted(obj)

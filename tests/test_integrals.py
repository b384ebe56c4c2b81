import dataclasses
import json
import math
import sys
from itertools import chain

import numpy as np
import pytest

import helpers
from charmax import expr, integrals, locus, problem_path
from charmax.cli import main
from charmax.expr import (Const, EvalDomainError, Var, diff, evaluate, parse,
                          substitute, var_names)
from charmax.expr import compile as compile_exprs
from charmax.integrals import (FirstIntegralError, FirstIntegralSet,
                               ImplicitSolutionError, build_implicit_solution,
                               check_nondegeneracy, conservation_law_integrals,
                               defining_function_from_initial,
                               implicit_solution_for_problem,
                               verify_first_integral)
from charmax.problem import (Box, VectorField, characteristic_field,
                             initial_set_samples, make_problem)

BURGERS_BOX = Box((-0.25, 2.5), ((-0.6, 2.0),), (0.05, 3.05))


def burgers():
    return make_problem(1, "1", ["u"], "0", "1/(x+1)", BURGERS_BOX)


def circular():
    return make_problem(1, "u", ["0"], "-t", "sqrt(1 - x^3)",
                        Box((-1.4, 1.4), ((-1.4, 1.4),), (-0.7, 2.3)))


def box_samples(box, count, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = box.lows(), box.highs()
    return lo + rng.random((count, len(lo))) * (hi - lo)


class TestVerify:
    def test_burgers_rho_exact_zero(self):
        problem, _ = burgers()
        fld = characteristic_field(problem)
        rho = parse("x - u*t", n=1)
        report = verify_first_integral(fld, rho, box_samples(problem.box, 200))
        assert report.passed
        assert report.max_residual == 0.0

    def test_circular_radius_integral(self):
        problem, _ = circular()
        fld = characteristic_field(problem)
        report = verify_first_integral(fld, parse("t^2 + u^2", n=1),
                                       box_samples(problem.box, 200))
        assert report.passed
        assert report.max_residual <= 1e-12

    def test_t_is_not_a_first_integral(self):
        problem, _ = burgers()
        fld = characteristic_field(problem)
        report = verify_first_integral(fld, Var("t"),
                                       box_samples(problem.box, 50))
        assert not report.passed
        assert report.max_residual == 1.0  # X t = alpha = 1

    def test_domain_violations_listed_separately(self):
        problem, _ = make_problem(0, "1", [], "u^2", "1",
                                  Box((-5.0, 2.0), (), (-10.0, 10.0)))
        fld = characteristic_field(problem)
        rho = parse("t + 1/u", n=0)
        pts = np.array([[0.0, 1.0], [0.5, 0.0], [0.5, 2.0]])  # u = 0 breaks
        report = verify_first_integral(fld, rho, pts)
        assert report.passed
        assert len(report.excluded) == 1
        assert report.excluded[0][0] == [0.5, 0.0]

    @pytest.mark.parametrize("text", ["t*exp(exp(u))", "exp(exp(u))"])
    def test_non_finite_samples_are_left_out(self, text):
        # exp(exp(u)) is inf for every u in [10, 20]: no sample is finite,
        # so the check proves nothing and fails, although exp(exp(u)) is a
        # first integral of (1, u, 0)
        problem, _ = make_problem(
            1, "1", ["u"], "0", "x + 15",
            Box((-1.0, 1.0), ((-1.0, 1.0),), (10.0, 20.0)))
        report = verify_first_integral(characteristic_field(problem),
                                       parse(text, n=1),
                                       box_samples(problem.box, 200))
        assert not report.passed
        assert report.worst_point is None
        assert len(report.excluded) == 200
        assert all("non-finite" in reason for _, reason in report.excluded)

    def test_report_json(self):
        problem, _ = burgers()
        fld = characteristic_field(problem)
        report = verify_first_integral(fld, Var("u"),
                                       box_samples(problem.box, 10))
        doc = json.loads(report.to_json())
        assert set(doc) == {"max_residual", "mean_residual", "worst_point",
                            "pass", "excluded"}


class TestConservation:
    def test_burgers_set(self):
        rho = conservation_law_integrals([Var("u")])
        assert rho.rho == (Var("u"), parse("x - u*t", n=1))
        assert rho.provenance == "builtin-conservation"

    def test_constant_speed(self):
        rho = conservation_law_integrals([Const(1.0)])
        assert rho.rho == (Var("u"), parse("x - t", n=1))

    def test_quadratic_speed_residual(self):
        problem, _ = make_problem(
            1, "1", ["u^2"], "0", "1/(x+2)",
            Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        fld = characteristic_field(problem)
        rho = conservation_law_integrals(list(problem.a))
        report = verify_first_integral(fld, rho.rho[1],
                                       box_samples(problem.box, 500))
        assert report.passed and report.max_residual <= 1e-12

    def test_speed_must_depend_on_u_only(self):
        with pytest.raises(FirstIntegralError, match="conservation form"):
            conservation_law_integrals([parse("u + t", n=1)])


class TestNondegeneracy:
    def test_burgers_on_gamma(self):
        problem, data = burgers()
        gamma = initial_set_samples(data, 9)
        rho = conservation_law_integrals(list(problem.a))
        report = check_nondegeneracy(rho, gamma, n=1)
        assert report.ok
        assert report.min_singular_value >= 1e-6

    def test_duplicated_integral_fails(self):
        rho = FirstIntegralSet((Var("u"), Var("u")), "user-supplied")
        report = check_nondegeneracy(rho, np.array([[0.0, 0.0, 1.0]]), n=1)
        assert not report.ok

    def test_circular_rank_drop_at_origin_plane(self):
        rho = FirstIntegralSet((Var("x1"), parse("t^2 + u^2", n=1)),
                               "user-supplied")
        bad = np.array([[0.0, 0.3, 0.0]])   # t = 0, u = 0: d(t^2+u^2) = 0
        assert not check_nondegeneracy(rho, bad, n=1).ok
        gamma = np.array([[0.0, 0.0, 1.0], [0.0, 0.1, math.sqrt(0.999)]])
        assert check_nondegeneracy(rho, gamma, n=1).ok

    @pytest.mark.parametrize("rho, n", [
        (("u", "x - u*t"), 1),
        (("x1", "t^2 + u^2"), 1),
        (("u", "x1 - u*t", "x2 - u^2*t"), 2),
        # d(u log u)/du = log(u) + 1 fails to evaluate where u <= 0, and
        # exp(exp(u^3)) overflows to an infinite entry where u > 1.87
        (("t + u*log(u)", "x*exp(exp(u^3))"), 1),
    ])
    def test_matches_one_svd_per_point(self, rho, n):
        rho_set = FirstIntegralSet(tuple(parse(r, n=n) for r in rho),
                                   "user-supplied")
        box = Box((-1.0, 1.0), ((-1.0, 1.0),) * n, (-3.0, 3.0))
        samples = box_samples(box, 400, seed=n)
        assert (check_nondegeneracy(rho_set, samples, n)
                == helpers.nondegeneracy_point_by_point(rho_set, samples, n))

    def test_reports_samples_with_an_infinite_entry(self):
        # 197 samples fail to evaluate (u <= 0) and 81 have an infinite
        # entry (u > 1.87); all are left out and reported, in sample order
        rho_set = FirstIntegralSet((parse("t + u*log(u)", n=1),
                                    parse("x*exp(exp(u^3))", n=1)),
                                   "user-supplied")
        box = Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0))
        samples = box_samples(box, 400, seed=1)
        excluded = check_nondegeneracy(rho_set, samples, 1).excluded
        assert len(excluded) == 278
        infinite = [p for p, reason in excluded if "non-finite" in reason]
        assert len(infinite) == 81
        assert min(u for _, _, u in infinite) > 1.87
        order = [samples.tolist().index(p) for p, _ in excluded]
        assert order == sorted(order)


class TestScreen:
    def test_leaves_out_domain_errors_and_non_finite_values_in_order(self):
        trees = [parse("log(u)", n=0), parse("exp(exp(u))", n=0)]
        names = ("t", "u")
        compiled = compile_exprs(trees, names)
        samples = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 10.0], [0.0, 2.0]])
        with pytest.raises(EvalDomainError) as err:
            compiled(0.0, -1.0)
        outputs = integrals._evaluated(
            compile_exprs(trees, names, arrays=True), samples)
        rows, kept, left_out = integrals._screened(trees, names, samples,
                                                   outputs, "thing")
        assert kept == [[0.0, 1.0], [0.0, 2.0]]
        assert rows.tolist() == [[v[k] for v, _ in outputs] for k in (0, 3)]
        assert left_out == [([0.0, -1.0], str(err.value)),
                            ([0.0, 10.0], "non-finite thing inf")]

    def test_scalar_form_compiled_only_when_a_row_is_left_out(
            self, monkeypatch):
        trees = [parse("log(u)", n=0)]
        names = ("t", "u")
        rows_form = compile_exprs(trees, names, arrays=True)
        compiled = []
        counted_form = integrals.compile_exprs

        def counted(exprs, names, **kw):
            compiled.append(kw.get("arrays", False))
            return counted_form(exprs, names, **kw)

        monkeypatch.setattr(integrals, "compile_exprs", counted)
        for samples, scalar in (([[0.0, 1.0], [0.0, 2.0]], 0),
                                ([[0.0, 1.0], [0.0, 0.0]], 1)):
            samples = np.array(samples)
            integrals._screened(trees, names, samples,
                                integrals._evaluated(rows_form, samples), "x")
            assert compiled.count(False) == scalar

    # u <= 0 breaks log(u): EvalDomainError; u > 1.87 gives an infinite
    # exp(exp(u^3)); u = 8 makes exp(exp(u)) - exp(exp(u)) a NaN
    HAND_MADE = [[0.0, 0.5, 1.0], [0.1, 0.2, -1.0], [0.2, -0.3, 2.5],
                 [0.3, 0.4, 8.0], [0.4, 0.0, 0.5], [-0.5, 0.9, 0.0]]

    @pytest.mark.parametrize("text", [
        "t + u*log(u)", "x*exp(exp(u^3))",
        "u + (exp(exp(u)) - exp(exp(u)))"])
    def test_hand_made_rows_keep_the_scalar_reasons(self, text):
        problem, _ = burgers()
        fld = characteristic_field(problem)
        rho = parse(text, n=1)
        report = verify_first_integral(fld, rho, self.HAND_MADE)
        assert report.excluded, "the samples must leave rows out"
        assert report == helpers.first_integral_point_by_point(
            fld, rho, self.HAND_MADE)
        rho_set = FirstIntegralSet((rho, Var("x1")), "user-supplied")
        got = check_nondegeneracy(rho_set, self.HAND_MADE, 1)
        assert got.excluded
        assert got == helpers.nondegeneracy_point_by_point(
            rho_set, self.HAND_MADE, 1)

    def test_reasons_name_the_domain_error_and_the_value(self):
        problem, _ = burgers()
        fld = characteristic_field(problem)
        report = verify_first_integral(
            fld, parse("u*log(u) + (exp(exp(u)) - exp(exp(u)))", n=1),
            [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 8.0]])
        assert report.excluded == [
            ([0.0, 0.0, -1.0], "log of non-positive value -1.0 in 'log(u)' "
                               "with {'t': 0.0, 'x1': 0.0, 'u': -1.0}"),
            ([0.0, 0.0, 8.0], "non-finite value nan")]


class TestDefiningFunction:
    def test_reciprocal_data(self):
        _, data = burgers()
        f = defining_function_from_initial(data)
        assert f == parse("y1 - 1/(y2 + 1)", allowed_variables=["y1", "y2"])

    def test_ramp_data(self):
        _, data = make_problem(1, "1", ["u"], "0", "-2*x",
                               Box((-0.5, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        f = defining_function_from_initial(data)
        F = substitute(f, {"y1": Var("u"), "y2": parse("x - u*t", n=1)})
        rng = np.random.default_rng(3)
        for _ in range(50):
            b = {"t": rng.uniform(-0.4, 0.4), "x1": rng.uniform(-1, 1),
                 "u": rng.uniform(-2, 2)}
            expect = (1 - 2 * b["t"]) * b["u"] + 2 * b["x1"]
            assert abs(evaluate(F, b) - expect) <= 1e-12

    def test_constant_data(self):
        _, data = make_problem(1, "1", ["u"], "0", "2",
                               Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        f = defining_function_from_initial(data)
        assert f == parse("y1 - 2", allowed_variables=["y1", "y2"])


    def test_lifted_data(self):
        # every x_k of h becomes y_{k+1}; this raised for n != 1
        _, data = helpers.lifted_burgers_problem()
        f = defining_function_from_initial(data)
        assert f == parse("y1 - 1/(y2 + y3 + 3)",
                          allowed_variables=["y1", "y2", "y3"])


class TestBuild:
    def test_ode_composition(self):
        problem, data = make_problem(0, "1", [], "u^2", "1",
                                     Box((-5.0, 2.0), (), (-10.0, 10.0)))
        fld = characteristic_field(problem)
        rho = FirstIntegralSet((parse("t + 1/u", n=0),), "user-supplied")
        f = parse("y1 - 1", allowed_variables=["y1"])
        gamma = initial_set_samples(data, 1)
        sol = build_implicit_solution(rho, f, gamma, fld, problem.box)
        assert sol.F == parse("t + 1/u - 1", n=0)

    def test_circular_composition(self):
        problem, data = circular()
        fld = characteristic_field(problem)
        rho = FirstIntegralSet((Var("x1"), parse("t^2 + u^2", n=1)),
                               "user-supplied")
        f = parse("y2 - 1 + y1^3", allowed_variables=["y1", "y2"])
        gamma = initial_set_samples(data, 17)
        sol = build_implicit_solution(rho, f, gamma, fld, problem.box)
        assert sol.F == parse("t^2 + u^2 - 1 + x^3", n=1)

    def test_f_must_vanish_on_gamma(self):
        problem, data = make_problem(
            1, "1", ["u"], "0", "1",
            Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        fld = characteristic_field(problem)
        rho = conservation_law_integrals(list(problem.a))
        f = parse("y1", allowed_variables=["y1", "y2"])  # F = u, 1 on gamma
        gamma = initial_set_samples(data, 9)
        with pytest.raises(ImplicitSolutionError, match="does not vanish"):
            build_implicit_solution(rho, f, gamma, fld, problem.box)

    def test_degenerate_fu_on_gamma_rejected(self):
        problem, data = make_problem(
            1, "1", ["u"], "0", "1",
            Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        fld = characteristic_field(problem)
        rho = conservation_law_integrals(list(problem.a))
        f = parse("(y1 - 1)^2", allowed_variables=["y1", "y2"])
        gamma = initial_set_samples(data, 9)
        with pytest.raises(ImplicitSolutionError, match="degenerates"):
            build_implicit_solution(rho, f, gamma, fld, problem.box)

    def test_non_finite_F_on_gamma_rejected(self):
        # exp(exp(y1)) - exp(exp(y1)) is inf - inf = nan near u = 8
        problem, data = make_problem(
            1, "1", ["u"], "0", "x + 8",
            Box((-1.0, 1.0), ((-1.0, 1.0),), (7.0, 9.0)))
        f = parse("y1 - (y2 + 8) + (exp(exp(y1)) - exp(exp(y1)))",
                  allowed_variables=["y1", "y2"])
        with pytest.raises(ImplicitSolutionError,
                           match="F fails to evaluate on the initial set: "
                                 "non-finite value nan"):
            implicit_solution_for_problem(problem, data, None, f)

    def test_flow_check_with_non_finite_residual_fails(self):
        # X F = exp(exp(u)) - exp(exp(u)) is inf - inf = nan on u in [7, 8]
        F = parse("u - x", n=1)
        fld = VectorField((Const(1.0), parse("exp(exp(u))", n=1),
                           parse("exp(exp(u))", n=1)))
        s = np.linspace(7.1, 7.9, 65)
        gamma = np.column_stack([np.zeros(65), s, s])
        gradient = tuple(diff(F, v) for v in var_names(1))
        with pytest.raises(ImplicitSolutionError,
                           match="flow residual evaluated at only 0 of 265"):
            integrals._check_flow_invariance(
                compile_exprs([F, gradient[-1]], var_names(1), arrays=True),
                F, gradient, fld, Box((-1.0, 1.0), ((7.0, 8.0),), (7.0, 8.0)),
                gamma)

    def test_flow_invariance_enforced(self):
        # rho = u - t is not a first integral of u_t + u u_x = 0
        problem, data = make_problem(
            1, "1", ["u"], "0", "1",
            Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        fld = characteristic_field(problem)
        rho = FirstIntegralSet((parse("u - t", n=1), Var("x1")),
                               "user-supplied")
        f = parse("y1 - 1", allowed_variables=["y1", "y2"])
        gamma = initial_set_samples(data, 9)
        with pytest.raises(ImplicitSolutionError, match="not flow-invariant"):
            build_implicit_solution(rho, f, gamma, fld, problem.box)

    def test_flow_check_needs_enough_surface_points(self):
        # the surface u = x / (1 + t) lies in the thin u-slab of the box
        # over about 1.5% of the (t, x) face, so most draws project outside
        problem, data = make_problem(
            1, "1", ["u"], "0", "x",
            Box((0.0, 1.0), ((-1.0, 1.0),), (-0.01, 0.01)),
            s_range=((-0.005, 0.005),))
        with pytest.raises(ImplicitSolutionError,
                           match=r"projected only \d+ of 200 surface points"):
            implicit_solution_for_problem(problem, data)

    def test_f_variable_universe_checked(self):
        problem, data = burgers()
        fld = characteristic_field(problem)
        rho = conservation_law_integrals(list(problem.a))
        f = parse("y1 - y3", allowed_variables=["y1", "y3"])
        gamma = initial_set_samples(data, 9)
        with pytest.raises(ImplicitSolutionError, match="y1..y2"):
            build_implicit_solution(rho, f, gamma, fld, problem.box)


class TestAssembly:
    def test_conservation_route(self):
        problem, data = burgers()
        rho_set, sol = implicit_solution_for_problem(problem, data)
        assert rho_set.provenance == "builtin-conservation"
        assert sol.F == parse("u - 1/(x - u*t + 1)", n=1)

    def test_fold_values_compiled_on_first_call(self, monkeypatch):
        problem, data = burgers()
        _, sol = implicit_solution_for_problem(problem, data)
        compiled = []
        compile_exprs = integrals.compile_exprs

        def counted(exprs, names, **kw):
            compiled.append(list(exprs))
            return compile_exprs(exprs, names, **kw)

        monkeypatch.setattr(integrals, "compile_exprs", counted)
        names = var_names(1)
        trees = [sol.F, *sol.gradient, *(diff(sol.F_u, v) for v in names)]
        for point in box_samples(BURGERS_BOX, 20, seed=5).tolist():
            binding = dict(zip(names, point))
            assert sol.fold_values(*point) == tuple(
                evaluate(e, binding) for e in trees)
        assert compiled == [trees]

    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    def test_sigma_forms_compiled_once_by_a_domain_run(self, name, solutions,
                                                       monkeypatch, tmp_path):
        # every compile of a domain run and of a singular run, the grid's
        # included: the problem check, one array form for the checks of
        # rho, (F, F_u) on arrays, the flow residual terms (the one scalar
        # form), and jacobian_rows once where sigma has seeds.  The surface
        # takes the solution's (F, F_u) form: no compile is asked for by
        # locus, directly or through evaluate_grid.  No form that only a
        # query uses, and a query compiles grad F once
        b, _, sol = solutions(name)
        jacobian = helpers.jacobian_trees(sol)
        fld = characteristic_field(b.problem)
        residual_terms = [integrals.apply_field(fld, sol.F),
                          *chain(*zip(fld.components, sol.gradient))]
        compiled, askers = [], []
        compile_exprs = expr.compile

        def counted(exprs, names, arrays=False):
            frame = sys._getframe(1)
            while frame.f_globals["__name__"] == expr.__name__:
                frame = frame.f_back
            askers.append(frame.f_globals["__name__"])
            compiled.append((list(exprs), arrays))
            return compile_exprs(exprs, names, arrays=arrays)

        for module, attr in ((expr, "compile"), (integrals, "compile_exprs")):
            monkeypatch.setattr(module, attr, counted)
        assert "compile" not in vars(locus)
        seeds = int(name != "ode_quadratic")
        for command in ("domain", "singular"):
            compiled.clear()
            assert main([command, "--problem", str(problem_path(name)),
                         "--resolution", "48",
                         "--out", str(tmp_path / command)]) == 0
            assert len(compiled) == 4 + seeds
            assert [trees for trees, arrays in compiled if not arrays] == [
                residual_terms]
            assert compiled.count((jacobian, True)) == seeds
            assert compiled.count(([sol.F, sol.F_u], True)) == 1
            assert locus.__name__ not in askers
        compiled.clear()
        x = [] if name == "ode_quadratic" else ["--x", "0.5"]
        assert main(["query", "--problem", str(problem_path(name)),
                     "--t", "0.1", *x]) == 0
        assert compiled.count((list(sol.gradient), False)) == 1
        assert compiled.count(([sol.F, *jacobian], False)) <= 1

    @pytest.mark.parametrize("form", ["F_and_Fu", "grad_values",
                                      "fold_values", "Fu_value",
                                      "jacobian_rows"])
    def test_first_call_installs_the_compiled_form(self, form, monkeypatch):
        problem, data = burgers()
        _, sol = implicit_solution_for_problem(problem, data)
        compiled = []
        compile_exprs = integrals.compile_exprs

        def counted(exprs, names, **kw):
            compiled.append(compile_exprs(exprs, names, **kw))
            return compiled[-1]

        monkeypatch.setattr(integrals, "compile_exprs", counted)
        stub = getattr(sol, form)
        copy = dataclasses.replace(sol)
        point = [0.3, 0.2, 1.0]
        if form == "jacobian_rows":
            point = [np.array([v]) for v in point]
        first = getattr(sol, form)(*point)
        assert getattr(sol, form) is compiled[0]
        # a copy made before the first call keeps the stub, which calls
        # what it compiled
        assert getattr(copy, form) is stub
        assert repr(getattr(copy, form)(*point)) == repr(first)
        assert repr(getattr(sol, form)(*point)) == repr(first)
        assert len(compiled) == 1

    def test_Fu_value_compiled_on_first_call(self, monkeypatch):
        # F_u alone: it fails to evaluate exactly where evaluate does
        problem, data = make_problem(
            1, "1", ["u"], "0", "sqrt(x + 1)",
            Box((-0.5, 1.0), ((-2.0, 1.0),), (0.05, 2.0)))
        _, sol = implicit_solution_for_problem(problem, data)
        compiled = []
        compile_exprs = integrals.compile_exprs

        def counted(exprs, names, **kw):
            compiled.append(list(exprs))
            return compile_exprs(exprs, names, **kw)

        monkeypatch.setattr(integrals, "compile_exprs", counted)
        names = var_names(1)
        failed = 0
        for point in box_samples(problem.box, 40, seed=5).tolist():
            try:
                expect = (evaluate(sol.F_u, dict(zip(names, point))),)
            except EvalDomainError:
                with pytest.raises(EvalDomainError):
                    sol.Fu_value(*point)
                failed += 1
            else:
                assert repr(sol.Fu_value(*point)) == repr(expect)
        assert 0 < failed < 40
        assert compiled == [[sol.F_u]]

    def test_non_conservation_needs_rho(self):
        problem, data = circular()
        with pytest.raises(FirstIntegralError, match="not a conservation law"):
            implicit_solution_for_problem(problem, data)

    def test_bad_user_rho_caught(self):
        problem, data = burgers()
        with pytest.raises(FirstIntegralError, match="not a first integral"):
            implicit_solution_for_problem(
                problem, data, rho=(Var("t"), Var("x1")),
                f=parse("y1", allowed_variables=["y1", "y2"]))


class TestGeneralDimension:
    def test_two_speed_conservation_integrals(self):
        problem, data = make_problem(
            2, "1", ["u", "u^2"], "0", "x1 + x2",
            Box((-1.0, 1.0), ((-1.0, 1.0), (-1.0, 1.0)), (-3.0, 3.0)),
            s_range=((-0.1, 0.1), (-0.1, 0.1)))
        fld = characteristic_field(problem)
        rho_set = conservation_law_integrals(list(problem.a))
        assert rho_set.rho == (Var("u"), parse("x1 - u*t", n=2),
                               parse("x2 - u^2*t", n=2))
        samples = box_samples(problem.box, 300, seed=9)
        for rho in rho_set.rho:
            report = verify_first_integral(fld, rho, samples, tol=1e-10)
            assert report.passed
        gamma = initial_set_samples(data, 3)
        assert check_nondegeneracy(rho_set, gamma, n=2).ok


    def test_lifted_law_builds_with_the_automatic_f(self):
        problem, data = helpers.lifted_burgers_problem()
        rho_set, sol = implicit_solution_for_problem(problem, data)
        assert rho_set.provenance == "builtin-conservation"
        assert sol.F == parse("u - 1/(x1 - u*t + (x2 - u*t) + 3)", n=2)


class TestFlowProjection:
    """integrals._newton_u_rows against the scalar integrals._newton_u on
    trees of + - * / sqrt, which both back ends round alike."""

    CUBIC = "u*u*u - t*u + x"
    SQRT = "t*sqrt(u) + u"
    TOL = integrals.FLOW_NEWTON_TOL
    MAX_STEP = integrals.FLOW_NEWTON_MAX_STEP

    def scalar_and_rows(self, text, rows, maxit, max_step=MAX_STEP):
        F = parse(text, n=1)
        names = var_names(1)
        trees = [F, diff(F, "u")]
        F_and_Fu = compile_exprs(trees, names)
        want = [integrals._newton_u(F, F_and_Fu, [t, x], u0, self.TOL, maxit,
                                    max_step) for t, x, u0 in rows]
        rows = np.array(rows, dtype=float)
        with np.errstate(all="raise"):  # it silences its own warnings
            got_u, got_ok = integrals._newton_u_rows(
                compile_exprs(trees, names, arrays=True), rows[:, :2],
                rows[:, 2], self.TOL, maxit, max_step)
        assert got_ok.tolist() == [ok for _, _, ok in want]
        assert np.array_equal(got_u, [u for u, _, _ in want], equal_nan=True)
        return want

    @pytest.mark.parametrize("text, row, maxit, max_step, exit_", [
        (CUBIC, (0.5, 0.3, 1.0), 40, MAX_STEP, "converged"),
        # with no step limit, only the F_u test stops the step r / 0
        (CUBIC, (0.0, 0.5, 0.0), 40, math.inf, "F_u zero"),
        (CUBIC, (0.0, 0.5, 1e200), 40, MAX_STEP, "F_u not finite"),
        (CUBIC, (1e-12, 1.0, 0.0), 40, MAX_STEP, "step too long"),
        # Newton on u^3 - 2u + 2 cycles 0, 1, 0, ...
        (CUBIC, (2.0, 2.0, 0.0), 40, MAX_STEP, "iterations spent"),
        (SQRT, (1.0, 0.0, -1.0), 40, MAX_STEP, "violation at the start"),
        (SQRT, (0.0, 0.0, 0.5), 40, MAX_STEP, "violation after a step"),
        (SQRT, (0.0, 0.0, 0.5), 1, MAX_STEP, "F alone at the last iteration"),
        (SQRT, (1.0, 0.0, 0.5), 1, MAX_STEP,
         "F fails too at the last iteration"),
    ])
    def test_each_exit_matches_the_scalar_newton(self, text, row, maxit,
                                                 max_step, exit_):
        ((u, fu, ok),) = self.scalar_and_rows(text, [row], maxit, max_step)
        u0 = row[2]
        if exit_ == "converged":
            assert ok and fu is not None
        elif exit_ == "F_u zero":
            assert not ok and fu == 0.0 and u == u0
        elif exit_ == "F_u not finite":
            assert not ok and math.isinf(fu) and u == u0
        elif exit_ == "step too long":
            assert not ok and fu != 0.0 and u == u0
        elif exit_ == "iterations spent":
            assert not ok and fu is not None and u == u0
        elif exit_ == "violation at the start":
            assert not ok and fu is None and u == u0
        elif exit_ == "violation after a step":
            # at t = 0 the step lands on u = 0, where F = 0 but F_u divides
            # by sqrt(0)
            assert not ok and fu is None and u == 0.0
        elif exit_ == "F alone at the last iteration":
            assert ok and fu is None and u == 0.0
        else:  # at t = 1 the step lands at u < 0
            assert not ok and fu is not None and u < 0.0

    @pytest.mark.parametrize("text", [CUBIC, SQRT])
    @pytest.mark.parametrize("maxit", [3, 5, 40])
    def test_random_rows_match_the_scalar_newton(self, text, maxit):
        rng = np.random.default_rng(17)
        rows = np.column_stack([rng.uniform(-2.0, 2.0, (300, 2)),
                                rng.uniform(-3.0, 3.0, 300)]).tolist()
        want = self.scalar_and_rows(text, rows, maxit)
        assert 0 < sum(ok for _, _, ok in want) < len(want)


@pytest.mark.parametrize("name", helpers.EXAMPLES)
def test_flow_check_matches_the_draw_by_draw_reference(name, solutions):
    b, _, sol = solutions(name)
    args = (sol.F, sol.gradient, characteristic_field(b.problem),
            b.problem.box, sol.gamma_samples)
    assert (integrals._check_flow_invariance(sol.F_and_Fu_rows, *args)
            == helpers.flow_check_by_draws(*args))


def checks_against_the_references(problem, rho_set, sol):
    """Assert that the reports of the checks of rho and F equal their
    scalar references, and the flow check the draw-by-draw reference on
    the array back end.  Returns whether it also equals the draw-by-draw
    scalar reference."""
    fld = characteristic_field(problem)
    gamma = sol.gamma_samples
    samples = integrals.verification_samples(problem.box, gamma)
    assert rho_set.reports == tuple(
        helpers.first_integral_point_by_point(fld, r, samples)
        for r in rho_set.rho)
    assert rho_set.nondegeneracy == helpers.nondegeneracy_point_by_point(
        rho_set, gamma, problem.n)
    checks = sol.checks
    assert ((checks.max_abs_F_on_gamma, checks.min_abs_F_u_on_gamma)
            == helpers.gamma_check_point_by_point(sol))
    flow = (checks.max_flow_residual, checks.flow_points_projected,
            checks.flow_draws, checks.flow_points_checked)
    args = (sol.F, sol.gradient, fld, problem.box, gamma)
    assert flow == helpers.flow_check_by_draws(
        *args, rows_form=sol.F_and_Fu_rows)
    return flow == helpers.flow_check_by_draws(*args)


# On u_t + (u^3/3) u_x = 0 with h = sin(x), draw 95 of the flow check
# (t = 0.54, x = 1.80, u = -1.73) takes another Newton path on the array
# back end, whose power and sin may differ from libm in the last bit: it
# leaves the box at u = 7.99, where the scalar Newton converges to
# u = 0.9988.  So that law's flow check ends at draw 235, the scalar
# reference at 233; the residual, the points projected and the points
# checked agree.
NEWTON_PATHS_DIFFER = {("u^3/3", "sin(x)")}


@pytest.mark.parametrize("name", helpers.EXAMPLES)
def test_checks_match_the_scalar_references(name, solutions):
    b, rho_set, sol = solutions(name)
    assert checks_against_the_references(b.problem, rho_set, sol)


@pytest.mark.parametrize("a, h", helpers.GENERATED_LAWS)
def test_checks_match_the_scalar_references_on_generated_laws(a, h):
    problem, data = helpers.generated_law_problem(a, h)
    rho_set, sol = implicit_solution_for_problem(problem, data)
    scalar_flow = checks_against_the_references(problem, rho_set, sol)
    assert scalar_flow == ((a, h) not in NEWTON_PATHS_DIFFER)

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from charmax.expr import (FUNCTIONS, Binary, Const, EvalDomainError,
                          ParseError, Unary, Var, diff, evaluate,
                          evaluate_grid, parse, substitute, to_str, var_names,
                          variables)
from charmax.expr import compile as compile_exprs


def ev(text, n=1, **binding):
    return evaluate(parse(text, n=n), binding)


class TestParse:
    def test_literal_zero(self):
        assert parse("0", n=0) == Const(0.0)

    def test_reciprocal_offset_formula(self):
        e = parse("t + 1/u - 1", n=0)
        assert e == Binary("-", Binary("+", Var("t"),
                                       Binary("/", Const(1.0), Var("u"))),
                           Const(1.0))
        assert evaluate(e, {"t": 0.0, "u": 1.0}) == 0.0

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("(t +", n=0)
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("t + v", n=1)

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("x2", n=1)
        with pytest.raises(ParseError, match="out of range"):
            parse("x1", n=0)

    def test_x_alias_only_for_n1(self):
        assert parse("x", n=1) == Var("x1")
        with pytest.raises(ParseError):
            parse("x", n=0)
        with pytest.raises(ParseError):
            parse("x", n=2)

    def test_function_requires_parens(self):
        with pytest.raises(ParseError, match="expected '\\('"):
            parse("sin + 1", n=0)

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("tan(t)", n=0)

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse("-t^2", n=0) == Unary("neg", Binary("^", Var("t"),
                                                         Const(2.0)))

    def test_negative_exponent(self):
        assert parse("t^-2", n=0) == Binary("^", Var("t"), Const(-2.0))

    def test_left_associativity(self):
        a, b, c = Var("t"), Var("u"), Var("x1")
        assert parse("t - u - x", n=1) == Binary("-", Binary("-", a, b), c)
        assert parse("t / u / x", n=1) == Binary("/", Binary("/", a, b), c)
        assert parse("t ^ u ^ x", n=1) == Binary("^", Binary("^", a, b), c)

    def test_custom_variable_universe(self):
        e = parse("y1 - 1/(y2 + 1)", allowed_variables=["y1", "y2"])
        assert variables(e) == {"y1", "y2"}


class TestEval:
    def test_implicit_surface_on_initial_points(self):
        e = parse("t^2 + u^2 - 1 + x^3", n=1)
        for x in np.linspace(-0.09, 0.09, 7):
            u = math.sqrt(1.0 - x ** 3)
            val = evaluate(e, {"t": 0.0, "x1": x, "u": u})
            assert abs(val) < 1e-15

    def test_division_by_zero_reported(self):
        with pytest.raises(EvalDomainError, match="division by zero"):
            ev("1/u", n=0, t=0.0, u=0.0)

    def test_burgers_minus_branch_root(self):
        e = parse("u - 1/(x - u*t + 1)", n=1)
        u = 2.0 - math.sqrt(2.0)
        assert abs(evaluate(e, {"t": 0.5, "x1": 1.0, "u": u})) <= 1e-12

    def test_domain_violations(self):
        with pytest.raises(EvalDomainError):
            ev("log(u)", n=0, t=0.0, u=0.0)
        with pytest.raises(EvalDomainError):
            ev("log(u)", n=0, t=0.0, u=-1.0)
        with pytest.raises(EvalDomainError):
            ev("sqrt(u)", n=0, t=0.0, u=-1.0)
        with pytest.raises(EvalDomainError):
            ev("u^-1", n=0, t=0.0, u=0.0)
        with pytest.raises(EvalDomainError):
            ev("u^0.5", n=0, t=0.0, u=-2.0)
        assert ev("u^3", n=0, t=0.0, u=-2.0) == -8.0

    @pytest.mark.parametrize("text", ["sin(u)", "cos(u)", "1 + sin(2*cos(u))"])
    @pytest.mark.parametrize("u", [math.inf, -math.inf])
    def test_sin_and_cos_of_infinity(self, text, u):
        with pytest.raises(EvalDomainError, match="of infinite value"):
            ev(text, n=0, t=0.0, u=u)
        with pytest.raises(EvalDomainError, match="of infinite value"):
            compile_exprs([parse(text, n=0)], ("t", "u"))(0.0, u)
        ((_, ok),) = evaluate_grid(parse(text, n=0), {
            "t": np.float64(0.0), "u": np.array([u, 0.0])})
        assert list(ok) == [False, True]
        assert math.isnan(ev("sin(u) + cos(u)", n=0, t=0.0, u=math.nan))

    def test_unbound_variable(self):
        with pytest.raises(EvalDomainError, match="unbound"):
            ev("t + u", n=0, t=1.0)

    def test_eval_is_pure(self):
        e = parse("sin(t)*exp(u) - t/(u + 2)", n=0)
        b = {"t": 0.7301, "u": -0.2}
        assert evaluate(e, b) == evaluate(e, b)

    def test_overflow_is_ieee(self):
        assert ev("exp(u)", n=0, t=0.0, u=1e4) == math.inf


class TestGridEval:
    def test_matches_scalar(self):
        e = parse("sin(t)*u + t^2/(u + 3)", n=0)
        ts = np.linspace(-2, 2, 11)
        us = np.linspace(-2, 2, 11)
        ((vals, ok),) = evaluate_grid(e, {"t": ts[:, None],
                                          "u": us[None, :]})
        assert vals.shape == ok.shape == (11, 11)
        assert ok.all()
        for i, t in enumerate(ts):
            for j, u in enumerate(us):
                assert vals[i, j] == evaluate(e, {"t": t, "u": u})

    def test_invalid_vertices_flagged(self):
        e = parse("t + 1/u", n=0)
        us = np.array([-1.0, 0.0, 1.0])
        ((vals, ok),) = evaluate_grid(e, {"t": np.float64(0.0), "u": us})
        assert list(ok) == [True, False, True]

    def test_violation_through_finite_result(self):
        # 1/(1/u) is finite at u = 0 in IEEE arithmetic but still flagged
        e = parse("1/(1/u)", n=0)
        ((vals, ok),) = evaluate_grid(e, {"u": np.array([0.0, 2.0])})
        assert not ok[0] and ok[1]


class TestDiff:
    def test_power_rule(self):
        assert diff(parse("t + 1/u", n=0), "u") == parse("-1/u^2", n=0)

    def test_burgers_fu(self):
        F = parse("u - 1/(x - u*t + 1)", n=1)
        Fu = diff(F, "u")
        expect = parse("1 - t/(x - u*t + 1)^2", n=1)
        rng = np.random.default_rng(5)
        for _ in range(100):
            b = {"t": rng.uniform(-1, 1), "x1": rng.uniform(-0.5, 2),
                 "u": rng.uniform(0.2, 2)}
            assert abs(evaluate(Fu, b) - evaluate(expect, b)) <= 1e-12

    def test_constant_folding(self):
        assert diff(parse("2*3 + t", n=0), "t") == Const(1.0)
        assert diff(parse("sin(1)", n=0), "t") == Const(0.0)

    def test_nonconstant_exponent_via_exp_log(self):
        e = parse("(t + 2)^u", n=0)
        d = diff(e, "u")
        b = {"t": 0.5, "u": 1.3}
        expect = (2.5 ** 1.3) * math.log(2.5)
        assert abs(evaluate(d, b) - expect) <= 1e-12

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(42)
        step = 1e-5
        for _ in range(100):
            e, v, point, samples, dval = helpers.fd_pair(rng, n=1, step=step)
            fd = helpers.central_difference(samples, step)
            assert abs(dval - fd) <= 1e-6 * (1.0 + abs(dval)), to_str(e)


class TestPrintRoundTrip:
    CASES = [
        "t + 1/u - 1",
        "-t^2",
        "t - (u - 1)",
        "(t + u)/(t - u)",
        "t/(u*t)",
        "2^-3 + t",
        "sin(cos(t))*sqrt(u + 3)",
        "-(t + u)",
        "(-t)^2",
        "t^(u + 1)",
        "t - -3",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_fixed_cases(self, text):
        e = parse(text, n=0)
        assert parse(to_str(e), n=0) == e

    @given(st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_generated(self, seed):
        rng = np.random.default_rng(seed)
        e = helpers.random_expr(rng, ["t", "x1", "u"], depth=5)
        assert parse(to_str(e), n=1) == e


class TestSubstitute:
    def test_compose(self):
        f = parse("y1 - 1/(y2 + 1)", allowed_variables=["y1", "y2"])
        F = substitute(f, {"y1": Var("u"),
                           "y2": parse("x - u*t", n=1)})
        assert F == parse("u - 1/(x - u*t + 1)", n=1)

    def test_untouched_variables_stay(self):
        e = parse("t + u", n=0)
        assert substitute(e, {"t": Const(2.0)}) == parse("2 + u", n=0)


class TestGeneratedProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_grid_eval_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        e = helpers.random_expr(rng, ["t", "u"], depth=4)
        ts = rng.uniform(-2, 2, size=5)
        us = rng.uniform(-2, 2, size=5)
        ((vals, ok),) = evaluate_grid(e, {"t": ts, "u": us})
        for i in range(5):
            b = {"t": float(ts[i]), "u": float(us[i])}
            try:
                expect = evaluate(e, b)
            except EvalDomainError:
                assert not ok[i]
                continue
            if np.isfinite(expect):
                assert ok[i]
                # scalar and vector paths may use different libm routines;
                # agreement is to rounding, not bitwise
                assert abs(vals[i] - expect) <= 1e-12 * (1.0 + abs(expect))

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_substitution_commutes_with_eval(self, seed):
        rng = np.random.default_rng(seed)
        e = helpers.random_expr(rng, ["t", "u"], depth=4)
        c = float(rng.uniform(-2, 2))
        b = {"t": float(rng.uniform(-2, 2))}
        composed = substitute(e, {"u": Const(c)})
        try:
            expect = evaluate(e, {**b, "u": c})
        except EvalDomainError:
            return
        try:
            got = evaluate(composed, b)
        except EvalDomainError:
            # constant folding may legally absorb a violation (e.g. 0 * log)
            return
        if np.isfinite(expect) and np.isfinite(got):
            assert abs(got - expect) <= 1e-9 * (1.0 + abs(expect))


# ---------------------------------------------------------------------------
# Compiled evaluation against the tree walk

POOL = ("t", "x1", "u")
# zeros of both signs, negative bases, exp overflow, sin(inf), nan
SPECIAL = (0.0, -0.0, -1.0, -2.5, 1.0, 2.0, 750.0, -750.0, 1e160, -1e160,
           math.inf, -math.inf, math.nan)
VALUES = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(-3.0, 3.0),
                   st.floats(allow_nan=True, allow_infinity=True))


def outcome(fn):
    """A call's value, or its exception's type and message."""
    try:
        return fn(), None
    except Exception as err:  # compared, not handled
        return None, (type(err), str(err))


def same_outcome(got, expect) -> bool:
    """Equal exceptions, or Python floats with equal bits (any NaN
    matching any NaN)."""
    (values, err), (expect_values, expect_err) = got, expect
    if err is not None or expect_err is not None:
        return err == expect_err
    return all(type(g) is float and (
        (math.isnan(g) and math.isnan(e))
        or struct.pack("<d", g) == struct.pack("<d", e))
        for g, e in zip(values, expect_values, strict=True))


def shared_outputs(seed, fn, exponent) -> list:
    """Outputs in which two random trees a and b recur, so their values
    are shared; the powers cover constant integral, constant non-integral
    and variable exponents."""
    rng = np.random.default_rng(seed)
    a = helpers.random_expr(rng, list(POOL), depth=3)
    b = helpers.random_expr(rng, list(POOL), depth=3)
    return [a, Unary(fn, a), Binary("*", Unary(fn, b), a),
            Binary("^", a, Const(float(round(exponent)))),
            Binary("^", b, Const(exponent)), Binary("^", a, b),
            Binary("^", Var("x1"), Const(exponent)),
            Binary("/", b, a), Const(math.inf), Var("u")]


class TestCompile:
    @given(seed=st.integers(0, 2**32 - 1), fn=st.sampled_from(FUNCTIONS),
           exponent=st.floats(-3.5, 3.5),
           values=st.lists(VALUES, min_size=3, max_size=3),
           wide=st.lists(st.booleans(), min_size=3, max_size=3))
    @settings(max_examples=400, deadline=None)
    def test_matches_evaluate_bit_for_bit(self, seed, fn, exponent, values,
                                          wide):
        exprs = shared_outputs(seed, fn, exponent)
        values = [np.float64(v) if w else v for v, w in zip(values, wide)]
        binding = dict(zip(POOL, values))

        def compiled(trees):
            return outcome(lambda: compile_exprs(trees, POOL)(*values))

        def by_tree(trees):
            return outcome(lambda: [evaluate(e, binding) for e in trees])

        # all outputs at once raise the first output's error; one at a
        # time, every output that evaluates is compared
        assert same_outcome(compiled(exprs), by_tree(exprs))
        for e in exprs:
            assert same_outcome(compiled([e]), by_tree([e]))

    def test_errors_and_ieee_values_match_evaluate(self):
        e = parse("1/u + sqrt(t) + log(t - u)", n=0)
        f = compile_exprs([e], ("t", "u"))
        for t, u in ((1.0, 0.0), (-1.0, 2.0), (1.0, 2.0), (np.float64(3.0),
                                                          np.float64(-0.0))):
            expect = outcome(lambda: [evaluate(e, {"t": t, "u": u})])
            assert expect[1] is not None
            assert same_outcome(outcome(lambda: f(t, u)), expect)
        exp_u = compile_exprs([parse("exp(u)", n=0)], ("t", "u"))
        assert exp_u(0.0, 1e4) == (math.inf,)
        sin_u = parse("sin(u)", n=0)
        expect = outcome(lambda: [evaluate(sin_u, {"t": 0.0, "u": math.inf})])
        assert expect[1][0] is EvalDomainError
        assert same_outcome(outcome(
            lambda: compile_exprs([sin_u], ("t", "u"))(0.0, math.inf)), expect)

    def test_shared_subtree_is_computed_once(self):
        # two parses give equal but distinct trees: sin(x1*u) is shared by
        # structure, and each output adds one operation to it
        first = parse("sin(x*u) + 1", n=1)
        second = parse("sin(x*u) * 2", n=1)
        f = compile_exprs([first, second], POOL)
        binding = {"t": 0.3, "x1": 0.7, "u": -1.1}
        assert f(0.3, 0.7, -1.1) == (evaluate(first, binding),
                                     evaluate(second, binding))
        # 3 arguments, 2 coerced variables, and 4 temporaries: x1*u,
        # sin(.), + 1 and * 2
        assert f.__code__.co_nlocals == 3 + 2 + 4

    def test_variable_outside_names_rejected(self):
        with pytest.raises(ValueError, match="not in"):
            compile_exprs([parse("t + u", n=0)], ("t",))


def same_arrays(got, expect) -> bool:
    """Equal shapes, dtypes and bytes."""
    got, expect = np.asarray(got), np.asarray(expect)
    return (got.shape == expect.shape and got.dtype == expect.dtype
            and got.tobytes() == expect.tobytes())


def grid_by_tree(e, binding, shape):
    """evaluate_grid over the tree-walking reference."""
    with np.errstate(all="ignore"):
        vals, bad = helpers.eval_arrays_by_tree(e, binding)
    vals = np.asarray(vals, dtype=float)
    ok = np.isfinite(vals) & ~bad
    return np.broadcast_to(vals, shape), np.broadcast_to(ok, shape)


class TestCompileArrays:
    @given(seed=st.integers(0, 2**32 - 1), fn=st.sampled_from(FUNCTIONS),
           exponent=st.floats(-3.5, 3.5),
           columns=st.lists(st.lists(VALUES, min_size=4, max_size=4),
                            min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_matches_tree_walk_bit_for_bit(self, seed, fn, exponent,
                                           columns):
        # the values hold zeros of both signs and negative bases
        exprs = shared_outputs(seed, fn, exponent)
        shapes = ((4, 1, 1), (1, 4, 1), (1, 1, 4))
        binding = {v: np.array(c).reshape(shape)
                   for v, c, shape in zip(POOL, columns, shapes)}
        form = compile_exprs(exprs, POOL, arrays=True)
        with np.errstate(all="ignore"):
            got = form(*binding.values())
            expect = [helpers.eval_arrays_by_tree(e, binding) for e in exprs]
        # bad may leave out the all-False masks of constant operands, so
        # it is compared through valid
        for (vals, bad), (want_vals, want_bad) in zip(got, expect,
                                                      strict=True):
            assert same_arrays(vals, want_vals)
            assert same_arrays(np.isfinite(vals) & ~bad,
                               np.isfinite(want_vals) & ~want_bad)
        # a tree on its own, and each output of the form of them all
        for e, pair in zip(exprs, evaluate_grid(form, binding), strict=True):
            want = grid_by_tree(e, binding, (4, 4, 4))
            (got,) = evaluate_grid(e, binding)
            assert all(map(same_arrays, got, want))
            assert all(map(same_arrays, pair, want))

    @pytest.mark.parametrize("fn", ["sin", "cos"])
    def test_infinite_argument_is_a_violation(self, fn):
        # the mask is set exactly where the scalar back end raises
        e = parse(f"{fn}(exp(u))", n=0)
        with np.errstate(all="ignore"):
            ((vals, bad),) = compile_exprs([e], ("t", "u"), arrays=True)(
                np.zeros(2), np.array([1.0, 800.0]))
        assert vals[0] == evaluate(e, {"t": 0.0, "u": 1.0})
        with pytest.raises(EvalDomainError, match="infinite"):
            evaluate(e, {"t": 0.0, "u": 800.0})
        assert math.isnan(vals[1])
        assert bad.tolist() == [False, True]

    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    def test_bundled_grids_release_temporaries(self, name, solutions):
        # the same values as the tree walk, and no more memory: holding
        # every temporary to the end would double the peak
        b, _, sol = solutions(name)
        axes = [np.linspace(lo, hi, 65) for lo, hi in b.problem.box.ranges]
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        binding = dict(zip(var_names(b.problem.n), grids))
        shape = (65,) * len(axes)

        def peak(fn):
            tracemalloc.start()
            try:
                return fn(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # each tree alone, and the pair form against the walk of both
        for form, trees in ((sol.F, [sol.F]), (sol.F_u, [sol.F_u]),
                            (sol.F_and_Fu_rows, [sol.F, sol.F_u])):
            got, got_peak = peak(lambda: evaluate_grid(form, binding))
            expect, expect_peak = peak(lambda: [
                grid_by_tree(e, binding, shape) for e in trees])
            for pair, want in zip(got, expect, strict=True):
                assert all(map(same_arrays, pair, want))
            assert got_peak <= expect_peak + 0.25 * 2**20

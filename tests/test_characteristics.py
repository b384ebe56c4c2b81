import math

import numpy as np
import pytest

import helpers
from charmax import characteristics
from charmax.characteristics import (TERM_LEFT_BOX, TERM_SPAN_END,
                                     TERM_STEP_FAILURE, IntegrationError,
                                     characteristic_strip,
                                     integrate_characteristic)
from charmax.expr import evaluate, parse
from charmax.problem import (Box, VectorField, characteristic_field,
                             initial_set_samples, make_problem)

BIG = Box((-100.0, 100.0), (), (-100.0, 100.0))


def field(n, *components):
    return VectorField(tuple(parse(c, n=n) for c in components))


class TestIntegrator:
    def test_exponential_accuracy(self):
        fld = field(0, "1", "u")  # u' = u along t
        curve = integrate_characteristic(fld, [0.0, 1.0], (0.0, 1.0),
                                         tol=1e-10, box=BIG)
        assert curve.termination == TERM_SPAN_END
        assert abs(curve.end[0] - 1.0) <= 1e-12
        assert abs(curve.end[1] - math.e) <= 1e-8

    def test_first_state_is_seed(self):
        fld = field(0, "1", "u")
        curve = integrate_characteristic(fld, [0.25, 2.0], (0.0, 0.5), box=BIG)
        assert curve.states[0].tolist() == [0.25, 2.0]

    def test_reversibility(self):
        fld = field(0, "1", "u^2")
        fwd = integrate_characteristic(fld, [0.0, 1.0], (0.0, 0.9),
                                       tol=1e-10, box=BIG)
        back = integrate_characteristic(fld, fwd.end, (0.0, -0.9),
                                        tol=1e-10, box=BIG)
        assert np.linalg.norm(back.end - np.array([0.0, 1.0])) <= 1e-7

    def test_box_exit_interpolation(self):
        # u' = u^2 from u(0) = 1 blows up as 1/(1-t); exits u = 10 at t = 0.9
        fld = field(0, "1", "u^2")
        box = Box((-5.0, 2.0), (), (-10.0, 10.0))
        curve = integrate_characteristic(fld, [0.0, 1.0], (0.0, 1.5),
                                         tol=1e-10, box=box)
        assert curve.termination == TERM_LEFT_BOX
        assert abs(curve.end[1] - 10.0) <= 1e-9
        assert abs(curve.end[0] - 0.9) <= 1e-7
        lo, hi = box.lows(), box.highs()
        assert np.all(curve.states >= lo - 1e-12)
        assert np.all(curve.states <= hi + 1e-12)

    def test_seed_outside_box_rejected(self):
        fld = field(0, "1", "u")
        with pytest.raises(IntegrationError):
            integrate_characteristic(fld, [0.0, 200.0], (0.0, 1.0), box=BIG)

    def test_tol_range_enforced(self):
        fld = field(0, "1", "u")
        with pytest.raises(ValueError):
            integrate_characteristic(fld, [0.0, 1.0], (0.0, 1.0), tol=1e-2,
                                     box=BIG)

    def test_non_finite_span_rejected(self):
        # a NaN end once gave NaN values of tau
        fld = field(0, "1", "u")
        with pytest.raises(ValueError, match=r"span \(nan, 1\.0\) is not "
                                             "finite"):
            integrate_characteristic(fld, [0.0, 1.0], (math.nan, 1.0),
                                     box=BIG)


class TestExampleFields:
    def test_burgers_straight_lines(self):
        problem, data = make_problem(
            1, "1", ["u"], "0", "1/(x+1)",
            Box((-0.25, 2.5), ((-0.6, 2.0),), (0.05, 3.05)))
        fld = characteristic_field(problem)
        s = 0.0
        u0 = 1.0 / (s + 1.0)
        curve = integrate_characteristic(fld, [0.0, s, u0], (0.0, 2.0),
                                         tol=1e-10, box=problem.box)
        for tau, state in zip(curve.taus, curve.states):
            t, x, u = state
            assert abs(t - tau) <= 1e-9
            assert abs(u - u0) <= 1e-9
            assert abs(x - (s + u0 * t)) <= 1e-8

    def test_u_constant_when_b_zero(self):
        fld = field(1, "1", "u", "0")
        box = Box((-1.0, 10.0), ((-50.0, 50.0),), (-5.0, 5.0))
        curve = integrate_characteristic(fld, [0.0, 0.0, 2.0], (0.0, 5.0),
                                         tol=1e-10, box=box)
        assert np.abs(curve.states[:, 2] - 2.0).max() <= 1e-10

    def test_circular_curves_conserve_radius(self):
        fld = field(1, "u", "0", "-t")
        box = Box((-2.0, 2.0), ((-2.0, 2.0),), (-2.0, 2.0))
        seed = [0.0, 0.3, 1.0]
        curve = integrate_characteristic(fld, seed, (0.0, 4.0),
                                         tol=1e-10, box=box)
        r2 = curve.states[:, 0] ** 2 + curve.states[:, 2] ** 2
        assert np.abs(r2 - 1.0).max() <= 1e-9
        assert np.abs(curve.states[:, 1] - 0.3).max() <= 1e-12

    def test_first_integrals_constant_along_curves(self):
        problem, data = make_problem(
            1, "1", ["u"], "0", "1/(x+1)",
            Box((-0.25, 2.5), ((-0.6, 2.0),), (0.05, 3.05)))
        fld = characteristic_field(problem)
        rho = parse("x - u*t", n=1)
        for seed in initial_set_samples(data, 7):
            curve = integrate_characteristic(fld, seed, (0.0, 2.0),
                                             tol=1e-10, box=problem.box)
            r0 = evaluate(rho, helpers.binding_at(seed, 1))
            drift = max(abs(evaluate(rho, helpers.binding_at(s, 1)) - r0)
                        for s in curve.states)
            assert drift <= 1e-8 * (1.0 + abs(r0))


class TestStrip:
    def test_three_seeds_three_lines(self):
        problem, data = make_problem(
            1, "1", ["u"], "0", "1/(x+1)",
            Box((-0.25, 2.5), ((-0.6, 2.0),), (0.05, 3.05)))
        fld = characteristic_field(problem)
        seeds = initial_set_samples(data, 3)
        strip = characteristic_strip(fld, seeds, (0.0, 1.0), box=problem.box)
        assert len(strip.curves) == 3 and not strip.errors
        for seed, curve in zip(seeds, strip.curves):
            assert curve.states[0].tolist() == seed.tolist()
            slope = 1.0 / (seed[1] + 1.0)
            t, x = curve.end[0], curve.end[1]
            assert abs(x - (seed[1] + slope * t)) <= 1e-8

    def test_empty_seed_list(self):
        fld = field(0, "1", "u")
        strip = characteristic_strip(fld, [], (0.0, 1.0), box=BIG)
        assert strip.curves == [] and strip.errors == []

    def test_linear_ramp_lines(self):
        # h(s) = -2s: x(t) = s - 2 s t
        problem, data = make_problem(
            1, "1", ["u"], "0", "-2*x",
            Box((-0.5, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        fld = characteristic_field(problem)
        seeds = initial_set_samples(data, 5)
        strip = characteristic_strip(fld, seeds, (0.0, 0.4), box=problem.box)
        for seed, curve in zip(seeds, strip.curves):
            s = seed[1]
            for state in curve.states:
                assert abs(state[1] - (s - 2.0 * s * state[0])) <= 1e-9

    def test_errors_collected_not_raised(self):
        fld = field(0, "1", "u")
        seeds = [[0.0, 1.0], [0.0, 500.0]]  # second seed outside the box
        strip = characteristic_strip(fld, seeds, (0.0, 1.0), box=BIG)
        assert strip.curves[0] is not None
        assert strip.curves[1] is None
        assert len(strip.errors) == 1 and strip.errors[0][0] == 1


class TestCompiledField:
    def test_curves_match_tree_walk(self, monkeypatch):
        # the bundled problems as the CLI seeds them, and u' = sqrt(1 - t),
        # which fails mid-run at t = 1 (a step failure) and at a seed past it
        cases = []
        for name in helpers.EXAMPLES:
            b = helpers.bundle(name)
            seeds = initial_set_samples(b.data, 1 if b.problem.n == 0 else 3)
            cases.append((characteristic_field(b.problem), seeds,
                          b.problem.box))
        cases.append((field(0, "1", "sqrt(1 - t)"), [[0.0, 0.0], [2.0, 0.0]],
                      BIG))

        def run():
            strips = [characteristic_strip(fld, seeds, (0.0, 10.0), box=box)
                      for fld, seeds, box in cases]
            return strips, repr([(
                [(c.taus.tolist(), c.states.tolist(), c.termination)
                 for c in strip.curves if c is not None],
                [(i, str(err)) for i, err in strip.errors])
                for strip in strips])

        strips, compiled = run()
        monkeypatch.setattr(characteristics, "compile_exprs",
                            helpers.compile_by_tree)
        assert run()[1] == compiled
        failing = strips[-1]
        assert failing.curves[0].termination == TERM_STEP_FAILURE
        assert [i for i, _ in failing.errors] == [1]


class TestCsv:
    def test_header_matches_dimension(self):
        fld = field(1, "1", "u", "0")
        box = Box((-1.0, 10.0), ((-50.0, 50.0),), (-5.0, 5.0))
        curve = integrate_characteristic(fld, [0.0, 0.0, 2.0], (0.0, 1.0),
                                         box=box)
        text = curve.to_csv()
        assert text.splitlines()[0] == "tau,t,x1,u"
        assert len(text.splitlines()) == len(curve.taus) + 1

"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS line on success (failures surface as ordinary
assertion errors).  Timed criteria build their own pipelines so that the
measured runtime covers the full computation.
"""

import math
import time

import numpy as np

import helpers
from charmax.conslaw import ConservationLaw, blowup_time, envelope, \
    propagation_speed, singular_time
from charmax.domain import contains, maximal_domain
from charmax.expr import evaluate, parse, to_str, var_names
from charmax.integrals import (conservation_law_integrals,
                               implicit_solution_for_problem,
                               verify_first_integral)
from charmax.characteristics import integrate_characteristic
from charmax.locus import extract_singular_locus, extract_surface, \
    split_component
from charmax.problem import (Box, characteristic_field,
                             initial_set_samples, make_problem)

PASS = "ACCEPTANCE {num} ({name}): PASS ({detail})"


def report(num, name, detail=""):
    print(PASS.format(num=num, name=name, detail=detail))


def test_criterion_1_ode_example():
    t0 = time.perf_counter()
    problem, data = make_problem(0, "1", [], "u^2", "1",
                                 Box((-5.0, 2.0), (), (-10.0, 10.0)))
    rho = (parse("t + 1/u", n=0),)
    f = parse("y1 - 1", allowed_variables=["y1"])
    _, sol = implicit_solution_for_problem(problem, data, rho, f)

    surface = extract_surface(sol.F, problem.box, 1024)
    sigma = extract_singular_locus(sol, surface)
    component = split_component(surface, sigma, sol.gamma_samples)
    dom = maximal_domain(sol, component, sigma)
    cell = 7.0 / 1024.0

    # boundary of the maximal extension, located by the continuation query
    t_boundary = helpers.verdict_transition(
        problem, data, sol, lambda t: [t], 0.5, 1.5)
    assert abs(t_boundary - 1.0) <= cell, t_boundary

    v = contains(problem, data, sol, [0.9])
    assert v.kind == "inside" and abs(v.u - 10.0) <= 1e-8
    assert contains(problem, data, sol, [1.1]).kind == "outside"

    # grid mask never extends past the singular time
    masked_edges = dom.axes[0][1:][dom.mask]
    assert masked_edges.max() <= 1.0 + cell

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s"
    report(1, "ode example", f"boundary at t={t_boundary:.6f}, "
                             f"{elapsed:.2f}s")


def test_criterion_2_circular_example():
    t0 = time.perf_counter()
    b, _, sol = helpers.solution("circular")
    problem, data = b.problem, b.data

    # F assembled from the stored integrals is literally t^2+u^2-1+x^3
    expect = parse("t^2 + u^2 - 1 + x^3", n=1)
    assert sol.F == expect
    rng = np.random.default_rng(2)
    for _ in range(50):
        bind = {"t": rng.uniform(-1, 1), "x1": rng.uniform(-1, 1),
                "u": rng.uniform(-0.5, 2)}
        assert evaluate(sol.F, bind) == evaluate(expect, bind)

    surface = extract_surface(sol.F, problem.box, 128)
    sigma = extract_singular_locus(sol, surface)
    component = split_component(surface, sigma, sol.gamma_samples)
    maximal_domain(sol, component, sigma)

    diag = math.hypot(2.8 / 128, 2.8 / 128)
    (tlo, thi), ((xlo, xhi),) = problem.box.t, problem.box.x
    checked = 0
    u_err = 0.0
    for t in np.linspace(tlo, thi, 64):
        for x in np.linspace(xlo, xhi, 64):
            g = 1.0 - t * t - x ** 3
            grad = math.hypot(2 * t, 3 * x * x)
            if abs(g) <= diag * max(grad, 1e-9) + 1e-12:
                continue  # within one cell of the boundary
            v = contains(problem, data, sol, [t, x])
            assert v.kind != "boundary" or abs(g) < 2 * diag * grad
            expect_kind = "inside" if g > 0 else "outside"
            assert v.kind == expect_kind, (t, x, v.kind, g)
            if v.kind == "inside":
                u_err = max(u_err, abs(v.u - math.sqrt(g)))
            checked += 1
    assert checked > 3000
    assert u_err <= 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    report(2, "circular transport", f"{checked} grid verdicts, "
                                    f"max u err {u_err:.2e}, {elapsed:.1f}s")


def test_criterion_3_linear_ramp(pipelines):
    law = ConservationLaw.from_parts(parse("u", n=1), parse("-2*x", n=1))
    T = blowup_time(law, (-0.1, 0.1))
    assert abs(T - 0.5) <= 1e-12

    b, sol, surface, sigma, component, dom = pipelines("burgers_ramp", 128)
    assert len(sigma.points) > 5
    assert np.abs(sigma.points[:, 0] - 0.5).max() <= 1e-8
    assert np.abs(sigma.points[:, 1]).max() <= 1e-8

    dt = dom.axes[0][1] - dom.axes[0][0]
    top = dom.axes[0][1:][dom.mask.any(axis=1)].max()
    assert abs(top - 0.5) <= dt

    t_boundary = helpers.verdict_transition(
        b.problem, b.data, sol, lambda t: [t, 0.0], 0.2, 0.8)
    assert abs(t_boundary - 0.5) <= dt
    report(3, "linear ramp", f"blowup {T!r}, mask top {top:.4f}, "
                             f"query boundary {t_boundary:.6f}")


def test_criterion_4_reciprocal_burgers():
    t0 = time.perf_counter()
    b, _, sol = helpers.solution("burgers_reciprocal")
    law = ConservationLaw.from_parts(parse("u", n=1), parse("1/(x+1)", n=1))

    env = envelope(law, (-0.1, 0.1), 101)
    assert len(env) == 101
    assert np.abs(env.t - (env.x + 1.0) ** 2 / 4.0).max() <= 1e-8

    for s in (0.0, 0.5, 1.0):
        tstar = singular_time(law, s)
        xstar = s + law.g_at(s) * tstar
        assert abs(tstar - (s + 1.0) ** 2) <= 1e-10
        assert abs(xstar - (2.0 * (s + 1.0) - 1.0)) <= 1e-10
        speed = propagation_speed(law, s)
        assert abs(speed - 1.0 / math.sqrt(tstar)) <= 1e-8

    v = contains(b.problem, b.data, sol, [0.5, 1.0])
    assert v.kind == "inside"
    assert abs(v.u - (2.0 - math.sqrt(2.0))) <= 1e-8
    assert contains(b.problem, b.data, sol, [2.0, 1.0]).kind == "outside"

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s"
    report(4, "reciprocal data", f"envelope+tangency+queries, {elapsed:.1f}s")


def test_criterion_5_first_integral_properties(pipelines):
    # built-in conservation integrals: |X rho| <= 1e-10 at 1000 random points
    box = Box((-2.0, 2.0), ((-2.0, 2.0),), (-2.0, 2.0))
    rng = np.random.default_rng(55)
    lo, hi = box.lows(), box.highs()
    samples = lo + rng.random((1000, 3)) * (hi - lo)
    worst = 0.0
    for speed_text in ("u", "u^2", "1", "sin(u)"):
        problem, _ = make_problem(1, "1", [speed_text], "0", "0", box,
                                  s_range=((-0.1, 0.1),))
        fld = characteristic_field(problem)
        rho_set = conservation_law_integrals(list(problem.a))
        for rho in rho_set.rho:
            report_ = verify_first_integral(fld, rho, samples, tol=1e-10)
            assert report_.passed
            assert report_.max_residual <= 1e-10
            worst = max(worst, report_.max_residual)

    # F stays on the zero set along 100 integrated characteristics per example
    spans = {"ode_quadratic": 3.0, "circular": 1.5,
             "burgers_ramp": 2.0, "burgers_reciprocal": 3.0}
    drift_worst = 0.0
    for name in helpers.EXAMPLES:
        b, _, sol = helpers.solution(name)
        problem = b.problem
        fld = characteristic_field(problem)
        names = var_names(problem.n)
        if problem.n == 0:
            seeds = [[t0_, 1.0 / (1.0 - t0_)]
                     for t0_ in np.linspace(-4.0, 0.85, 100)]
        else:
            seeds = initial_set_samples(b.data, 100)
        for seed in seeds:
            curve = integrate_characteristic(fld, seed, (0.0, spans[name]),
                                             tol=1e-10, box=problem.box)
            fmax = max(abs(evaluate(sol.F, helpers.binding_at(s, problem.n)))
                       for s in curve.states)
            assert fmax <= 1e-7, (name, seed, fmax)
            drift_worst = max(drift_worst, fmax)
    report(5, "first integrals", f"max |X rho| {worst:.1e}, "
                                 f"max |F| drift {drift_worst:.1e}")


def test_criterion_6_oracle_agreement(pipelines):
    # closed-form envelope vs grid-extracted singular locus projection
    for name, h_text in (("burgers_reciprocal", "1/(x+1)"),
                         ("burgers_ramp", "-2*x")):
        b, sol, surface, sigma, _, _ = pipelines(name, 128)
        law = ConservationLaw.from_parts(parse("u", n=1), parse(h_text, n=1))
        env = envelope(law, b.data.interval, 41)
        assert len(env) > 0
        # each envelope point within one cell diagonal of a projected
        # sigma point
        projected = sigma.points[:, :2]
        for t, x in zip(env.t, env.x):
            d = np.linalg.norm(projected - [t, x], axis=1).min()
            assert d <= surface.cell_diagonal, (name, t, x, d)

    # t* = -1/g' against the brute-force nearby-line intersection limit
    law = ConservationLaw.from_parts(parse("u", n=1), parse("1/(x+1)", n=1))
    from test_conslaw import intersection_oracle
    worst = 0.0
    for s in np.linspace(-0.1, 1.0, 100):
        t_formula = singular_time(law, float(s))
        t_oracle = intersection_oracle(law, float(s))
        err = abs(t_formula - t_oracle) / (1.0 + abs(t_formula))
        worst = max(worst, err)
        assert err <= 1e-6
    report(6, "oracle agreement", f"worst t* relative err {worst:.1e}")


def test_criterion_7_calculus_properties():
    rng = np.random.default_rng(7001)
    step = 1e-5
    worst = 0.0
    for _ in range(1000):
        e, v, point, samples, dval = helpers.fd_pair(rng, n=1, step=step)
        fd = helpers.central_difference(samples, step)
        err = abs(dval - fd) / (1.0 + abs(dval))
        worst = max(worst, err)
        assert err <= 1e-6, to_str(e)

    rng = np.random.default_rng(7002)
    for _ in range(1000):
        e = helpers.random_expr(rng, ["t", "x1", "u"], depth=5)
        assert parse(to_str(e), n=1) == e
    report(7, "calculus properties", f"worst FD relative err {worst:.1e}")


def test_criterion_8_path_independence(pipelines):
    rng = np.random.default_rng(88)
    for name in ("circular", "burgers_ramp", "burgers_reciprocal"):
        b, _, sol = helpers.solution(name)
        _, _, _, _, _, dom = pipelines(name, 48)
        (tlo, thi), ((xlo, xhi),) = b.problem.box.t, b.problem.box.x
        count = 0
        worst = 0.0
        while count < 100:
            q = [rng.uniform(tlo, thi), rng.uniform(xlo, xhi)]
            if name == "burgers_reciprocal":
                if q[0] > 0.85 * (q[1] + 1.0) ** 2 / 4.0:
                    continue
            elif helpers.true_inside(name, q) < 0.05:
                continue
            us = []
            for s in (-0.1, 0.0, 0.1):
                v = contains(b.problem, b.data, sol, q, domain=dom,
                             base_point=s)
                assert v.kind == "inside", (name, q, s, v.kind)
                us.append(v.u)
            worst = max(worst, max(us) - min(us))
            assert max(us) - min(us) <= 1e-8, (name, q, us)
            count += 1

    # n = 0 has a single initial point: three repeated queries must agree
    b, _, sol = helpers.solution("ode_quadratic")
    us = {contains(b.problem, b.data, sol, [0.7]).u for _ in range(3)}
    assert len(us) == 1
    report(8, "path independence", "u agreement <= 1e-8 across 3 bases")

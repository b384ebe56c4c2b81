"""Tests of the benchmark itself: metric names, seeded inputs, and checks
that reject a deliberately wrong answer."""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _printed_metrics(line: str) -> dict:
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return {name: m["unit"] for name, m in doc["metrics"].items()}


# ---------------------------------------------------------------------------
# metric names

def _fake_bench():
    b = SimpleNamespace(
        samples={("setup", None): [0.4, 0.5, 0.6],
                 ("latency", None): list(np.linspace(0.1, 9.0, 1600))},
        attempted=1700, failed=0, pole_vertices={"burgers_reciprocal": 3},
        off_domain={p: 0 for p in checks.PROBLEMS},
        problems={p: SimpleNamespace(points=[0] * 4) for p in checks.PROBLEMS},
        slowdown=lambda: 1.0)
    for p in checks.PROBLEMS:
        for op in ("domain", "query", "singular", "characteristics", "verify"):
            b.samples[(op, p)] = [1.0, 1.2]
    return b


class _FakeTracer:
    """One span of every name, in every operation, for every problem."""

    COUNTS = {"crossing_cells": 5, "excluded_cells": 1, "seed_cells": 4,
              "points": 2, "dropped": 1, "degenerate": 0,
              "polyline_points": 7, "cells": 3, "mask_cells": 2,
              "boundary_points": 6, "verdict": "inside", "steps": 9,
              "span_end": 1, "left_box": 2, "step_failure": 0, "errors": 0,
              "surface_vertices": 12}

    def spans_named(self, name, problem=None):
        ops = ("domain", "query", "singular", "characteristics", "verify")
        return [(k, name, 0.0, 0.25, 0, problem, op, 0.1, self.COUNTS, k)
                for k, op in enumerate(ops, start=1)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_names_match_benchmark_json(workload):
    b = _fake_bench()
    line = run.result_line(True, b, run.end_to_end(b, b.samples, workload),
                           run.END_TO_END)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _printed_metrics(line) == want


def test_end_to_end_times_are_divided_by_the_host_slowdown():
    b = _fake_bench()
    before = run.end_to_end(b, b.samples, "domain")
    b.slowdown = lambda: 1.25
    after = run.end_to_end(b, b.samples, "domain")
    assert after["pass_s"] == pytest.approx(before["pass_s"] / 1.25)
    assert after["setup_s"] == before["setup_s"]    # probes scale their own


def test_per_layer_names_match_benchmark_json():
    b = _fake_bench()
    values = run.per_layer(
        b, _FakeTracer(), {p: [1.0] for p in checks.PROBLEMS},
        {(layer, "circular"): 0.5 for layer in run.LAYERS},
        {p: 1.5 for p in checks.PROBLEMS})
    line = run.result_line(True, b, values, run.PER_LAYER)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert _printed_metrics(line) == want
    assert len(want) <= 128


def test_benchmark_json_contract_fields():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


# ---------------------------------------------------------------------------
# seeded inputs

@pytest.mark.parametrize("face", [((-5.0, 2.0),),
                                  ((-1.4, 1.4), (-1.4, 1.4))])
def test_same_seed_same_query_points(face):
    a = bench.query_points(face, 7, 2)
    assert np.array_equal(a, bench.query_points(face, 7, 2))
    assert not np.array_equal(a, bench.query_points(face, 8, 2))
    assert not np.array_equal(a, bench.query_points(face, 7, 3))
    assert a.shape == (bench.QUERIES_PER_PROBLEM, len(face))
    lows = np.array([lo for lo, _ in face])
    highs = np.array([hi for _, hi in face])
    assert np.all((a >= lows) & (a <= highs))
    # one point per cell of the partition
    side = len(a) if len(face) == 1 else 20
    cells = np.floor((a - lows) / (highs - lows) * side).astype(int)
    assert len({tuple(c) for c in cells}) == len(a)


# ---------------------------------------------------------------------------
# every check rejects a wrong answer

def test_verdict_check_rejects_flipped_verdict_and_perturbed_u():
    name, q = "burgers_reciprocal", [0.5, 1.0]
    start = checks.query_start(q, (-0.1, 0.1))
    u = checks.true_u(name, q)
    assert checks.check_verdict(name, start, q, "inside", u) == []
    assert checks.check_verdict(name, start, q, "outside", None)
    assert checks.check_verdict(name, start, q, "inside", u + 1e-6)
    far = [2.4, -0.5]
    start = checks.query_start(far, (-0.1, 0.1))
    assert checks.check_verdict(name, start, far, "outside", None) == []
    assert checks.check_verdict(name, start, far, "inside", 1.0)


def test_verdict_check_uses_closed_form_membership_across_the_fold():
    # inside the domain, but the straight path from (0, 0.1) meets the fold
    name, q = "burgers_reciprocal", [2.2, 2.0]
    start = checks.query_start(q, (-0.1, 0.1))
    u = checks.true_u(name, q)
    assert checks.fold_margin(name, q) > 0
    assert checks.check_verdict(name, start, q, "inside", u) == []
    assert checks.check_verdict(name, start, q, "inside", u + 1e-6)
    assert not checks.off_domain(name, start, q, "inside")
    # the path-following "outside" is let through, but counted
    assert checks.check_verdict(name, start, q, "outside", None) == []
    assert checks.off_domain(name, start, q, "outside")


def test_verdict_check_rejects_outside_for_inside_point_on_a_clear_path():
    name, q = "burgers_reciprocal", [0.5, 1.0]
    start = checks.query_start(q, (-0.1, 0.1))
    assert not checks.off_domain(name, start, q, "outside")
    assert checks.check_verdict(name, start, q, "boundary", None)


def _closed_form_domain(name, box, res):
    """domain.json / summary.json whose mask is the closed form itself."""
    ranges = [box["t"]] + [tuple(r) for r in box["x"]]
    steps = [(hi - lo) / res for lo, hi in ranges]
    shape = (res,) * len(ranges)
    mask = np.zeros(shape, dtype=bool)
    for idx in np.ndindex(*shape):
        q = [lo + (i + 0.5) * h for (lo, _), i, h in zip(ranges, idx, steps)]
        if checks.fold_margin(name, q) > 0:
            u = checks.true_u(name, q)
            mask[idx] = box["u"][0] < u < box["u"][1]
    return mask, steps


def _domain_texts(mask, steps, res):
    flat = mask.reshape(mask.shape[0], -1)
    rows = []
    for row in flat:
        runs, start = [], None
        for j, v in enumerate(list(row) + [False]):
            if v and start is None:
                start = j
            elif not v and start is not None:
                runs.append([start, j - start])
                start = None
        rows.append(runs)
    doc = {"resolution": res, "mask": {"rows": rows}, "boundary": []}
    summary = {"area_of_mask": float(np.prod(steps)) * int(mask.sum()),
               "boundary_point_count": 0, "sigma_point_count": 0}
    return json.dumps(doc), json.dumps(summary)


@pytest.mark.parametrize("name", ["circular", "ode_quadratic"])
def test_domain_check_rejects_one_flipped_cell(name):
    box = json.loads((HERE.parent / "src" / "charmax" / "data"
                      / f"{name}.json").read_text())["box"]
    res = 32
    mask, steps = _closed_form_domain(name, box, res)
    assert checks.check_domain(name, box, *_domain_texts(mask, steps, res)) == []
    flipped = mask.copy()
    flipped[(res // 2,) * mask.ndim] ^= True     # t = 0 row, far from the fold
    assert checks.check_domain(name, box, *_domain_texts(flipped, steps, res))


def test_points_check_rejects_off_surface_and_off_fold_points():
    name = "circular"
    box = {"t": [-1.4, 1.4], "x": [[-1.4, 1.4]], "u": [-0.7, 2.3]}
    good = ["t,x1,u,kind", "0.6,0.0,0.8,surface", "0.0,1.0,0.0,sigma"]
    text = "\n".join(good) + "\n"
    assert checks.check_points(name, box, 64, text)[0] == []
    moved = text.replace("0.6,0.0,0.8,surface", "0.6,0.0,1.2,surface")
    assert checks.check_points(name, box, 64, moved)[0]
    for wrong in ("0.0,1.0001,0.0,sigma", "0.0,1.0,1e-5,sigma"):
        off = text.replace("0.0,1.0,0.0,sigma", wrong)
        assert checks.check_points(name, box, 64, off)[0]


def test_points_check_counts_pole_vertices():
    name = "burgers_reciprocal"
    box = {"t": [-0.25, 2.5], "x": [[-0.6, 2.0]], "u": [0.05, 3.05]}
    # x - u t + 1 = 0 at (t, x, u) = (1, 1, 2): F has a pole, no zero there;
    # (1, 1, 1) is on the fold t = (x + 1)^2 / 4, u = 2 / (x + 1)
    text = "t,x1,u,kind\n1.0,1.0,2.0,surface\n1.0,1.0,1.0,sigma\n"
    assert checks.check_points(name, box, 64, text) == ([], 1)


def test_characteristic_check_rejects_drift():
    name = "burgers_reciprocal"
    s, u = 0.05, 1.0 / 1.05
    rows = [f"{k * 0.1},{k * 0.1},{s + u * k * 0.1},{u}" for k in range(5)]
    text = "tau,t,x1,u\n" + "\n".join(rows) + "\n"
    assert checks.check_characteristic(name, text) == []
    bad = "tau,t,x1,u\n" + "\n".join(rows[:-1]) + \
        f"\n0.4,0.4,{s + u * 0.4},{u + 1e-5}\n"
    assert checks.check_characteristic(name, bad)


def test_envelope_check_rejects_a_wrong_row():
    name = "burgers_reciprocal"
    lines = ["s,t,x,speed"]
    for s in np.linspace(-0.1, 0.1, 5).tolist():
        lines.append(f"{s!r},{(s + 1) ** 2!r},{2 * s + 1!r},nan")
    text = "\n".join(lines) + "\n"
    assert checks.check_envelope(name, text, (-0.1, 0.1)) == []
    bad = text.replace(f"{(0.1 + 1) ** 2!r}", f"{(0.1 + 1) ** 2 + 1e-6!r}")
    assert checks.check_envelope(name, bad, (-0.1, 0.1))


def test_blowup_check_rejects_perturbed_time():
    assert checks.blowup_truth("burgers_ramp", (-0.1, 0.1)) == 0.5
    assert math.isclose(checks.blowup_truth("burgers_reciprocal", (-0.1, 0.1)),
                        0.81)
    assert checks.check_blowup("burgers_ramp", 0.5, (-0.1, 0.1)) == []
    assert checks.check_blowup("burgers_ramp", 0.5 + 1e-7, (-0.1, 0.1))
    assert checks.check_blowup("burgers_reciprocal", 0.8, (-0.1, 0.1))


def test_verify_check_rejects_a_failed_integral():
    ok = {"rho": [{"pass": True}, {"pass": True}]}
    assert checks.check_verify("circular", json.dumps(ok)) == []
    ok["rho"][1]["pass"] = False
    assert checks.check_verify("circular", json.dumps(ok))


def test_changed_output_between_identical_runs_fails():
    state = SimpleNamespace(digests={}, _checked=set())
    calls = []

    def check():
        calls.append(1)
        return []
    assert bench.Bench._outputs(state, "circular", {"a": b"1"}, check) == []
    assert bench.Bench._outputs(state, "circular", {"a": b"1"}, check) == []
    assert len(calls) == 1                    # identical bytes: checked once
    assert bench.Bench._outputs(state, "circular", {"a": b"2"}, check)


# ---------------------------------------------------------------------------
# tracer

def test_tracer_spans_cross_layer_calls_and_restores_bindings():
    import spans

    charmax = bench.load_charmax()
    from charmax import domain, expr, integrals

    original = domain.evaluate
    tracer = spans.Tracer()
    tracer.install(charmax)
    try:
        assert domain.evaluate is not original          # import site wrapped
        assert expr.evaluate is original                # defining module not
        tracer.problem = "burgers_ramp"
        b = charmax.load_problem_bundle(charmax.problem_path("burgers_ramp"))
        solve = tracer.entry("integrals.implicit_solution_for_problem",
                             integrals.implicit_solution_for_problem)
        solve(b.problem, b.data, b.rho, b.f)
    finally:
        tracer.uninstall()
    assert domain.evaluate is original
    (root,) = tracer.spans_named("integrals.implicit_solution_for_problem")
    assert root[4] is None and root[9] == root[0]
    assert tracer.totals[("expr.evaluate", "burgers_ramp")][0] > 0
    assert not tracer.spans_named("expr.evaluate")      # leaves: totals only
    # self times add up to the traced wall time of the outermost calls
    roots = [sp for sp in tracer.spans if sp[4] is None]
    assert len(roots) == 2      # load_problem_bundle is traced as well
    assert sum(tracer.layer_self.values()) == pytest.approx(
        sum(sp[3] - sp[2] for sp in roots), rel=1e-9)

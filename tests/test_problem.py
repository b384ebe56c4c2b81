import json
import math
import re
from itertools import product

import numpy as np
import pytest

import charmax
import helpers
from charmax.expr import Binary, Const, Unary, Var, parse
from charmax.problem import (Box, SchemaError, ValidationError,
                             characteristic_field, initial_set_samples,
                             load_problem_bundle, make_problem)


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BURGERS = {
    "n": 1, "alpha": "1", "a": ["u"], "b": "0", "h": "1/(x+1)",
    "s_range": [-0.1, 0.1],
    "box": {"t": [-0.25, 2.5], "x": [[-0.6, 2.0]], "u": [0.05, 3.05]},
}


class TestLoad:
    def test_burgers_file_valid(self, tmp_path):
        bundle = load_problem_bundle(write_problem(tmp_path, BURGERS))
        problem, data = bundle.problem, bundle.data
        assert problem.n == 1
        assert problem.alpha == Const(1.0)
        assert problem.a == (Var("u"),)
        assert data.h == parse("1/(x+1)", n=1)

    def test_alpha_vanishing_rejected(self, tmp_path):
        doc = dict(BURGERS, alpha="t")  # box.t = [-0.25, 2.5]: lattice hits 0
        doc["box"] = {"t": [-1.0, 1.0], "x": [[-1.0, 1.0]], "u": [0.05, 3.05]}
        doc["h"] = "1/(x+2)"
        with pytest.raises(ValidationError, match="alpha vanishes"):
            load_problem_bundle(write_problem(tmp_path, doc))

    def test_ode_n0_file_valid(self, tmp_path):
        doc = {"n": 0, "alpha": "1", "a": [], "b": "u^2", "h": "1",
               "box": {"t": [-5, 2], "x": [], "u": [-10, 10]}}
        bundle = load_problem_bundle(write_problem(tmp_path, doc))
        problem, data = bundle.problem, bundle.data
        assert problem.n == 0
        assert problem.b == parse("u^2", n=0)
        assert data.n == 0

    def test_missing_field(self, tmp_path):
        doc = dict(BURGERS)
        del doc["alpha"]
        with pytest.raises(SchemaError, match="alpha"):
            load_problem_bundle(write_problem(tmp_path, doc))

    def test_expression_error_carries_field_path(self, tmp_path):
        doc = dict(BURGERS, a=["u +"])
        with pytest.raises(SchemaError, match=r"a\[0\]"):
            load_problem_bundle(write_problem(tmp_path, doc))

    def test_h_must_use_x_only(self, tmp_path):
        doc = dict(BURGERS, h="t + x")
        with pytest.raises(SchemaError, match="x-variables"):
            load_problem_bundle(write_problem(tmp_path, doc))

    def test_gamma_must_stay_in_box(self, tmp_path):
        doc = dict(BURGERS)
        doc["box"] = {"t": [-0.25, 2.5], "x": [[-0.6, 2.0]], "u": [2.0, 3.05]}
        with pytest.raises(ValidationError, match="initial set leaves"):
            load_problem_bundle(write_problem(tmp_path, doc))

    # every sample out of the box, and samples out from s = 1.125 on
    @pytest.mark.parametrize("h, s_range, u_range, point", [
        ("x + 10", (-0.1, 0.1), (-3.0, 3.0), [0.0, -0.1, 9.9]),
        ("x", (-2.0, 2.0), (-3.0, 1.0), [0.0, 1.125, 1.125])])
    def test_the_first_sample_out_of_the_box_is_named(self, h, s_range,
                                                      u_range, point):
        with pytest.raises(ValidationError) as err:
            make_problem(1, "1", ["u"], "0", h,
                         Box((0.0, 1.0), ((-2.0, 2.0),), u_range),
                         s_range=(s_range,))
        assert str(err.value) == f"initial set leaves the box at {point}"

    # a reversed interval would clamp every query's start to one end
    @pytest.mark.parametrize("s_range, message", [
        (((0.5, -0.5),), "s_range [0.5, -0.5] is reversed"),
        (((-0.1, 0.1), (0.2, 0.1)), "s_range [0.2, 0.1] is reversed")])
    def test_reversed_s_range_is_rejected(self, s_range, message):
        n = len(s_range)
        with pytest.raises(ValidationError, match=re.escape(message)):
            make_problem(n, "1", ["u"] * n, "0", "2",
                         Box((-1.0, 1.0), ((-1.0, 1.0),) * n, (-3.0, 3.0)),
                         s_range=s_range)

    # n = 2 with a single interval was accepted, and its initial set ran
    # along x2 = x1; n = 1 with two intervals raised numpy's broadcast
    # error.  make_problem's counts are the file parser's schema checks
    @pytest.mark.parametrize("n, kwargs", [
        (2, {"s_range": ((-0.1, 0.1),)}),
        (1, {"s_range": ((-0.1, 0.1), (-0.1, 0.1))})])
    def test_s_range_count_is_checked(self, n, kwargs):
        with pytest.raises(SchemaError, match=re.escape(
                f"s_range: expected {n} intervals")):
            make_problem(n, "1", ["u"] * n, "0", "1/(x1 + 3)",
                         Box((-1.0, 1.0), ((-1.0, 1.0),) * n, (-3.0, 3.0)),
                         **kwargs)

    # each was accepted by make_problem and failed later: TypeError from
    # the compiled rho (n = 2, one a), ValueError "variable 'x2' is not in
    # ('t', 'x1', 'u')" (n = 1, two a) and numpy's broadcast error in the
    # alpha check (n = 1, two x-ranges)
    @pytest.mark.parametrize("n, a, x_ranges, field", [
        (2, ["u"], 2, "a: expected 2 expressions, got 1"),
        (1, ["u", "u"], 1, "a: expected 1 expressions, got 2"),
        (1, ["u"], 2, "box.x: expected 1 ranges")],
        ids=["n2_one_a", "n1_two_a", "n1_two_x_ranges"])
    def test_make_problem_checks_a_and_box_x_against_n(self, n, a, x_ranges,
                                                       field):
        with pytest.raises(SchemaError, match=re.escape(field)):
            make_problem(n, "1", a, "0", "1/(x1 + 3)",
                         Box((-1.0, 1.0), ((-1.0, 1.0),) * x_ranges,
                             (-3.0, 3.0)))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_default_s_range_is_one_interval_per_x_variable(self, n,
                                                            tmp_path):
        box = {"t": [-1.0, 1.0], "x": [[-1.0, 1.0]] * n, "u": [-3.0, 3.0]}
        doc = {"n": n, "alpha": "1", "a": ["u"] * n, "b": "0", "h": "1",
               "box": box}
        _, data = make_problem(n, "1", ["u"] * n, "0", "1",
                               Box((-1.0, 1.0), ((-1.0, 1.0),) * n,
                                   (-3.0, 3.0)))
        bundle = load_problem_bundle(write_problem(tmp_path, doc))
        assert data.s_range == bundle.data.s_range == ((-0.1, 0.1),) * n

    @pytest.mark.parametrize("s_range", [[], [[]], [-0.1, 0.1]])
    def test_s_range_for_n_0_is_no_interval(self, s_range, tmp_path):
        doc = {"n": 0, "alpha": "1", "b": "u^2", "h": "1", "s_range": s_range,
               "box": {"t": [-5, 2], "u": [-10, 10]}}
        if s_range:
            with pytest.raises(SchemaError,
                               match=re.escape("s_range: expected 0 "
                                               "intervals")):
                load_problem_bundle(write_problem(tmp_path, doc))
        else:
            bundle = load_problem_bundle(write_problem(tmp_path, doc))
            assert bundle.data.s_range == ()

    def test_a_defaults_to_none_for_every_n(self, tmp_path):
        doc = dict(BURGERS)
        del doc["a"]
        with pytest.raises(SchemaError, match=re.escape(
                "a: expected 1 expressions, got 0")):
            load_problem_bundle(write_problem(tmp_path, doc))

    def test_zero_width_s_range_is_one_initial_point(self):
        _, data = make_problem(1, "1", ["u"], "0", "2",
                               Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)),
                               s_range=((0.25, 0.25),))
        assert data.s_range == ((0.25, 0.25),)

    def test_rho_count_checked(self, tmp_path):
        doc = dict(BURGERS, rho=["u"])
        with pytest.raises(SchemaError, match="rho"):
            load_problem_bundle(write_problem(tmp_path, doc))

    def test_optional_rho_f_parsed(self, tmp_path):
        doc = dict(BURGERS, rho=["u", "x - u*t"], f="y1 - 1/(y2 + 1)")
        b = load_problem_bundle(write_problem(tmp_path, doc))
        assert b.rho == (Var("u"), parse("x - u*t", n=1))
        assert b.f is not None

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_problem_bundle(path)

    def test_bundled_files_load(self):
        for name in ("ode_quadratic", "circular", "burgers_ramp",
                     "burgers_reciprocal"):
            bundle = load_problem_bundle(charmax.problem_path(name))
            assert bundle.problem.box.n == bundle.problem.n


class TestInitialSamples:
    def test_square_root_data(self):
        _, data = make_problem(
            1, "u", ["0"], "-t", "sqrt(1 - x^3)",
            Box((-1.4, 1.4), ((-1.4, 1.4),), (-0.7, 2.3)))
        pts = initial_set_samples(data, 3)
        expect = [(0.0, -0.1, math.sqrt(1.001)),
                  (0.0, 0.0, 1.0),
                  (0.0, 0.1, math.sqrt(0.999))]
        assert pts.shape == (3, 3)
        for row, exp in zip(pts, expect):
            assert row[0] == 0.0
            assert row[1] == exp[1]
            assert row[2] == exp[2]

    def test_n0_single_point(self):
        _, data = make_problem(0, "1", [], "u^2", "1",
                               Box((-5.0, 2.0), (), (-10.0, 10.0)))
        pts = initial_set_samples(data, 1)
        assert pts.tolist() == [[0.0, 1.0]]

    def test_constant_data(self):
        _, data = make_problem(1, "1", ["u"], "0", "2",
                               Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        pts = initial_set_samples(data, 5)
        assert np.all(pts[:, 2] == 2.0)
        assert np.all(pts[:, 0] == 0.0)

    def test_count_must_be_at_least_two(self):
        _, data = make_problem(1, "1", ["u"], "0", "2",
                               Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        with pytest.raises(ValueError):
            initial_set_samples(data, 1)


class TestCharacteristicField:
    def test_burgers(self):
        problem, _ = make_problem(
            1, "1", ["u"], "0", "1/(x+1)",
            Box((-0.25, 2.5), ((-0.6, 2.0),), (0.05, 3.05)))
        fld = characteristic_field(problem)
        assert fld.components == (Const(1.0), Var("u"), Const(0.0))
        assert fld.n == 1

    def test_circular(self):
        problem, _ = make_problem(
            1, "u", ["0"], "-t", "sqrt(1 - x^3)",
            Box((-1.4, 1.4), ((-1.4, 1.4),), (-0.7, 2.3)))
        fld = characteristic_field(problem)
        assert fld.components == (Var("u"), Const(0.0), Unary("neg", Var("t")))

    def test_ode(self):
        problem, _ = make_problem(0, "1", [], "u^2", "1",
                                  Box((-5.0, 2.0), (), (-10.0, 10.0)))
        fld = characteristic_field(problem)
        assert fld.components == (Const(1.0), Binary("^", Var("u"), Const(2.0)))
        assert fld.n == 0


class TestGeneralDimension:
    """The data types carry any n; extraction is limited to n <= 1."""

    def make_n2(self):
        return make_problem(
            2, "1", ["u", "u^2"], "0", "x1 + x2",
            Box((-1.0, 1.0), ((-1.0, 1.0), (-1.0, 1.0)), (-3.0, 3.0)),
            s_range=((-0.1, 0.1), (-0.1, 0.1)))

    def test_lattice_sampling(self):
        _, data = self.make_n2()
        pts = initial_set_samples(data, 3)
        assert pts.shape == (9, 4)
        assert np.all(pts[:, 0] == 0.0)
        assert np.allclose(pts[:, 3], pts[:, 1] + pts[:, 2])

    def test_field_has_four_components(self):
        problem, _ = self.make_n2()
        fld = characteristic_field(problem)
        assert len(fld.components) == 4
        assert fld.n == 2


class TestBoxContains:
    # faces at signed zeros, and values on, just inside and just outside
    # each face by the atol and by one ulp beyond it
    BOX = Box((-0.0, 1.0), ((-2.5, 0.0),), (0.1, 3.0))

    @staticmethod
    def values(lo, hi):
        near = [lo, hi, lo - 1e-12, hi + 1e-12]
        near += [math.nextafter(v, d) for v in near for d in (-math.inf,
                                                              math.inf)]
        return near + [0.5 * (lo + hi), 0.0, -0.0, math.nan, math.inf,
                       -math.inf]

    def test_one_point_matches_the_array_test(self):
        box = self.BOX
        points = np.array(list(product(*(self.values(lo, hi)
                                         for lo, hi in box.ranges))))
        for atol in (0.0, 1e-12):
            want = [helpers.contains_by_numpy(box, p, atol) for p in points]
            got = [box.contains(p, atol=atol) for p in points]
            assert got == want and {type(g) for g in got} == {bool}
            assert [box.contains(p, atol) for p in points.tolist()] == want
            assert box.contains(points, atol=atol).tolist() == want
            assert 0 < sum(want) < len(want)
        assert box.contains(points[:0]).shape == (0,)

    def test_wrong_length_point_raises(self):
        with pytest.raises(ValueError):
            self.BOX.contains([0.5, -1.0])

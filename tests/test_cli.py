import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import charmax
import helpers
from charmax import locus
from charmax.cli import main
from charmax.integrals import (implicit_solution_for_problem,
                               verification_samples)
from charmax.problem import initial_set_samples, load_problem_bundle


def problem_file(name):
    return str(charmax.problem_path(name))


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CONSTANT_DATA = {
    "n": 1, "alpha": "1", "a": ["u"], "b": "0", "h": "1",
    "s_range": [-0.1, 0.1],
    "box": {"t": [-1.0, 1.0], "x": [[-1.0, 1.0]], "u": [-3.0, 3.0]},
}

# Burgers with h = sqrt(x + 1): F = u - sqrt(x - u*t + 1) is undefined on
# part of the box, where Newton steps of the flow check land
SQRT_DATA = {
    "n": 1, "alpha": "1", "a": ["u"], "b": "0", "h": "sqrt(x + 1)",
    "s_range": [-0.1, 0.1],
    "box": {"t": [-0.5, 1.0], "x": [[-2.0, 1.0]], "u": [0.05, 2.0]},
}

# u' = 1/(2u), u(0) = 1: F = u^2 - t - 1, so u = sqrt(1 + t) folds back
# at (t, u) = (-1, 0), where F_u = 2u vanishes
N0_FOLD_DATA = {
    "n": 0, "alpha": "1", "b": "1/(2*u)", "h": "1",
    "box": {"t": [-1.5, 1.0], "u": [-0.7, 1.5]},
    "rho": ["u^2 - t"], "f": "y1 - 1",
}

# u' = 1/(u^2 - 1), u(0) = 2: F = u^3/3 - u - t - 2/3 folds where u^2 = 1,
# at (t, u) = (-4/3, 1) on the initial set's branch and at (0, -1) on the
# branch below, whose fold lies within the masked t-range [-4/3, 1]
TWO_FOLD_DATA = {
    "n": 0, "alpha": "1", "b": "1/(u^2 - 1)", "h": "2",
    "box": {"t": [-2, 1], "u": [-3, 3]},
    "rho": ["u^3/3 - u - t"], "f": "y1 - 2/3",
}

# u' = 1/cos(u), u(0) = 0: F = sin(u) - t folds at u = -pi/2 and pi/2,
# where t = -1 and 1, inside the box, so the branch meets no box face
TWO_SIDED_FOLD_DATA = {
    "n": 0, "alpha": "1", "b": "1/cos(u)", "h": "0",
    "box": {"t": [-2, 2], "u": [-3, 3]}, "rho": ["sin(u) - t"], "f": "y1",
}

# X F = b = log(t) - log(t) is undefined wherever t <= 0, which is all of
# the box but t in (0, 0.001]
UNDEFINED_FLOW_DATA = {
    "n": 0, "alpha": "1", "b": "log(t) - log(t)", "h": "1",
    "box": {"t": [-1, 0.001], "u": [0, 2]}, "rho": ["u"], "f": "y1 - 1",
}

# u' = u, u(0) = 1, with rho = t - log(u): rho and X rho fail to evaluate
# on the lower quarter of the box, u <= 0, and the check still passes
LOG_RHO_DATA = {
    "n": 0, "alpha": "1", "b": "u", "h": "1",
    "box": {"t": [-1.0, 1.0], "u": [-1.0, 3.0]},
    "rho": ["t - log(u)"], "f": "y1",
}

TWO_SPEED_DATA = {
    "n": 2, "alpha": "1", "a": ["u", "u^2"], "b": "0", "h": "x1 + x2",
    "s_range": [[-0.1, 0.1], [-0.1, 0.1]], "f": "y1 - y2 - y3",
    "box": {"t": [-1.0, 1.0], "x": [[-1.0, 1.0], [-1.0, 1.0]],
            "u": [-3.0, 3.0]},
}

# u_t + u u_x1 + u u_x2 = 0 with u = 1/(x1 + x2 + 3) at t = 0, as
# helpers.lifted_burgers_problem: 2 t u^2 - xi u + 1 = 0, xi = x1 + x2 + 3
LIFTED_DATA = {
    "n": 2, "alpha": "1", "a": ["u", "u"], "b": "0", "h": "1/(x1 + x2 + 3)",
    "s_range": [[-0.1, 0.1], [-0.1, 0.1]],
    "box": {"t": [-0.25, 2.5], "x": [[-0.6, 2.0], [-0.6, 2.0]],
            "u": [0.05, 3.05]},
}


class TestVerify:
    def test_burgers_passes(self, tmp_path, capsys):
        assert main(["verify", "--problem",
                     problem_file("burgers_reciprocal"),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        doc = json.loads((tmp_path / "verify.json").read_text())
        assert all(r["pass"] for r in doc["rho"])
        assert doc["min_singular_value"] >= 1e-6

    def test_reports_what_the_checks_measured(self, tmp_path, capsys):
        assert main(["verify", "--problem", problem_file("ode_quadratic"),
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        doc = json.loads((tmp_path / "verify.json").read_text())
        # one initial-set sample (t, u) = (0, 1): F = 0 and F_u = -1 there;
        # the flow check's fixed draws reach 200 surface points at draw
        # 2037, and its residual uses + - * / only, so it is exact
        assert doc["max_abs_F_on_gamma"] == 0.0
        assert doc["min_abs_F_u_on_gamma"] == 1.0
        assert doc["flow_points_projected"] == 200
        assert doc["flow_draws"] == 2037
        assert doc["flow_points_checked"] == 201
        assert doc["max_flow_residual"] == 3.700743415417188e-17
        assert "max |F| = 0.0" in out
        assert "min |F_u| = 1.0" in out
        assert (f"zero set flow-invariant at 201 points (200 surface points "
                f"projected in 2037 draws): max |XF| / scale = "
                f"{doc['max_flow_residual']!r}") in out

    @pytest.mark.parametrize("problem, checks", [
        ("circular", "SolutionChecks(max_abs_F_on_gamma=3.215743643592006e-16,"
         " min_abs_F_u_on_gamma=1.998999749874922, max_flow_residual=0.0,"
         " flow_points_projected=200, flow_draws=352,"
         " flow_points_checked=265)"),
        ("burgers_ramp", "SolutionChecks(max_abs_F_on_gamma=0.0,"
         " min_abs_F_u_on_gamma=1.0, max_flow_residual=0.0,"
         " flow_points_projected=200, flow_draws=243,"
         " flow_points_checked=265)"),
        ("burgers_reciprocal", "SolutionChecks(max_abs_F_on_gamma=0.0,"
         " min_abs_F_u_on_gamma=1.0,"
         " max_flow_residual=1.0737393908314842e-16,"
         " flow_points_projected=200, flow_draws=496,"
         " flow_points_checked=265)"),
        (SQRT_DATA, "SolutionChecks(max_abs_F_on_gamma=0.0,"
         " min_abs_F_u_on_gamma=1.0, max_flow_residual=5.551115123125783e-17,"
         " flow_points_projected=200, flow_draws=352,"
         " flow_points_checked=265)"),
        (N0_FOLD_DATA, "SolutionChecks(max_abs_F_on_gamma=0.0,"
         " min_abs_F_u_on_gamma=2.0, max_flow_residual=3.700743415417188e-17,"
         " flow_points_projected=200, flow_draws=332,"
         " flow_points_checked=201)"),
        (CONSTANT_DATA, "SolutionChecks(max_abs_F_on_gamma=0.0,"
         " min_abs_F_u_on_gamma=1.0, max_flow_residual=0.0,"
         " flow_points_projected=200, flow_draws=200,"
         " flow_points_checked=265)"),
        (TWO_SPEED_DATA, "SolutionChecks("
         "max_abs_F_on_gamma=1.3877787807814457e-17,"
         " min_abs_F_u_on_gamma=1.0, max_flow_residual=6.01396015608448e-17,"
         " flow_points_projected=200, flow_draws=257,"
         " flow_points_checked=4425)"),
    ], ids=["circular", "burgers_ramp", "burgers_reciprocal", "sqrt",
            "n0_fold", "constant", "two_speed"])
    def test_checks_repeat_bit_for_bit(self, problem, checks, tmp_path):
        # recorded with the draw-by-draw projection that
        # helpers.flow_check_by_draws keeps
        path = (problem_file(problem) if isinstance(problem, str)
                else write(tmp_path, problem))
        bundle = load_problem_bundle(path)
        _, sol = implicit_solution_for_problem(bundle.problem, bundle.data,
                                               bundle.rho, bundle.f)
        assert repr(sol.checks) == checks

    def test_reports_the_samples_left_out(self, tmp_path, capsys):
        assert main(["verify", "--problem", write(tmp_path, LOG_RHO_DATA),
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "verify.json").read_text())
        bundle = load_problem_bundle(str(tmp_path / "problem.json"))
        samples = verification_samples(bundle.problem.box,
                                       np.array([[0.0, 1.0]]))
        (rho,) = doc["rho"]
        assert rho["pass"]
        assert rho["excluded"] == np.count_nonzero(samples[:, 1] <= 0.0) > 0
        assert doc["nondegeneracy_excluded"] == 0
        assert main(["verify", "--problem", problem_file("burgers_ramp"),
                     "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "verify.json").read_text())
        assert [r["excluded"] for r in doc["rho"]] == [0, 0]
        assert doc["nondegeneracy_excluded"] == 0

    def test_wrong_f_fails_validation(self, tmp_path, capsys):
        doc = dict(CONSTANT_DATA, rho=["u", "x - u*t"], f="y1")
        assert main(["verify", "--problem", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 2
        assert "does not vanish" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["verify", "--problem",
                     str(tmp_path / "missing.json")]) == 1

    def test_malformed_json_is_io_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        assert main(["verify", "--problem", str(path)]) == 1

    def test_partly_undefined_F_passes(self, tmp_path, capsys):
        assert main(["verify", "--problem", write(tmp_path, SQRT_DATA),
                     "--out", str(tmp_path / "out")]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_flow_check_with_no_residual_fails(self, tmp_path, capsys):
        assert main(["verify", "--problem",
                     write(tmp_path, UNDEFINED_FLOW_DATA),
                     "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "flow residual evaluated at only" in captured.err
        assert not (tmp_path / "out").exists()

    def test_default_s_range_is_the_explicit_one(self, tmp_path):
        # an n = 2 file without s_range failed to load ("expected a list
        # of intervals"); it gets one [-0.1, 0.1] per x-variable
        doc = dict(LIFTED_DATA)
        del doc["s_range"]
        for name, problem in (("default", doc), ("explicit", LIFTED_DATA)):
            assert main(["verify", "--problem",
                         write(tmp_path, problem, f"{name}.json"),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "default" / "verify.json").read_bytes()
                == (tmp_path / "explicit" / "verify.json").read_bytes())

    def test_alpha_vanishing_is_validation_error(self, tmp_path, capsys):
        doc = dict(CONSTANT_DATA, alpha="t")
        assert main(["verify", "--problem", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 2
        assert "alpha vanishes" in capsys.readouterr().err


BURGERS_RECIPROCAL = json.loads(
    charmax.problem_path("burgers_reciprocal").read_text())


def _with_box(doc, **ranges):
    return dict(doc, box=dict(doc["box"], **ranges))


class TestErrorPaths:
    """A malformed or invalid problem file, or a query without --t, ends
    in a clean exit: 1 for a schema or parse error, 2 for a validation
    error or a usage error (argparse's exit)."""

    @pytest.mark.parametrize("command, doc, code, fragment", [
        ("verify", [1], 1, "top level must be an object"),
        ("verify", dict(CONSTANT_DATA, n=-1), 1, "n: expected an integer"),
        ("verify", dict(CONSTANT_DATA, n=True), 1, "n: expected an integer"),
        ("verify", dict(CONSTANT_DATA, a=["u", "u"]), 1,
         "a: expected 1 expressions, got 2"),
        ("verify", _with_box(CONSTANT_DATA, x=[]), 1,
         "box.x: expected 1 ranges"),
        ("verify", dict(TWO_SPEED_DATA, s_range=[[-0.1, 0.1]]), 1,
         "s_range: expected 2 intervals"),
        ("verify", dict(TWO_SPEED_DATA, s_range=[-0.1, 0.1]), 1,
         "s_range: expected 2 intervals"),
        # the loader ignored it, and verify printed PASS
        ("verify", dict(N0_FOLD_DATA, s_range=[[5, 1], [3]]), 1,
         "s_range: expected 0 intervals"),
        ("verify", dict(CONSTANT_DATA, alpha=1), 1, "alpha: expected str"),
        ("verify", dict(CONSTANT_DATA, f=1), 1,
         "f: expected an expression string"),
        ("verify", _with_box(CONSTANT_DATA, t=[1]), 1,
         "box.t: expected [lo, hi]"),
        ("verify", dict(CONSTANT_DATA, alpha="$"), 1,
         "unexpected character '$'"),
        ("verify", dict(CONSTANT_DATA, alpha="(u"), 1, "expected ')'"),
        ("verify", dict(CONSTANT_DATA, alpha="u 1"), 1,
         "expected an operator or end of input"),
        ("verify", dict(CONSTANT_DATA, alpha="."), 1,
         "malformed number starting with '.'"),
        ("verify", _with_box(CONSTANT_DATA, t=[1, 1]), 2,
         "box range [1.0, 1.0] is empty"),
        ("verify", dict(CONSTANT_DATA, alpha="log(t)"), 2,
         "alpha fails to evaluate at lattice point"),
        ("verify", dict(CONSTANT_DATA, h="log(x)"), 2,
         "h fails to evaluate on s_range"),
        ("domain", dict(CONSTANT_DATA, s_range=[0.5, -0.5]), 2,
         "s_range [0.5, -0.5] is reversed"),
        ("verify", dict(BURGERS_RECIPROCAL, rho=["u", "2*u"], f="y1 - y2"),
         2, "rho is degenerate on the initial set: min singular value "
            "0.000e+00 at [0.0, -0.1, 1.1111111111111112]"),
        ("verify", dict(BURGERS_RECIPROCAL, rho=["u", "x - u*t"]), 2,
         "no f in the problem file and rho is not the built-in "
         "conservation set"),
        ("query", CONSTANT_DATA, 2,
         "the following arguments are required: --t"),
    ], ids=["not_an_object", "negative_n", "bool_n", "a_count",
            "box_x_count", "s_range_count", "s_range_not_intervals",
            "s_range_for_n_0",
            "alpha_not_a_string", "f_not_a_string", "box_t_malformed",
            "parse_dollar", "parse_missing_paren", "parse_trailing_input",
            "parse_lone_dot", "empty_box_range", "alpha_fails_on_lattice",
            "h_fails_on_s_range", "reversed_s_range", "degenerate_rho",
            "user_rho_without_f", "query_without_t"])
    def test_exit_code_and_message(self, command, doc, code, fragment,
                                   tmp_path, capsys):
        argv = [command, "--problem", write(tmp_path, doc)]
        if command != "query":
            argv += ["--out", str(tmp_path / "out")]
        try:
            got = main(argv)
        except SystemExit as exit:     # a usage error, from argparse
            got = exit.code
        assert got == code
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestQuery:
    def test_ode_inside(self, capsys):
        assert main(["query", "--problem", problem_file("ode_quadratic"),
                     "--t", "0.9"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("inside ")
        assert abs(float(out.split()[1]) - 10.0) <= 1e-8

    def test_ode_outside(self, capsys):
        assert main(["query", "--problem", problem_file("ode_quadratic"),
                     "--t", "1.1"]) == 0
        assert capsys.readouterr().out.strip() == "outside"

    def test_partly_undefined_F_inside(self, tmp_path, capsys):
        assert main(["query", "--problem", write(tmp_path, SQRT_DATA),
                     "--t", "0.3", "--x", "0.5"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("inside ")
        # u^2 + 0.3 u - 1.5 = 0
        assert abs(float(out.split()[1])
                   - (-0.3 + 6.09 ** 0.5) / 2) <= 1e-8

    def test_missing_x_reports_usage(self, capsys):
        # a wrong --x count, none for n = 1 (it exited 1)
        assert main(["query", "--problem", problem_file("circular"),
                     "--t", "0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: --x takes n = 1 values, got 0\n")

    def test_x_for_n_0_is_a_validation_error(self, capsys):
        # it used to be ignored: "inside 2.0", exit 0
        assert main(["query", "--problem", problem_file("ode_quadratic"),
                     "--t", "0.5", "--x", "0.3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --x takes n = 0 values, got 1\n"

    @pytest.mark.parametrize("x", [[0.3, 0.2], [-0.3, -0.2]])
    def test_lifted_law_takes_two_x_values(self, x, tmp_path, capsys):
        assert main(["query", "--problem", write(tmp_path, LIFTED_DATA),
                     "--t", "0.5", "--x", *map(str, x)]) == 0
        kind, u = capsys.readouterr().out.split()
        expect, _ = helpers.lifted_burgers_u([0.5, *x])
        assert kind == "inside" and abs(float(u) - expect) <= 1e-8

    def test_x_count_must_be_n(self, tmp_path, capsys):
        # one value for n = 2 was read as the point (t, x1) and failed in
        # the query: "query point must have 3 coordinates"
        assert main(["query", "--problem", write(tmp_path, LIFTED_DATA),
                     "--t", "0.5", "--x", "0.3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --x takes n = 2 values, got 1\n"


class TestDomain:
    def test_constant_data_masks_whole_window(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(["domain", "--problem", write(tmp_path, CONSTANT_DATA),
                     "--resolution", "32", "--out", str(out_dir)])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert abs(summary["area_of_mask"] - 4.0) <= 1e-9  # 2 x 2 window
        assert summary["sigma_point_count"] == 0
        doc = json.loads((out_dir / "domain.json").read_text())
        assert doc["resolution"] == 32

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            assert main(["domain", "--problem", problem_file("burgers_ramp"),
                         "--resolution", "32", "--out", str(out_dir)]) == 0
            outs.append((out_dir / "domain.json").read_bytes()
                        + (out_dir / "summary.json").read_bytes())
        assert outs[0] == outs[1]


class TestResolution:
    @pytest.mark.parametrize("command", ["domain", "singular"])
    def test_zero_is_rejected_not_replaced(self, command, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main([command, "--problem", problem_file("burgers_ramp"),
                     "--resolution", "0", "--out", str(out_dir)]) == 2
        assert "resolution must be >= 16" in capsys.readouterr().err
        assert not out_dir.exists()

    # the allocations a resolution of 100000 makes fail, failing as they
    # would: the flood's state of domain's tiles, the whole grid of
    # singular; nothing of that size is asked for
    @pytest.mark.parametrize("command, allocation", [
        ("domain", "bytearray"), ("singular", "_evaluate_tiles")])
    def test_too_large_is_one_error_line(self, command, allocation, tmp_path,
                                         capsys, monkeypatch):
        def unable(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(locus, allocation, unable, raising=False)
        args = [command, "--problem", problem_file("burgers_ramp"),
                "--out", str(tmp_path)]
        assert main([*args, "--resolution", "48"]) == 2
        assert capsys.readouterr().err == (
            "error: --resolution 48 needs more memory than is available; "
            "give a smaller one\n")
        with pytest.raises(MemoryError):  # no --resolution to blame
            main(args)


class TestUnsupportedDimension:
    @pytest.mark.parametrize("command", ["domain", "singular"])
    def test_n2_surface_is_a_clean_error(self, command, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(charmax.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "charmax.cli", command, "--problem",
             write(tmp_path, TWO_SPEED_DATA), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    """Identical config and problem file give byte-identical outputs."""

    CASES = [
        (["singular", "--resolution", "32"], "burgers_ramp", "sigma.csv"),
        (["envelope"], "burgers_reciprocal", "envelope.csv"),
        (["characteristics", "--samples", "3"], "burgers_reciprocal",
         "characteristic_001.csv"),
        (["verify"], "burgers_reciprocal", "verify.json"),
    ]

    @pytest.mark.parametrize("argv,name,artifact", CASES,
                             ids=[c[0][0] for c in CASES])
    def test_rerun_bytes(self, tmp_path, argv, name, artifact, capsys):
        blobs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code = main(argv + ["--problem", problem_file(name),
                                "--out", str(out_dir)])
            assert code == 0
            blobs.append((out_dir / artifact).read_bytes())
        assert blobs[0] == blobs[1]


class TestCharacteristics:
    def test_three_seeds_three_files(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["characteristics", "--problem",
                     problem_file("burgers_reciprocal"), "--samples", "3",
                     "--out", str(out_dir)]) == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["characteristic_000.csv", "characteristic_001.csv",
                         "characteristic_002.csv"]
        header = (out_dir / files[0]).read_text().splitlines()[0]
        assert header == "tau,t,x1,u"

    def test_bad_tol_is_one_error(self, tmp_path, capsys):
        """An argument error applies to every seed: it is reported once,
        as an error, and no curve is written."""
        out_dir = tmp_path / "out"
        assert main(["characteristics", "--problem",
                     problem_file("burgers_reciprocal"), "--tol", "1",
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: tol 1.0 outside [1e-13, 1e-3]"]
        assert not out_dir.exists()

    # nan once wrote curves running backward to the box, inf and -inf
    # one-row curves marked span_end
    @pytest.mark.parametrize("span", ["nan", "inf", "-inf"])
    def test_non_finite_span_is_one_error(self, span, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["characteristics", "--problem",
                     problem_file("burgers_ramp"), f"--span={span}",
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: span (0.0, {float(span)}) is not finite"]
        assert not out_dir.exists()

    def test_seed_errors_are_reported_per_seed(self, tmp_path, capsys):
        # b = sqrt(x) fails to evaluate at the four seeds with x < 0; the
        # other five curves are written
        doc = {"n": 1, "alpha": "1", "a": ["u"], "b": "sqrt(x)", "h": "1",
               "s_range": [-0.1, 0.1],
               "box": {"t": [0.0, 1.0], "x": [[-1.0, 1.0]],
                       "u": [0.0, 3.0]}}
        out_dir = tmp_path / "out"
        assert main(["characteristics", "--problem", write(tmp_path, doc),
                     "--out", str(out_dir)]) == 2
        assert sorted(p.name for p in out_dir.iterdir()) == [
            f"characteristic_{i:03d}.csv" for i in range(4, 9)]
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 4
        for i, line in enumerate(err):
            assert line.startswith(
                f"seed {i}: field fails to evaluate at seed: sqrt of negative")
        assert captured.out == "wrote 5 characteristic curves\n"

    def test_zero_span_writes_the_seeds(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["characteristics", "--problem",
                     problem_file("burgers_ramp"), "--span", "0",
                     "--samples", "3", "--out", str(out_dir)]) == 0
        data = load_problem_bundle(problem_file("burgers_ramp")).data
        for i, seed in enumerate(initial_set_samples(data, 3).tolist()):
            text = (out_dir / f"characteristic_{i:03d}.csv").read_text()
            assert text.splitlines() == [
                "tau,t,x1,u", ",".join(map(repr, [0.0, *seed]))]


class TestSingular:
    def test_ramp_sigma_points(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["singular", "--problem", problem_file("burgers_ramp"),
                     "--resolution", "32", "--out", str(out_dir)]) == 0
        lines = (out_dir / "sigma.csv").read_text().strip().splitlines()
        assert lines[0] == "t,x1,u,kind"
        assert len(lines) > 3
        for line in lines[1:]:
            t, x, u, kind = line.split(",")
            assert abs(float(t) - 0.5) <= 1e-8
            assert abs(float(x)) <= 1e-8
            assert kind == "sigma"

    def test_with_surface_rows(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["singular", "--problem", problem_file("burgers_ramp"),
                     "--resolution", "32", "--with-surface",
                     "--out", str(out_dir)]) == 0
        kinds = {line.rsplit(",", 1)[1] for line in
                 (out_dir / "sigma.csv").read_text().strip().splitlines()[1:]}
        assert "surface" in kinds and "sigma" in kinds


class TestEnvelope:
    def test_reciprocal_fold_curve(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["envelope", "--problem",
                     problem_file("burgers_reciprocal"),
                     "--out", str(out_dir)]) == 0
        lines = (out_dir / "envelope.csv").read_text().strip().splitlines()
        assert lines[0] == "s,t,x,speed"
        for line in lines[1:]:
            s, t, x, speed = (float(v) for v in line.split(","))
            assert abs(t - (x + 1.0) ** 2 / 4.0) <= 1e-8

    def test_json_format(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["envelope", "--problem",
                     problem_file("burgers_reciprocal"), "--format", "json",
                     "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "envelope.json").read_text())
        assert doc["columns"] == ["s", "t", "x", "speed"]

    def test_non_conservation_rejected(self, capsys):
        assert main(["envelope", "--problem", problem_file("circular"),
                     "--out", "unused"]) == 2

    @pytest.mark.parametrize("samples", [0, 1])
    def test_fewer_than_two_samples_is_one_error(self, samples, tmp_path,
                                                 capsys):
        out_dir = tmp_path / "out"
        assert main(["envelope", "--problem", problem_file("burgers_ramp"),
                     "--samples", str(samples), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: samples must be >= 2, got {samples}"]
        assert not out_dir.exists()


class TestStrictJson:
    """``--format json`` writes JSON that a strict parser reads: a number
    that is not finite becomes null."""

    CASES = [
        (["envelope"], "burgers_ramp", "envelope.json"),
        (["envelope"], "burgers_reciprocal", "envelope.json"),
        (["singular", "--with-surface", "--resolution", "32"],
         "burgers_reciprocal", "sigma.json"),
        (["characteristics", "--samples", "3"], "burgers_reciprocal",
         "characteristic_001.json"),
    ]

    @pytest.mark.parametrize("argv,name,artifact", CASES,
                             ids=["envelope-ramp", "envelope-reciprocal",
                                  "singular", "characteristics"])
    def test_parses_without_nan_or_infinity(self, argv, name, artifact,
                                            tmp_path):
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        out_dir = tmp_path / "out"
        assert main(argv + ["--format", "json", "--problem",
                            problem_file(name), "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / artifact).read_text(),
                         parse_constant=reject)
        assert len(doc["rows"]) > 1
        if name == "burgers_ramp":
            # the ramp's envelope is the one point t* = 1/2, x* = 0, where
            # the speed along it is 0/0
            assert {row[3] for row in doc["rows"]} == {None}


class TestFoldAtNZero:
    """An n = 0 problem whose branch ends at a fold, u = sqrt(1 + t)."""

    def test_domain_runs_from_the_fold_to_the_window(self, tmp_path,
                                                     capsys):
        out_dir = tmp_path / "out"
        assert main(["domain", "--problem", write(tmp_path, N0_FOLD_DATA),
                     "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        cell = 2.5 / 1024    # the box's t extent over the n = 0 default
        assert abs(summary["area_of_mask"] - 2.0) <= cell   # t in [-1, 1]
        assert summary["sigma_point_count"] == 1
        boundary = json.loads((out_dir / "domain.json").read_text())[
            "boundary"]
        # the polished fold comes first, the box's end t = 1 last
        assert abs(boundary[0][0] + 1.0) <= 1e-8
        assert boundary[-1] == [1.0]

    def test_domain_boundary_is_the_fold_and_the_window(self, tmp_path,
                                                        capsys):
        out_dir = tmp_path / "out"
        assert main(["domain", "--problem", write(tmp_path, N0_FOLD_DATA),
                     "--out", str(out_dir)]) == 0
        boundary = json.loads((out_dir / "domain.json").read_text())[
            "boundary"]
        assert boundary == [[-1.0], [1.0]]     # fold, then window

    @pytest.mark.parametrize("resolution", ["100", "128", "1024"])
    def test_the_other_branch_fold_is_left_out(self, resolution, tmp_path,
                                              capsys):
        out_dir = tmp_path / "out"
        assert main(["domain", "--problem", write(tmp_path, TWO_FOLD_DATA),
                     "--resolution", resolution, "--out", str(out_dir)]) == 0
        (fold,), window = json.loads(
            (out_dir / "domain.json").read_text())["boundary"]
        assert abs(fold + 4.0 / 3.0) <= 1e-8
        assert window == [1.0]

    def test_a_domain_bounded_by_two_folds(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["domain", "--problem",
                     write(tmp_path, TWO_SIDED_FOLD_DATA),
                     "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["area_of_mask"] == 2.0
        boundary = json.loads((out_dir / "domain.json").read_text())[
            "boundary"]
        assert boundary == [[-1.0], [1.0]]     # two folds, no window point

    def test_singular_json_has_the_fold(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["singular", "--problem", write(tmp_path, N0_FOLD_DATA),
                     "--format", "json", "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "sigma.json").read_text())
        assert doc["columns"] == ["t", "u", "kind"]
        ((t, u, kind),) = doc["rows"]
        assert type(t) is float and type(u) is float
        assert abs(t + 1.0) <= 1e-8 and abs(u) <= 1e-8
        assert kind == "sigma"
        assert not (out_dir / "sigma.csv").exists()

    @pytest.mark.parametrize("t, verdict", [("-0.5", "inside"),
                                            ("0.8", "inside"),
                                            ("-1.2", "outside")])
    def test_query(self, t, verdict, tmp_path, capsys):
        assert main(["query", "--problem", write(tmp_path, N0_FOLD_DATA),
                     f"--t={t}"]) == 0
        out = capsys.readouterr().out.split()
        assert out[0] == verdict
        if verdict == "inside":
            assert abs(float(out[1]) - (1.0 + float(t)) ** 0.5) <= 1e-8


class TestOutputDigests:
    """The numerical outputs of `domain` and `singular` at the default
    resolution, by sha256, as recorded at commit baf1d70 (x86-64, numpy
    2.4, OpenBLAS 0.3.31), and of `envelope` on the two conservation laws,
    as recorded at commit dc1b8b7.  `burgers_reciprocal`'s domain.json was
    recorded again when `domain` came to evaluate only the tiles that the
    initial set's flood reaches: its fold points moved by less than 1e-13.
    All four domain.json files, and the summary.json files of the three
    n = 1 problems, were recorded again when the window part of the
    boundary became the zeros of F on the box faces instead of the mask's
    staircase outline: the mask, its area and the fold points stayed byte
    for byte, the window points went from 2, 477, 423 and 468 to 2, 331,
    554 and 400 (ode_quadratic's u-window point from 0.90625 to 0.9).
    The domain.json and summary.json files of the three n = 1 problems
    were recorded again when the fold part became the polished sigma
    points themselves, with no polyline traced through them: the mask, its
    area, the window points and sigma.csv stayed byte for byte, the fold
    points went from 141, 119 and 117 to 114, 63 and 80 (circular,
    burgers_ramp, burgers_reciprocal), and summary.json's
    boundary_point_count with them.
    The verify.json files of all four, the report of the checks of the
    first integrals and of F, were recorded at commit 327fb4b.
    A refactor keeps them; a change that
    moves a number states that in CHANGES.md and records the new digests
    here.
    `--with-surface` is left out: its rows come from numpy interpolation
    on the grid."""

    DIGESTS = {
        "ode_quadratic": {
            "verify.json": "41ee1b71b88a2b9f0f113ab8c6c97c5cbbd2eba3febaf9c750661c188ca2e667",
            "domain.json": "ccb58cbe71144c8b63657c33ce87dbf89710bb1e1d4ed87ec9791b46fa748da4",
            "summary.json": "2789e22a2be1ba67eb8f21f56ee827ac351b3685e35a3141657e0d21abf7c4d6",
            "sigma.csv": "d863f542e4082df4e526d38999862afea92806e46256dc379d54e931ec6ecd00",
        },
        "circular": {
            "verify.json": "d59608f382128a828a3ab32827a39965294e6c84487ec70fb9d323c5f19669ac",
            "domain.json": "b23ef5c0e67c7e5ca72218626bd2b6bba23475b00b54e4994922e41583be3c72",
            "summary.json": "7460dc1f41c741334a364eddf5951233a87d53f38b78f6f9ae3223ac1d1098b8",
            "sigma.csv": "b55100a9e542162c61b930c40ba7f8c609193059f67fe5ab039787a10b313a72",
        },
        "burgers_ramp": {
            "verify.json": "8652c5e103c0f1a281f855a27768b8ebe4366b244a674284eb39d31816c4446d",
            "domain.json": "b84297cf538f354ebb923ceda920ca3db75b32fb8c3cbad97b84e092a4ccf3de",
            "summary.json": "d6b1ab2f5f774292c04c79d41c162ba8f7a265fb8d5679d3f5f9c9669460d0b5",
            "sigma.csv": "6608ea832591eb48dd53444dc9cbcb4fe29bbdca9b4406ed7e55a3451beaa5bc",
            "envelope.csv": "f6d0ed7547d1a34e6ddf2fb8a8ffd5ea69c192d2488c84c70b76e50cc1c2b8a0",
        },
        "burgers_reciprocal": {
            "verify.json": "122764c894f250a32ca02dc10e724a937c827ceeee4a0bc4a60d6722e97ebc13",
            "domain.json": "53e288b8aeaa19676ff377468f01673b34e45d7c402117d1894bc7fd9e6cc66f",
            "summary.json": "cc534181b78a478a2d2fb8c7518c848904384bee84bb0ee285c2ee45015f147d",
            "sigma.csv": "008c560e450a0e93ed3d614924d6889e1d8854185baaff5a1fab69817890b8f6",
            "envelope.csv": "48de1bfb7d711c86d37d8e1c69c8db6ba7084b7a2c7178126f6d7f0f25ec6ef2",
        },
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_outputs_match_the_recorded_digests(self, name, tmp_path,
                                                capsys):
        commands = ["verify", "domain", "singular"]
        if "envelope.csv" in self.DIGESTS[name]:
            commands.append("envelope")
        for command in commands:
            assert main([command, "--problem", problem_file(name),
                         "--out", str(tmp_path)]) == 0
        for file, digest in self.DIGESTS[name].items():
            got = hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            assert got == digest, (
                f"{name}: {file} is not byte-identical to the recorded "
                f"output (sha256 {got}); a change to numerical results must "
                "be stated in CHANGES.md, with the new digest recorded in "
                "TestOutputDigests")

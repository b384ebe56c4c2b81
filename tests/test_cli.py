import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import charmax
from charmax.cli import main


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

# X F = b = log(t) - log(t) is undefined wherever t <= 0, which is all of
# the box but t in (0, 0.001]
UNDEFINED_FLOW_DATA = {
    "n": 0, "alpha": "1", "b": "log(t) - log(t)", "h": "1",
    "box": {"t": [-1, 0.001], "u": [0, 2]}, "rho": ["u"], "f": "y1 - 1",
}

TWO_SPEED_DATA = {
    "n": 2, "alpha": "1", "a": ["u", "u^2"], "b": "0", "h": "x1 + x2",
    "s_range": [[-0.1, 0.1], [-0.1, 0.1]], "f": "y1 - y2 - y3",
    "box": {"t": [-1.0, 1.0], "x": [[-1.0, 1.0], [-1.0, 1.0]],
            "u": [-3.0, 3.0]},
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

    def test_alpha_vanishing_is_validation_error(self, tmp_path, capsys):
        doc = dict(CONSTANT_DATA, alpha="t")
        assert main(["verify", "--problem", write(tmp_path, doc),
                     "--out", str(tmp_path / "out")]) == 2
        assert "alpha vanishes" in capsys.readouterr().err


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
        assert main(["query", "--problem", problem_file("circular"),
                     "--t", "0.5"]) == 1


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

    def test_singular_json_has_the_fold(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["singular", "--problem", write(tmp_path, N0_FOLD_DATA),
                     "--format", "json", "--out", str(out_dir)]) == 0
        doc = json.loads((out_dir / "sigma.json").read_text())
        assert doc["columns"] == ["t", "u", "kind"]
        ((t, u, kind),) = doc["rows"]
        assert abs(float(t) + 1.0) <= 1e-8 and abs(float(u)) <= 1e-8
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
    2.4, OpenBLAS 0.3.31).  A refactor keeps them; a change that moves a
    number states that in CHANGES.md and records the new digests here.
    `--with-surface` is left out: its rows come from numpy interpolation
    on the grid."""

    DIGESTS = {
        "ode_quadratic": {
            "domain.json": "e160023f3e6e05c6f0614180eabc6e722e2f3f0f252db07a57e914e668bb1baa",
            "summary.json": "2789e22a2be1ba67eb8f21f56ee827ac351b3685e35a3141657e0d21abf7c4d6",
            "sigma.csv": "d863f542e4082df4e526d38999862afea92806e46256dc379d54e931ec6ecd00",
        },
        "circular": {
            "domain.json": "ef987f0bbe32741f5627a4a9fe818ecda6496cbe0975c3d3bddbbd9c2a690def",
            "summary.json": "2129855b859319b3937bdc8c07d501ae876ca42b98bb804c9346a05dbc3edaa8",
            "sigma.csv": "b55100a9e542162c61b930c40ba7f8c609193059f67fe5ab039787a10b313a72",
        },
        "burgers_ramp": {
            "domain.json": "92f668ebf1f5118440a58fb927b7c6742c492a2e20b36174195d0bc72cfafa9b",
            "summary.json": "e45e42b22bcd770d1c69b2e1cb6f6c0288ac52a8cccc42d0fa8a7bcbc913e9ea",
            "sigma.csv": "6608ea832591eb48dd53444dc9cbcb4fe29bbdca9b4406ed7e55a3451beaa5bc",
        },
        "burgers_reciprocal": {
            "domain.json": "fc82c0289a7fc60e8ca3e2ff3420a0ea53e0979669b56664c1a486e383aaec34",
            "summary.json": "91592edebe277c84bfb45f9a33759c2bd3206e08208e0ad40e3f160b73f2c650",
            "sigma.csv": "008c560e450a0e93ed3d614924d6889e1d8854185baaff5a1fab69817890b8f6",
        },
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_outputs_match_the_recorded_digests(self, name, tmp_path,
                                                capsys):
        for command in ("domain", "singular"):
            assert main([command, "--problem", problem_file(name),
                         "--out", str(tmp_path)]) == 0
        for file, digest in self.DIGESTS[name].items():
            got = hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
            assert got == digest, (
                f"{name}: {file} is not byte-identical to the recorded "
                f"output (sha256 {got}); a change to numerical results must "
                "be stated in CHANGES.md, with the new digest recorded in "
                "TestOutputDigests")

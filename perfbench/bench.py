"""The benchmark's operations on charmax, with their timings and checks.

Each operation is one CLI command or one point query on one bundled
problem.  An operation fails when it raises, exits non-zero or writes an
output that a check in ``checks`` rejects; failures are counted, never
retried.  With calibration on, the reference computation of hostspeed.py
is timed after every operation, and ``slowdown`` says how much slower
than the reference speed the host ran.  Outputs that are byte-identical to an already checked output are
not checked again, and a changed output for an unchanged command is a
failure (charmax promises byte-identical reruns).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

QUERIES_PER_PROBLEM = 400
CHARACTERISTIC_SAMPLES = 64
DUMP_RESOLUTION = {"ode_quadratic": 1024}   # 64 for the n = 1 problems
EVALUATE_BINDINGS = 64
EVALUATE_REPEATS = 50


class MissingProgram(Exception):
    """charmax's sources are not next to the benchmark."""


def load_charmax():
    """Import charmax from this checkout's src/, and from nowhere else."""
    package = SRC / "charmax"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no charmax package under {SRC}")
    sys.path.insert(0, str(SRC))
    import charmax
    if Path(charmax.__file__).resolve().parent != package.resolve():
        raise MissingProgram(f"charmax imported from {charmax.__file__}, "
                             f"not from {package}")
    return charmax


def query_points(face, seed: int, index: int,
                 count: int = QUERIES_PER_PROBLEM) -> np.ndarray:
    """``count`` uniform base points on the (t, x) face, in shuffled order.

    One point is drawn uniformly inside each cell of an even partition of
    the face (count cells in 1-D, sqrt(count)^2 in 2-D), which keeps the
    inside/outside mix, and so the latency tail, nearly fixed across seeds.
    """
    rng = np.random.default_rng([seed, index])
    side = count if len(face) == 1 else int(round(count ** 0.5))
    axes = np.meshgrid(*([np.arange(side)] * len(face)), indexing="ij")
    cells = np.stack([a.ravel() for a in axes], axis=1)
    frac = (cells + rng.random(cells.shape)) / side
    lows = np.array([lo for lo, _ in face])
    highs = np.array([hi for _, hi in face])
    points = lows + frac * (highs - lows)
    return points[rng.permutation(len(points))]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Problem:
    """One bundled problem: file, parsed bundle, implicit solution, inputs."""

    def __init__(self, charmax, name: str, index: int, seed: int):
        from charmax.integrals import implicit_solution_for_problem
        from charmax.problem import load_problem_bundle

        self.name = name
        self.index = index
        self.path = str(charmax.problem_path(name))
        self.doc = json.loads(Path(self.path).read_text())
        self.bundle = load_problem_bundle(self.path)
        _, self.sol = implicit_solution_for_problem(
            self.bundle.problem, self.bundle.data, self.bundle.rho,
            self.bundle.f)
        n = self.bundle.problem.n
        self.n = n
        self.points = query_points(self.bundle.problem.box.ranges[:n + 1],
                                   seed, index)
        self.law = None
        if name in checks.CONSERVATION_LAWS:
            from charmax.conslaw import ConservationLaw
            self.law = ConservationLaw.from_parts(self.bundle.problem.a[0],
                                                  self.bundle.data.h)


class Bench:
    """Runs operations, keeps their timings and counts their failures."""

    def __init__(self, charmax, workdir: Path, seed: int,
                 calibrate: bool = False):
        import charmax.cli  # noqa: F401  (the package does not import it)

        self.charmax = charmax
        self.calibrate = calibrate
        self.chunks: list[float] = []      # hostspeed.chunk_s() per operation
        self.workdir = workdir
        self.seed = seed
        self.tracer = None
        self.problems = {name: Problem(charmax, name, k, seed)
                         for k, name in enumerate(checks.PROBLEMS)}
        # (op, problem) -> seconds, ("latency", None) -> query ms
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict = {}              # (problem, file) -> sha256
        self.pole_vertices: dict = {}
        self.off_domain = defaultdict(int)   # see checks.off_domain
        self._checked: set = set()
        self._verdicts: dict = {}

    def run(self, op: str, name) -> float:
        """One operation; returns its wall time."""
        start = time.perf_counter()
        getattr(self, op)(name)
        secs = time.perf_counter() - start
        if self.calibrate:
            self.chunks.append(hostspeed.chunk_s())
        return secs

    def slowdown(self) -> float:
        """How many times slower than the reference speed the host ran
        this process's operations (1 without calibration)."""
        if not self.chunks:
            return 1.0
        return float(np.median(self.chunks)) / hostspeed.REFERENCE_S

    def take(self, key: tuple) -> list:
        """Remove and return the durations filed under ``key``."""
        return self.samples.pop(key, [])

    # -- plumbing -------------------------------------------------------------

    def _record(self, key: tuple, value: float) -> None:
        self.samples[key].append(value)

    def _fn(self, qualname: str):
        """A charmax function, traced when a tracer is installed."""
        module, name = qualname.split(".")
        fn = getattr(getattr(self.charmax, module), name)
        return self.tracer.entry(qualname, fn) if self.tracer else fn

    def _context(self, op: str, name: str) -> None:
        if self.tracer:
            self.tracer.op = op
            self.tracer.problem = name

    def _attempt(self, label: str, op) -> None:
        self.attempted += 1
        try:
            problems = op()
        except Exception:  # a crashing operation is a failed operation
            problems = [f"{label}: {traceback.format_exc()}"]
        if problems:
            self.failed += 1
            self.errors.extend(problems)

    def _cli(self, argv):
        main = self._fn("cli.main")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
        return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()

    def _outputs(self, name: str, files: dict, check) -> list[str]:
        """Record digests; run ``check`` unless these exact bytes passed."""
        key = []
        for fname, data in files.items():
            sha = digest(data)
            old = self.digests.setdefault((name, fname), sha)
            if old != sha:
                return [f"{name}: {fname} changed between identical runs"]
            key.append((name, fname, sha))
        key = tuple(key)
        if key in self._checked:
            return []
        problems = check()
        if not problems:
            self._checked.add(key)
        return problems

    def outdir(self, name: str) -> Path:
        return self.workdir / name

    # -- operations -----------------------------------------------------------

    def setup_probe(self, name=None) -> None:
        """One cold set-up of all problems in a fresh interpreter (see
        setup_probe.py), filed at the reference speed measured in that
        interpreter; ``name`` is unused."""
        import subprocess

        def op():
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
                 str(SRC)], capture_output=True, text=True, timeout=120,
                cwd=ROOT)
            if proc.returncode != 0:
                return [f"setup probe exit {proc.returncode}: {proc.stderr}"]
            setup, chunk = map(float, proc.stdout.split()[-2:])
            if self.calibrate:
                setup *= hostspeed.REFERENCE_S / chunk
            self.samples[("setup", None)].append(setup)
            return []
        self._attempt("setup", op)

    def domain(self, name: str) -> None:
        p = self.problems[name]
        self._context("domain", name)

        def op():
            out = self.outdir(name)
            secs, rc, _, err = self._cli(["domain", "--problem", p.path,
                                          "--out", str(out)])
            if rc != 0:
                return [f"domain {name}: exit {rc}: {err.strip()}"]
            self._record(("domain", name), secs)
            files = {f: (out / f).read_bytes()
                     for f in ("domain.json", "summary.json")}
            return self._outputs(name, files, lambda: checks.check_domain(
                name, p.doc["box"], files["domain.json"].decode(),
                files["summary.json"].decode()))
        self._attempt(f"domain {name}", op)

    def query(self, name: str) -> None:
        """All of the problem's query points, one closed-loop caller; files
        each query's milliseconds and their sum in seconds."""
        p = self.problems[name]
        self._context("query", name)
        contains = self._fn("domain.contains")
        problem, data, sol = p.bundle.problem, p.bundle.data, p.sol
        first = self._verdicts.get(name)
        record = []
        total = 0.0
        for i, q in enumerate(p.points):
            self.attempted += 1
            start = time.perf_counter()
            try:
                v = contains(problem, data, sol, q)
            except Exception:  # a crashing query is a failed query
                self.failed += 1
                self.errors.append(f"query {name} {q.tolist()}: "
                                   f"{traceback.format_exc()}")
                record.append(None)
                continue
            secs = time.perf_counter() - start
            total += secs
            self._record(("latency", None), secs * 1e3)
            record.append((v.kind, v.u))
            if first is None:
                origin = checks.query_start(q, p.doc.get("s_range", [0, 0]))
                problems = checks.check_verdict(name, origin, q, v.kind, v.u)
                self.off_domain[name] += checks.off_domain(name, origin, q,
                                                          v.kind)
            elif first[i] != record[-1]:
                problems = [f"{name}: verdict at {q.tolist()} changed from "
                            f"{first[i]} to {record[-1]}"]
            else:
                problems = []
            if problems:
                self.failed += 1
                self.errors.extend(problems)
        self._record(("query", name), total)
        self._verdicts.setdefault(name, record)

    def singular(self, name: str) -> None:
        p = self.problems[name]
        self._context("singular", name)
        res = DUMP_RESOLUTION.get(name, 64)

        def op():
            out = self.outdir(name)
            secs, rc, _, err = self._cli([
                "singular", "--with-surface", "--resolution", str(res),
                "--problem", p.path, "--out", str(out)])
            if rc != 0:
                return [f"singular {name}: exit {rc}: {err.strip()}"]
            self._record(("singular", name), secs)
            data = (out / "sigma.csv").read_bytes()

            def check():
                problems, pole = checks.check_points(
                    name, p.doc["box"], res, data.decode())
                self.pole_vertices[name] = pole
                return problems
            return self._outputs(name, {"sigma.csv": data}, check)
        self._attempt(f"singular {name}", op)

    def characteristics(self, name: str) -> None:
        p = self.problems[name]
        self._context("characteristics", name)

        def op():
            out = self.outdir(name) / "characteristics"
            secs, rc, _, err = self._cli([
                "characteristics", "--samples", str(CHARACTERISTIC_SAMPLES),
                "--problem", p.path, "--out", str(out)])
            if rc != 0:
                return [f"characteristics {name}: exit {rc}: {err.strip()}"]
            self._record(("characteristics", name), secs)
            expect = 1 if p.n == 0 else CHARACTERISTIC_SAMPLES
            paths = sorted(out.glob("characteristic_*.csv"))
            if len(paths) != expect:
                return [f"characteristics {name}: {len(paths)} curves, "
                        f"expected {expect}"]
            texts = [path.read_text() for path in paths]
            return self._outputs(
                name, {"characteristics": "".join(texts).encode()},
                lambda: [e for t in texts
                         for e in checks.check_characteristic(name, t)])
        self._attempt(f"characteristics {name}", op)

    def verify(self, name: str) -> None:
        """verify, plus envelope and blowup_time on conservation laws."""
        p = self.problems[name]
        self._context("verify", name)

        def op():
            out = self.outdir(name)
            secs, rc, _, err = self._cli(["verify", "--problem", p.path,
                                          "--out", str(out)])
            if rc != 0:
                return [f"verify {name}: exit {rc}: {err.strip()}"]
            files = {"verify.json": (out / "verify.json").read_bytes()}
            checks_to_run = [lambda: checks.check_verify(
                name, files["verify.json"].decode())]
            if p.law is not None:
                more, rc, _, err = self._cli(["envelope", "--problem", p.path,
                                              "--out", str(out)])
                if rc != 0:
                    return [f"envelope {name}: exit {rc}: {err.strip()}"]
                secs += more
                blowup_time = self._fn("conslaw.blowup_time")
                s_range = p.bundle.data.interval
                start = time.perf_counter()
                tstar = blowup_time(p.law, s_range)
                secs += time.perf_counter() - start
                files["envelope.csv"] = (out / "envelope.csv").read_bytes()
                files["blowup_time"] = repr(tstar).encode()
                checks_to_run += [
                    lambda: checks.check_envelope(
                        name, files["envelope.csv"].decode(), s_range),
                    lambda: checks.check_blowup(name, tstar, s_range)]
            self._record(("verify", name), secs)
            return self._outputs(name, files, lambda: [
                e for c in checks_to_run for e in c()])
        self._attempt(f"verify {name}", op)

    def evaluate_us(self, name: str) -> float:
        """Median microseconds of one scalar evaluate(F) over random box
        bindings (bindings where F is undefined are skipped)."""
        from charmax.expr import EvalDomainError, evaluate, var_names

        p = self.problems[name]
        box = p.bundle.problem.box
        rng = np.random.default_rng([self.seed, len(checks.PROBLEMS) + p.index])
        names = var_names(p.n)
        per_call = []
        while len(per_call) < EVALUATE_BINDINGS:
            point = box.lows() + rng.random(p.n + 2) * (box.highs() - box.lows())
            binding = dict(zip(names, point.tolist()))
            try:
                evaluate(p.sol.F, binding)
            except EvalDomainError:
                continue
            start = time.perf_counter()
            for _ in range(EVALUATE_REPEATS):
                evaluate(p.sol.F, binding)
            per_call.append((time.perf_counter() - start) / EVALUATE_REPEATS)
        return float(np.median(per_call)) * 1e6


def machine_record(charmax) -> dict:
    """Where and with what the numbers were measured."""
    from charmax import characteristics

    cap = getattr(characteristics, "_thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "charmax_threads_env": os.environ.get("CHARMAX_THREADS"),
        "thread_cap": cap() if cap else None,
        "loadavg": list(os.getloadavg()),
    }

"""charmax benchmark: one closed-loop caller, one process, two workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload domain|query --seed N \
        --seconds S --trace 0|1

The operations come in three groups:

- ``domain``: ``charmax domain`` on the four bundled problems at the CLI
  default resolution (1024 for n = 0, 128 for n = 1);
- ``query``: ``domain.contains`` on 400 seeded base points per problem;
- ``dump``: ``singular --with-surface`` (resolution 64, 1024 for n = 0),
  ``characteristics --samples 64``, ``verify``, and on the two
  conservation laws ``envelope`` plus ``conslaw.blowup_time``.

With ``--trace 0`` a workload runs passes over its own group only, until
the next operation would end after ``--seconds``, and prints the
end-to-end metrics: the same names for both workloads, each the time of
one of that workload's operations (see run_workload), divided by how
much slower than a reference speed the host ran (see hostspeed.py).
With ``--trace 1`` it first runs two untraced ``domain`` passes, then
one round of every group and then its own group, tracing calls between
layers (see spans.py), and prints the per-layer metrics, in wall time.
Set-up is timed in fresh interpreters (setup_probe.py).  The last stdout
line is the result JSON.  The exit code is 0 when every output was
correct, 1 when a check failed, and 2 when charmax's sources are
missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from bench import ROOT, Bench, MissingProgram, load_charmax, machine_record  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

# operation groups; a workload runs its own group
GROUPS = {
    "domain": ("domain",),
    "query": ("query",),
    "dump": ("singular", "characteristics", "verify"),
}
WORKLOADS = ("domain", "query")
SETUP_PROBES = 5
MIN_OP_S = 1.0
BENCH_DIR = Path(__file__).resolve().parent
P = checks.PROBLEMS
LAWS = checks.CONSERVATION_LAWS

END_TO_END = (
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_share", "share"),
     ("pass_s", "s")]
    + [(f"pass_s.{p}", "s") for p in P])

_PER_PROBLEM = (
    ("locus.extract_surface_s", "s"), ("expr.evaluate_grid_s", "s"),
    ("locus.crossing_cells", "count"),
    ("locus.extract_singular_locus_s", "s"),
    ("locus.sigma_seed_cells", "count"), ("locus.sigma_points", "count"),
    ("locus.sigma_dropped", "count"), ("locus.sigma_polyline_points", "count"),
    ("locus.sigma_yield", "ratio"),
    ("locus.split_component_s", "s"), ("locus.component_cells", "count"),
    ("domain.maximal_domain_s", "s"), ("domain.to_json_s", "s"),
    ("domain.mask_cells", "count"), ("domain.boundary_points", "count"),
    ("expr.evaluate_us", "us"),
    ("domain.contains_ms.inside", "ms"), ("domain.contains_ms.outside", "ms"),
    ("domain.verdicts.inside", "share"),
    ("characteristics.strip_s", "s"), ("characteristics.steps", "count"),
    ("locus.points_csv_s", "s"), ("locus.patch_vertices", "count"),
    ("integrals.implicit_solution_s", "s"), ("integrals.verify_s", "s"))
PER_LAYER = (
    [(f"{m}.{p}", u) for m, u in _PER_PROBLEM for p in P]
    + [(f"{m}.{p}", "s") for m in ("conslaw.envelope_s",
                                   "conslaw.blowup_time_s") for p in LAWS]
    + [("locus.excluded_cells", "count"), ("locus.sigma_degenerate", "count"),
       ("locus.pole_vertices", "count"), ("domain.verdicts.outside", "share"),
       ("domain.verdicts.boundary", "share"),
       ("domain.verdicts.off_domain", "count"),
       ("characteristics.span_end", "count"),
       ("characteristics.left_box", "count"),
       ("characteristics.step_failure", "count"),
       ("characteristics.errors", "count"),
       ("cli.singular_s", "s"), ("cli.characteristics_s", "s"),
       ("cli.verify_s", "s"), ("cli.residual_s", "s"),
       ("trace.overhead_s", "s")]
    + [(f"self_s.{layer}", "s") for layer in LAYERS])

# ROADMAP's hand-measured baseline for burgers_reciprocal at resolution 128
ROADMAP_COUNTS = {"crossing_cells": 63707, "sigma_seed_cells": 1463,
                  "sigma_points": 80, "sigma_dropped": 2}
ROADMAP_TIMES = {"extract_surface_s": 4.7, "extract_singular_locus_s": 1.0,
                 "contains_ms": 2.3}


# ---------------------------------------------------------------------------
# running

def _ops(group: str):
    return [(op, name) for name in P for op in GROUPS[group]]


def run_workload(bench: Bench, workload: str, deadline: float,
                 first=(), after_first=None) -> None:
    """The workload's own operations and those in ``first`` once each,
    then passes over the own ones until the next operation would end after
    ``deadline``.  A pass runs each problem's operation once, or, when it
    is cheaper than MIN_OP_S, as often as fits in MIN_OP_S, so that cheap
    operations get enough samples for a steady median.  A query operation
    is all of a problem's points, so the latency mix stays fixed."""
    own = _ops(workload)
    cost = {op: bench.run(*op) for op in own + [op for op in first
                                                if op not in own]}
    if after_first:
        after_first()
    one_pass = [op for op in own
                for _ in range(max(1, int(MIN_OP_S / cost[op])))]
    for op in itertools.cycle(one_pass):
        if time.perf_counter() + cost[op] > deadline:
            return
        cost[op] = bench.run(*op)


def _median(values) -> float:
    return float(statistics.median(values))


def end_to_end(bench: Bench, samples: dict, workload: str) -> dict:
    """The end-to-end metrics from the duration ``samples``: ``pass_s`` is
    one pass over the workload's operations on the four problems, the sum
    of the per-problem medians ``pass_s.<problem>``, at the reference host
    speed (set-up probes scale their own times)."""
    slowdown = bench.slowdown()
    parts = {p: _median(samples[(workload, p)]) / slowdown for p in P}
    return {
        "setup_s": _median(samples[("setup", None)]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (bench.attempted - bench.failed) / bench.attempted,
        "pass_s": sum(parts.values()),
        **{f"pass_s.{p}": parts[p] for p in P},
    }


def _span_median(tracer, name, op, problem, under=None) -> float:
    """Median over ``op`` operations on ``problem`` of the summed duration
    of their ``name`` spans (only those whose parent is an ``under`` span)."""
    parents = None
    if under:
        parents = {sp[0] for sp in tracer.spans_named(under, problem)}
    per_op: dict = {}
    for sp in tracer.spans_named(name, problem):
        if sp[6] == op and (parents is None or sp[4] in parents):
            per_op[sp[9]] = per_op.get(sp[9], 0.0) + (sp[3] - sp[2])
    return _median(per_op.values()) if per_op else 0.0


def _counts(tracer, name, problem, op) -> dict:
    for sp in reversed(tracer.spans_named(name, problem)):
        if sp[6] == op and sp[8]:
            return sp[8]
    return {}


def per_layer(bench: Bench, tracer: Tracer, untraced: dict,
              first_round_self: dict, evaluate_us: dict) -> dict:
    v = {}
    boundary = outside = queried = 0
    for p in P:
        surf = _counts(tracer, "locus.extract_surface", p, "domain")
        sig = _counts(tracer, "locus.extract_singular_locus", p, "domain")
        comp = _counts(tracer, "locus.split_component", p, "domain")
        dom = _counts(tracer, "domain.maximal_domain", p, "domain")
        v[f"locus.extract_surface_s.{p}"] = _span_median(
            tracer, "locus.extract_surface", "domain", p)
        v[f"expr.evaluate_grid_s.{p}"] = _span_median(
            tracer, "expr.evaluate_grid", "domain", p,
            under="locus.extract_surface")
        v[f"locus.crossing_cells.{p}"] = surf["crossing_cells"]
        v[f"locus.extract_singular_locus_s.{p}"] = _span_median(
            tracer, "locus.extract_singular_locus", "domain", p)
        v[f"locus.sigma_seed_cells.{p}"] = sig["seed_cells"]
        v[f"locus.sigma_points.{p}"] = sig["points"]
        v[f"locus.sigma_dropped.{p}"] = sig["dropped"]
        v[f"locus.sigma_polyline_points.{p}"] = sig["polyline_points"]
        v[f"locus.sigma_yield.{p}"] = (sig["points"] / sig["seed_cells"]
                                       if sig["seed_cells"] else 0.0)
        v[f"locus.split_component_s.{p}"] = _span_median(
            tracer, "locus.split_component", "domain", p)
        v[f"locus.component_cells.{p}"] = comp["cells"]
        v[f"domain.maximal_domain_s.{p}"] = _span_median(
            tracer, "domain.maximal_domain", "domain", p)
        v[f"domain.to_json_s.{p}"] = _span_median(
            tracer, "domain.MaximalDomain.to_json", "domain", p)
        v[f"domain.mask_cells.{p}"] = dom["mask_cells"]
        v[f"domain.boundary_points.{p}"] = dom["boundary_points"]
        v[f"expr.evaluate_us.{p}"] = evaluate_us[p]

        queries = [sp for sp in tracer.spans_named("domain.contains", p)
                   if sp[6] == "query"]
        first_pass = queries[:len(bench.problems[p].points)]
        boundary += sum(sp[8]["verdict"] == "boundary" for sp in first_pass)
        queried += len(first_pass)
        for kind in ("inside", "outside"):
            ms = [(sp[3] - sp[2]) * 1e3 for sp in queries
                  if sp[8]["verdict"] == kind]
            v[f"domain.contains_ms.{kind}.{p}"] = _median(ms) if ms else 0.0
        v[f"domain.verdicts.inside.{p}"] = sum(
            sp[8]["verdict"] == "inside" for sp in first_pass) / len(first_pass)
        outside += sum(sp[8]["verdict"] == "outside" for sp in first_pass)

        strip = _counts(tracer, "characteristics.characteristic_strip", p,
                        "characteristics")
        v[f"characteristics.strip_s.{p}"] = _span_median(
            tracer, "characteristics.characteristic_strip", "characteristics", p)
        v[f"characteristics.steps.{p}"] = strip["steps"]
        v[f"locus.points_csv_s.{p}"] = _span_median(
            tracer, "locus.points_csv", "singular", p)
        v[f"locus.patch_vertices.{p}"] = _counts(
            tracer, "locus.points_csv", p, "singular")["surface_vertices"]
        v[f"integrals.implicit_solution_s.{p}"] = _median(
            [sp[3] - sp[2] for sp in tracer.spans_named(
                "integrals.implicit_solution_for_problem", p)])
        v[f"integrals.verify_s.{p}"] = (
            _span_median(tracer, "integrals.verify_first_integral", "verify", p)
            + _span_median(tracer, "integrals.check_nondegeneracy", "verify", p))
    for p in LAWS:
        v[f"conslaw.envelope_s.{p}"] = _span_median(
            tracer, "conslaw.envelope", "verify", p)
        v[f"conslaw.blowup_time_s.{p}"] = _span_median(
            tracer, "conslaw.blowup_time", "verify", p)

    v["locus.excluded_cells"] = sum(
        _counts(tracer, "locus.extract_surface", p, "domain")["excluded_cells"]
        for p in P)
    v["locus.sigma_degenerate"] = sum(
        _counts(tracer, "locus.extract_singular_locus", p, "domain")["degenerate"]
        for p in P)
    v["locus.pole_vertices"] = sum(bench.pole_vertices.values())
    v["domain.verdicts.outside"] = outside / queried
    v["domain.verdicts.boundary"] = boundary / queried
    v["domain.verdicts.off_domain"] = sum(bench.off_domain.values())
    for key in ("span_end", "left_box", "step_failure", "errors"):
        v[f"characteristics.{key}"] = sum(
            _counts(tracer, "characteristics.characteristic_strip", p,
                    "characteristics")[key] for p in P)
    for op in ("singular", "characteristics", "verify"):
        v[f"cli.{op}_s"] = sum(_median(bench.samples[(op, p)]) for p in P)
    v["cli.residual_s"] = sum(
        _median([sp[7] for sp in tracer.spans_named("cli.main", p)
                 if sp[6] == "domain"]) for p in P)
    traced_domain = sum(_median(bench.samples[("domain", p)]) for p in P)
    v["trace.overhead_s"] = traced_domain - sum(
        _median(untraced[p]) for p in P)
    for layer in LAYERS:
        v[f"self_s.{layer}"] = sum(
            t for (lay, _), t in first_round_self.items() if lay == layer)
    return v


OBSERVERS = {
    "locus.extract_surface": lambda s: {
        "crossing_cells": len(s.cells),
        "excluded_cells": len(s.excluded_cells)},
    "locus.extract_singular_locus": lambda s: {
        "seed_cells": len(s.seed_cells), "points": len(s.points),
        "dropped": int(s.dropped),
        "degenerate": int(np.count_nonzero(s.degenerate)),
        "polyline_points": sum(len(line) for line in s.polylines)},
    "locus.split_component": lambda c: {"cells": len(c.cells)},
    "domain.maximal_domain": lambda d: {
        "mask_cells": int(np.count_nonzero(d.mask)),
        "boundary_points": sum(len(b.points) for b in d.boundary)},
    "domain.contains": lambda v: {"verdict": v.kind},
    "characteristics.characteristic_strip": lambda s: {
        "steps": sum(len(c.taus) - 1 for c in s.curves if c is not None),
        **{kind: sum(1 for c in s.curves
                     if c is not None and c.termination == kind)
           for kind in ("span_end", "left_box", "step_failure")},
        "errors": len(s.errors)},
    "locus.points_csv": lambda text: {
        "surface_vertices": text.count(",surface\n")},
}


# ---------------------------------------------------------------------------
# reporting

def result_line(correct: bool, bench: Bench, values: dict, spec) -> str:
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec if name in values}
    return json.dumps({"correct": correct, "attempted": bench.attempted,
                       "failed": bench.failed, "metrics": metrics})


def roadmap_lines(values: dict, bench: Bench) -> list[str]:
    p = "burgers_reciprocal"
    counts = ", ".join(
        f"{k} {values[f'locus.{k}.{p}']} (roadmap {want})"
        for k, want in ROADMAP_COUNTS.items())
    ms = bench.samples[("latency", None)]
    return [
        f"roadmap {p}@128 counts: {counts}",
        f"roadmap {p}@128 times: extract_surface "
        f"{values[f'locus.extract_surface_s.{p}']:.3f} s (roadmap "
        f"{ROADMAP_TIMES['extract_surface_s']} s), extract_singular_locus "
        f"{values[f'locus.extract_singular_locus_s.{p}']:.3f} s (roadmap "
        f"{ROADMAP_TIMES['extract_singular_locus_s']} s), traced contains mean "
        f"{statistics.fmean(ms):.3f} ms over {len(ms)} queries (roadmap "
        f"{ROADMAP_TIMES['contains_ms']} ms)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    try:
        charmax = load_charmax()
    except MissingProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_record(charmax), sort_keys=True))

    workdir = BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(charmax, workdir, args.seed, calibrate=not args.trace)
        deadline = start + args.seconds
        if args.trace:
            spec, measure = PER_LAYER, _traced(bench, charmax, args, deadline)
        else:
            for _ in range(SETUP_PROBES):
                bench.run("setup_probe", None)
            run_workload(bench, args.workload, deadline)
            spec = END_TO_END

            def measure():
                return end_to_end(bench, bench.samples, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for (name, fname), sha in sorted(bench.digests.items()):
        print(f"digest {name} {fname} {sha}")
    if bench.chunks:
        print(f"host slowdown against the reference speed: "
              f"{bench.slowdown():.4f} (reference computation timed "
              f"{len(bench.chunks)} times); end-to-end times are divided "
              f"by it")
    print(f"inside points not answered inside because their path meets "
          f"the fold (see checks.off_domain): {dict(bench.off_domain)}")
    for err in bench.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = bench.failed == 0
    try:
        values = measure()
    except (KeyError, IndexError, ValueError, ZeroDivisionError):
        if correct:
            raise
        values = {}  # failed operations left metrics without samples
    print(result_line(correct, bench, values, spec))
    return 0 if correct else 1


def _traced(bench: Bench, charmax, args, deadline: float):
    """Run the workload traced; returns the per-layer metric computation."""
    evaluate_us = {p: bench.evaluate_us(p) for p in P}
    # the first pass in a process pays one-off allocation costs, so the
    # untraced reference is the second of two passes
    for _ in range(2):
        for p in P:
            bench.run("domain", p)
    untraced = {p: bench.take(("domain", p))[1:] for p in P}
    tracer = Tracer(OBSERVERS)
    first_round_self = {}
    tracer.install(charmax)
    bench.tracer = tracer
    try:
        # one round of every group, so that every per-layer metric gets a
        # sample; they have no bound to meet
        run_workload(bench, args.workload, deadline,
                     first=[op for group in GROUPS for op in _ops(group)],
                     after_first=lambda: first_round_self.update(
                         tracer.layer_self))
    finally:
        tracer.uninstall()
        bench.tracer = None
    traces = BENCH_DIR / ".traces"
    traces.mkdir(exist_ok=True)
    out = traces / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(out)
    print(f"spans written to {out.relative_to(ROOT)}")

    def measure():
        values = per_layer(bench, tracer, untraced, first_round_self,
                           evaluate_us)
        for line in roadmap_lines(values, bench):
            print(line)
        return values
    return measure


if __name__ == "__main__":
    sys.exit(main())

"""charmax: batch front-end for the analytic-extension pipeline.

Subcommands: verify, domain, query, characteristics, singular, envelope.
One problem file drives everything; outputs are plot-ready CSV/JSON dumps.
Exit codes: 0 success, 1 I/O or parse error, 2 validation or convergence
failure, or a surface requested for n >= 2.  Identical config and problem
file give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import conslaw
from .characteristics import characteristic_strip
from .domain import (PathLeftWindowError, ProjectionError, contains,
                     maximal_domain)
from .expr import Const, EvalDomainError, ParseError, to_str
from .integrals import (FirstIntegralError, ImplicitSolutionError,
                        implicit_solution_for_problem)
from .locus import (ResolutionError, extract_singular_locus, extract_surface,
                    points_csv, split_component)
from .problem import (SchemaError, ValidationError, characteristic_field,
                      initial_set_samples, load_problem_bundle)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2

GRAMMAR_NOTE = (
    "Expression grammar: + - * / ^ (all left-associative, ^ strongest and "
    "binding tighter than unary minus, so -x^2 means -(x^2)); functions "
    "exp, log, sin, cos, sqrt; variables t, x1..xn, u (x aliases x1 when "
    "n = 1)."
)


def _resolution(args, n: int) -> int:
    """``--resolution`` as given, 0 included, else 1024 for n = 0 and 128
    for n >= 1."""
    if args.resolution is not None:
        return args.resolution
    return 1024 if n == 0 else 128


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _json_cell(text: str):
    """A CSV cell as a JSON number, null when it is not finite (JSON has no
    NaN or infinity), or a string when it is not a number (the ``kind``
    column)."""
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else None


def _csv_to_json(text: str) -> str:
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    rows = [[_json_cell(v) for v in line.split(",")] for line in lines[1:]]
    return json.dumps({"columns": header, "rows": rows}, sort_keys=True,
                      allow_nan=False)


def _dump(out_dir: Path, stem: str, csv_text: str, fmt: str) -> Path:
    if fmt == "json":
        return _write(out_dir, f"{stem}.json", _csv_to_json(csv_text))
    return _write(out_dir, f"{stem}.csv", csv_text)


def _solution(bundle):
    return implicit_solution_for_problem(bundle.problem, bundle.data,
                                         bundle.rho, bundle.f)


def cmd_verify(args) -> int:
    bundle = load_problem_bundle(args.problem)
    rho_set, sol = _solution(bundle)
    print(f"first integrals ({rho_set.provenance}):")
    for r, rep in zip(rho_set.rho, rho_set.reports, strict=True):
        print(f"  rho = {to_str(r)}: max |X rho| = {rep.max_residual!r}")
    ndg = rho_set.nondegeneracy
    print(f"nondegeneracy: min singular value {ndg.min_singular_value!r}")
    print(f"F = {to_str(sol.F)}")
    checks = sol.checks
    print(f"F vanishes on the initial set at {len(sol.gamma_samples)} "
          f"samples: max |F| = {checks.max_abs_F_on_gamma!r}")
    print(f"F_u nondegenerate on the initial set: "
          f"min |F_u| = {checks.min_abs_F_u_on_gamma!r}")
    print(f"zero set flow-invariant at {checks.flow_points_checked} points "
          f"({checks.flow_points_projected} surface points projected in "
          f"{checks.flow_draws} draws): max |XF| / scale = "
          f"{checks.max_flow_residual!r}")
    doc = {"rho": [json.loads(r.to_json()) for r in rho_set.reports],
           "min_singular_value": ndg.min_singular_value,
           "nondegeneracy_excluded": len(ndg.excluded),
           "F": to_str(sol.F), **dataclasses.asdict(checks)}
    _write(Path(args.out), "verify.json", json.dumps(doc, sort_keys=True))
    print("PASS")
    return EXIT_OK


def cmd_domain(args) -> int:
    bundle = load_problem_bundle(args.problem)
    _, sol = _solution(bundle)
    surface = extract_surface(sol.F_and_Fu_rows, bundle.problem.box,
                              _resolution(args, bundle.problem.n),
                              sol.gamma_samples)
    sigma = extract_singular_locus(sol, surface)
    component = split_component(surface, sigma, sol.gamma_samples)
    dom = maximal_domain(sol, component, sigma)

    out_dir = Path(args.out)
    _write(out_dir, "domain.json", dom.to_json())
    boundary_points = sum(len(b.points) for b in dom.boundary)
    summary = {
        "area_of_mask": dom.mask_area(),
        "boundary_point_count": boundary_points,
        "sigma_point_count": int(len(sigma.points)),
    }
    _write(out_dir, "summary.json", json.dumps(summary, sort_keys=True))
    print(f"mask area {summary['area_of_mask']!r}, "
          f"{boundary_points} boundary points, "
          f"{len(sigma.points)} sigma points")
    return EXIT_OK


def cmd_query(args) -> int:
    bundle = load_problem_bundle(args.problem)
    _, sol = _solution(bundle)
    n = bundle.problem.n
    if args.t is None:
        print("query needs --t (and --x when n >= 1)", file=sys.stderr)
        return EXIT_IO
    if n >= 1 and args.x is None:
        print("query needs --x for this problem", file=sys.stderr)
        return EXIT_IO
    if n == 0 and args.x is not None:
        raise ValueError("query takes no --x: the problem has n = 0")
    q = [args.t] + ([args.x] if n >= 1 else [])
    verdict = contains(bundle.problem, bundle.data, sol, q)
    print(str(verdict))
    return EXIT_OK


def cmd_characteristics(args) -> int:
    bundle = load_problem_bundle(args.problem)
    problem, data = bundle.problem, bundle.data
    fld = characteristic_field(problem)
    seeds = initial_set_samples(data, args.samples)
    span = (0.0, args.span)
    strip = characteristic_strip(fld, seeds, span, tol=args.tol,
                                 box=problem.box)
    out_dir = Path(args.out)
    written = 0
    for i, curve in enumerate(strip.curves):
        if curve is None:
            continue
        _dump(out_dir, f"characteristic_{i:03d}", curve.to_csv(), args.format)
        written += 1
    for idx, err in strip.errors:
        print(f"seed {idx}: {err}", file=sys.stderr)
    print(f"wrote {written} characteristic curves")
    return EXIT_OK if not strip.errors else EXIT_VALIDATION


def cmd_singular(args) -> int:
    bundle = load_problem_bundle(args.problem)
    _, sol = _solution(bundle)
    surface = extract_surface(sol.F_and_Fu_rows, bundle.problem.box,
                              _resolution(args, bundle.problem.n))
    sigma = extract_singular_locus(sol, surface)

    text = points_csv(surface, sigma, with_surface=args.with_surface)
    _dump(Path(args.out), "sigma", text, args.format)
    print(f"{len(sigma.points)} sigma points "
          f"({int(np.count_nonzero(sigma.degenerate))} degenerate, "
          f"{sigma.dropped} seeds dropped)")
    return EXIT_OK


def cmd_envelope(args) -> int:
    bundle = load_problem_bundle(args.problem)
    problem, data = bundle.problem, bundle.data
    if problem.n != 1 or problem.alpha != Const(1.0) or problem.b != Const(0.0):
        print("envelope needs a 1-D conservation-law problem "
              "(alpha = 1, b = 0, a = a(u))", file=sys.stderr)
        return EXIT_VALIDATION
    law = conslaw.ConservationLaw.from_parts(problem.a[0], data.h)
    curve = conslaw.envelope(law, data.s_range[0], args.samples)
    _dump(Path(args.out), "envelope", curve.to_csv(law), args.format)
    print(f"wrote {len(curve)} envelope samples")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="charmax",
        description="Maximal single-valued extension domains for first-order "
                    "quasi-linear Cauchy problems.",
        epilog=GRAMMAR_NOTE)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True, fmt=False, resolution=False):
        p.add_argument("--problem", required=True, help="problem file (JSON)")
        if out:
            p.add_argument("--out", default="out", help="output directory")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if resolution:
            p.add_argument("--resolution", type=int, default=None,
                           help="cells per axis (default 1024 for n=0, "
                                "128 for n=1)")

    common(sub.add_parser("verify", help="check first integrals and F"))
    common(sub.add_parser("domain", help="extract the maximal domain"),
           resolution=True)
    q = sub.add_parser("query", help="classify one base point")
    common(q, out=False)
    q.add_argument("--t", type=float, default=None)
    q.add_argument("--x", type=float, default=None)
    c = sub.add_parser("characteristics", help="dump characteristic curves")
    common(c, fmt=True)
    c.add_argument("--samples", type=int, default=9)
    c.add_argument("--span", type=float, default=10.0)
    c.add_argument("--tol", type=float, default=1e-10)
    s = sub.add_parser("singular", help="dump the singular locus")
    common(s, fmt=True, resolution=True)
    s.add_argument("--with-surface", action="store_true",
                   help="also dump the surface: the zero of F on each "
                        "cut grid edge")
    e = sub.add_parser("envelope", help="dump the characteristic envelope")
    common(e, fmt=True)
    e.add_argument("--samples", type=int, default=201)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "domain": cmd_domain,
    "query": cmd_query,
    "characteristics": cmd_characteristics,
    "singular": cmd_singular,
    "envelope": cmd_envelope,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, SchemaError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ValidationError, FirstIntegralError, ImplicitSolutionError,
            ResolutionError, ProjectionError, PathLeftWindowError,
            EvalDomainError, ValueError, NotImplementedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError:
        if getattr(args, "resolution", None) is None:
            raise
        print(f"error: --resolution {args.resolution} needs more memory than "
              "is available; give a smaller one", file=sys.stderr)
        return EXIT_VALIDATION


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()

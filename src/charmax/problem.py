"""Cauchy problems for first-order quasi-linear PDEs.

A problem is alpha*u_t + sum_k a_k*u_{x_k} = b with initial data
u(0, x) = h(x) on a parameter range, all coefficients given as analytic
expressions over (t, x1..xn, u).  Everything downstream works relative to
an explicit computational box, since the zero set of the implicit solution
may be unbounded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .expr import (EvalDomainError, Expr, ParseError, evaluate,
                   evaluate_grid, parse, var_names, variables)

ALPHA_LATTICE_POINTS = 17  # per axis, for the nonvanishing check
GAMMA_CHECK_SAMPLES = 33


class SchemaError(Exception):
    """Problem file is structurally wrong (missing/ill-typed/unparsable)."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class ValidationError(Exception):
    """Problem file parsed but violates a semantic requirement."""


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned box in (t, x1..xn, u) coordinates."""

    t: tuple[float, float]
    x: tuple[tuple[float, float], ...]
    u: tuple[float, float]

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.t, *self.x, self.u)

    def lows(self) -> np.ndarray:
        return np.array([r[0] for r in self.ranges])

    def highs(self) -> np.ndarray:
        return np.array([r[1] for r in self.ranges])

    def contains(self, point, atol: float = 0.0):
        """Whether the point lies in the box widened by ``atol``; for an
        (m, dim) array of points, the (m,) mask.  One point is tested in
        Python floats, ``lo - atol <= v <= hi + atol`` per coordinate: the
        same roundings and comparisons as the array test, without its
        numpy calls."""
        p = np.asarray(point, dtype=float)
        if p.ndim == 1:
            return all(lo - atol <= v <= hi + atol for (lo, hi), v
                       in zip(self.ranges, p.tolist(), strict=True))
        return np.all((p >= self.lows() - atol) & (p <= self.highs() + atol),
                      axis=-1)

    def validate(self):
        for (lo, hi) in self.ranges:
            if not (np.isfinite(lo) and np.isfinite(hi)) or not lo < hi:
                raise ValidationError(f"box range [{lo}, {hi}] is empty or "
                                      "unbounded; positive volume required")


@dataclass(frozen=True)
class Problem:
    n: int
    alpha: Expr
    a: tuple[Expr, ...]
    b: Expr
    box: Box


@dataclass(frozen=True)
class InitialData:
    h: Expr                      # expression in x-variables only
    s_range: tuple[tuple[float, float], ...]  # one interval per parameter
    n: int

    @property
    def interval(self) -> tuple[float, float]:
        if len(self.s_range) != 1:
            raise ValueError("scalar s_range only defined for n = 1")
        return self.s_range[0]


@dataclass(frozen=True)
class VectorField:
    """Characteristic field components ordered for (t, x1..xn, u)."""

    components: tuple[Expr, ...]

    @property
    def n(self) -> int:
        return len(self.components) - 2

    def __post_init__(self):
        if len(self.components) < 2:
            raise ValueError("a field needs at least (alpha, b)")


@dataclass(frozen=True)
class ProblemBundle:
    """Everything a problem file may carry, including optional rho and f."""

    problem: Problem
    data: InitialData
    rho: tuple[Expr, ...] | None
    f: Expr | None


def characteristic_field(p: Problem) -> VectorField:
    """The field alpha*d/dt + sum a_k*d/dx_k + b*d/du as ordered components."""
    return VectorField((p.alpha, *p.a, p.b))


def initial_set_samples(d: InitialData, count: int) -> np.ndarray:
    """Uniformly spaced points (0, s, h(s)) of the initial set: ``count``
    points per axis of ``s_range``, in lexicographic order of s (as
    ``meshgrid(indexing="ij")`` gives them).  count >= 2 where there is
    an axis; for n = 0 the initial set is its one point, for any count.
    """
    if d.s_range and count < 2:
        raise ValueError("count must be >= 2 when n >= 1")
    axes = [np.linspace(lo, hi, count).tolist() for lo, hi in d.s_range]
    xnames = var_names(d.n)[1:d.n + 1]
    return np.array([[0.0, *s, evaluate(d.h, dict(zip(xnames, s)))]
                     for s in product(*axes)])


# ---------------------------------------------------------------------------
# Problem files

def _get(doc: dict, field: str, kind, path: str):
    if field not in doc:
        raise SchemaError(f"{path}{field}", "missing required field")
    value = doc[field]
    if not isinstance(value, kind):
        raise SchemaError(f"{path}{field}", f"expected {kind.__name__}")
    return value


def _interval(raw, path: str) -> tuple[float, float]:
    if (not isinstance(raw, (list, tuple)) or len(raw) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in raw)):
        raise SchemaError(path, "expected [lo, hi]")
    return (float(raw[0]), float(raw[1]))


def _parse_expr(text, n: int, path: str, allowed=None) -> Expr:
    if not isinstance(text, str):
        raise SchemaError(path, "expected an expression string")
    try:
        return parse(text, n=n, allowed_variables=allowed)
    except ParseError as err:
        raise SchemaError(path, f"cannot parse {text!r}: {err}") from err


def load_problem_bundle(path) -> ProblemBundle:
    """Parse and validate a JSON problem file (including optional rho/f)."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise SchemaError("<document>", f"not valid JSON: {err}") from err
    return problem_from_document(doc)


def problem_from_document(doc) -> ProblemBundle:
    """Parse and validate a problem file's JSON document.  ``a`` defaults
    to [], and ``s_range``, a list of n intervals (one flat [lo, hi] reads
    as one interval), to [-0.1, 0.1] per x-variable."""
    if not isinstance(doc, dict):
        raise SchemaError("<document>", "top level must be an object")

    n = _get(doc, "n", int, "")
    if isinstance(doc["n"], bool) or n < 0:
        raise SchemaError("n", "expected an integer >= 0")

    alpha = _parse_expr(_get(doc, "alpha", str, ""), n, "alpha")
    a_raw = _get(doc, "a", list, "") if "a" in doc else []
    if len(a_raw) != n:
        raise SchemaError("a", f"expected {n} expressions, got {len(a_raw)}")
    a = tuple(_parse_expr(s, n, f"a[{k}]") for k, s in enumerate(a_raw))
    b = _parse_expr(_get(doc, "b", str, ""), n, "b")

    h = _parse_expr(_get(doc, "h", str, ""), n, "h")
    xset = frozenset(var_names(n)[1:n + 1])
    extra = variables(h) - xset
    if extra:
        raise SchemaError("h", f"may only use x-variables, found {sorted(extra)}")

    box_doc = _get(doc, "box", dict, "")
    t_range = _interval(box_doc.get("t"), "box.t")
    x_doc = box_doc.get("x", [])
    if not isinstance(x_doc, list) or len(x_doc) != n:
        raise SchemaError("box.x", f"expected {n} ranges")
    x_ranges = tuple(_interval(r, f"box.x[{k}]") for k, r in enumerate(x_doc))
    u_range = _interval(box_doc.get("u"), "box.u")
    box = Box(t_range, x_ranges, u_range)
    box.validate()

    s_raw = doc.get("s_range", [[-0.1, 0.1]] * n)
    if isinstance(s_raw, list) and s_raw and not isinstance(s_raw[0], list):
        s_raw = [s_raw]                  # one flat [lo, hi]
    if not isinstance(s_raw, list) or len(s_raw) != n:
        raise SchemaError("s_range", f"expected {n} intervals")
    s_range = tuple(_interval(r, f"s_range[{k}]") for k, r in enumerate(s_raw))
    data = InitialData(h, s_range, n)

    rho = None
    if "rho" in doc:
        rho_raw = _get(doc, "rho", list, "")
        if len(rho_raw) != n + 1:
            raise SchemaError("rho", f"expected {n + 1} expressions")
        rho = tuple(_parse_expr(s, n, f"rho[{k}]")
                    for k, s in enumerate(rho_raw))
    f = None
    if "f" in doc:
        ynames = [f"y{k}" for k in range(1, n + 2)]
        f = _parse_expr(doc["f"], n, "f", allowed=ynames)

    problem = Problem(n, alpha, a, b, box)
    _validate_problem(problem, data)
    return ProblemBundle(problem, data, rho, f)


def _validate_problem(p: Problem, d: InitialData):
    for lo, hi in d.s_range:
        if lo > hi:
            raise ValidationError(f"s_range [{lo}, {hi}] is reversed; "
                                  "lo <= hi required")
    axes = [np.linspace(lo, hi, ALPHA_LATTICE_POINTS) for lo, hi in p.box.ranges]
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    ((vals, ok),) = evaluate_grid(p.alpha, dict(zip(var_names(p.n), grids)))

    def lattice_point(mask):
        idx = np.argwhere(mask)[0]
        return [float(ax[j]) for ax, j in zip(axes, idx)]

    if not np.all(ok):
        raise ValidationError(
            f"alpha fails to evaluate at lattice point {lattice_point(~ok)}")
    if np.any(vals == 0.0):
        raise ValidationError(
            f"alpha vanishes at lattice point {lattice_point(vals == 0.0)}")

    try:
        gamma = initial_set_samples(d, GAMMA_CHECK_SAMPLES)
    except EvalDomainError as err:
        raise ValidationError(f"h fails to evaluate on s_range: {err}") from err
    outside = np.flatnonzero(~p.box.contains(gamma))
    if outside.size:
        raise ValidationError(
            f"initial set leaves the box at {gamma[outside[0]].tolist()}")


def make_problem(n: int, alpha: str, a: list[str], b: str, h: str,
                 box: Box, s_range=None) -> tuple[Problem, InitialData]:
    """The problem file's document of the arguments, parsed and validated
    as a file is; ``s_range`` (n intervals) is left out unless given."""
    doc = {"n": n, "alpha": alpha, "a": list(a), "b": b, "h": h,
           "box": {"t": list(box.t), "x": [list(r) for r in box.x],
                   "u": list(box.u)}}
    if s_range is not None:
        doc["s_range"] = [list(r) for r in s_range]
    bundle = problem_from_document(doc)
    return bundle.problem, bundle.data

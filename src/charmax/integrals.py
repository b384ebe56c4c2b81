"""First integrals of the characteristic field and the implicit solution.

A first integral rho satisfies X rho = 0, so it is constant along every
characteristic.  Given a nondegenerate set rho_1..rho_{n+1} and a defining
function f of the image of the initial set, F = f o rho vanishes on the
initial set and its zero set is invariant under the flow; F = 0 is the
implicit solution the rest of the pipeline works with.

Conservation-law problems u_t + sum a_k(u) u_{x_k} = 0 get their integrals
built in: rho_1 = u and rho_{k+1} = x_k - a_k(u) t.  For anything else the
integrals (and, unless the data is a graph over rho_2.., the defining
function) must come from the problem file; no discovery is attempted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .expr import (Const, EvalDomainError, Expr, Var, add, diff, evaluate,
                   mul, sub, substitute, to_str, var_names, variables)
from .expr import compile as compile_exprs, output_rows
from .problem import (Box, InitialData, Problem, VectorField,
                      characteristic_field, initial_set_samples)

RESIDUAL_TOL = 1e-8
GAMMA_TOL = 1e-10
FU_MIN_ON_GAMMA = 1e-6
FLOW_TOL = 1e-8
FLOW_NEWTON_TOL = 1e-12
FLOW_NEWTON_MAXIT = 40
FLOW_NEWTON_MAX_STEP = 1e8
MIN_SINGULAR_VALUE = 1e-6
FLOW_SAMPLES = 200          # surface points the flow check projects
GAMMA_SAMPLES = 65          # initial-set samples for n >= 1
VERIFICATION_SAMPLES = 500  # random box points the rho check adds
_RNG_SEED = 74025317  # fixed seed so reports are deterministic


class FirstIntegralError(Exception):
    """A rho check failed (residual, nondegeneracy, or construction)."""


class ImplicitSolutionError(Exception):
    """Building F = f o rho violated one of its defining properties."""


@dataclass(frozen=True)
class FirstIntegralSet:
    """First integrals rho, with what ``implicit_solution_for_problem``'s
    checks of them measured (one report per rho, and the
    nondegeneracy report)."""

    rho: tuple[Expr, ...]
    provenance: str  # "builtin-conservation" | "user-supplied"
    reports: tuple[ResidualReport, ...] = field(default=(), compare=False,
                                               repr=False)
    nondegeneracy: NondegeneracyReport | None = field(
        default=None, compare=False, repr=False)


@dataclass
class ResidualReport:
    """Absolute-plus-relative residual statistics of X rho over samples."""

    max_residual: float
    mean_residual: float
    worst_point: list[float] | None
    passed: bool
    excluded: list  # (point, reason) pairs for the samples left out

    def to_json(self) -> str:
        return json.dumps({
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_point": self.worst_point,
            "pass": self.passed,
            "excluded": len(self.excluded),
        }, sort_keys=True)


@dataclass
class NondegeneracyReport:
    ok: bool
    min_singular_value: float
    worst_point: list[float] | None
    excluded: list


@dataclass(frozen=True)
class SolutionChecks:
    """What building F = f o rho measured: |F| and |F_u| over the
    initial-set samples, and the largest flow residual |X F| / scale of
    the flow check, with the surface points it projected, the random
    draws that took, and the points whose residual terms are finite."""

    max_abs_F_on_gamma: float
    min_abs_F_u_on_gamma: float
    max_flow_residual: float
    flow_points_projected: int
    flow_draws: int
    flow_points_checked: int


@dataclass(frozen=True)
class ImplicitSolution:
    """F = f o rho with its derivative trees and their only compiled forms,
    which take t, x1..xn, u, and what its checks measured.  ``F_and_Fu``
    and the array form ``F_and_Fu_rows`` are compiled here; ``grad_values``
    (grad F: the query's march), ``fold_values`` (F, grad F and grad F_u:
    the query's turning-point solve), ``Fu_value`` ((F_u,)) and
    ``jacobian_rows`` (grad F and grad F_u, array form: the sigma polish
    and rank check) on first call."""

    F: Expr
    F_u: Expr
    gradient: tuple[Expr, ...]     # dF/d(t, x1..xn, u)
    gamma_samples: np.ndarray
    n: int
    checks: SolutionChecks = field(compare=False)
    F_and_Fu: Callable = field(compare=False, repr=False)
    grad_values: Callable = field(compare=False, repr=False)
    fold_values: Callable = field(compare=False, repr=False)
    Fu_value: Callable = field(compare=False, repr=False)
    F_and_Fu_rows: Callable = field(compare=False, repr=False)
    jacobian_rows: Callable = field(compare=False, repr=False)


def apply_field(fld: VectorField, g: Expr) -> Expr:
    """The directional derivative X g = sum_i comp_i * dg/dvar_i."""
    names = var_names(fld.n)
    out: Expr = Const(0.0)
    for comp, name in zip(fld.components, names):
        out = add(out, mul(comp, diff(g, name)))
    return out


def verify_first_integral(fld: VectorField, rho: Expr, samples,
                          tol: float = RESIDUAL_TOL) -> ResidualReport:
    """Check |X rho| <= tol * (1 + |rho|) at each sample.

    Samples where rho or X rho fails to evaluate or is not finite are
    excluded from the statistics and listed separately; with none left,
    the check fails.
    """
    residual_and_rho = compile_exprs([apply_field(fld, rho), rho],
                                     var_names(fld.n))
    rows, kept, excluded = _screened(
        residual_and_rho, np.asarray(samples, dtype=float).tolist(), "value")
    if not rows:
        return ResidualReport(float("nan"), float("nan"), None, False, excluded)
    vals = [abs(r) for r, _ in rows]
    norms = [r / (1.0 + abs(rho_value))
             for r, (_, rho_value) in zip(vals, rows)]
    k = max(range(len(norms)), key=norms.__getitem__)  # the first largest
    return ResidualReport(max(vals), float(np.mean(vals)), kept[k],
                          norms[k] <= tol, excluded)


def _screened(compiled: Callable, samples: list, what: str):
    """Call the scalar compiled function at each sample.  A sample where
    it raises EvalDomainError, or where an output is not finite, is left
    out as (sample, reason), in sample order.  Returns the output rows of
    the kept samples, the kept samples and the left-out ones."""
    rows, kept, left_out = [], [], []
    for point in samples:
        try:
            values = compiled(*point)
        except EvalDomainError as err:
            left_out.append((point, str(err)))
            continue
        if all(map(math.isfinite, values)):
            rows.append(values)
            kept.append(point)
        else:
            v = next(v for v in values if not math.isfinite(v))
            left_out.append((point, f"non-finite {what} {v!r}"))
    return rows, kept, left_out


def conservation_law_integrals(a: Sequence[Expr]) -> FirstIntegralSet:
    """(u, x_1 - a_1(u) t, ..., x_n - a_n(u) t) for speeds a_k(u)."""
    for k, ak in enumerate(a):
        extra = variables(ak) - {"u"}
        if extra:
            raise FirstIntegralError(
                f"a[{k}] = {to_str(ak)} must depend on u only "
                f"(found {sorted(extra)}); not in conservation form")
    t = Var("t")
    rho = [Var("u")]
    rho += [sub(Var(f"x{k + 1}"), mul(ak, t)) for k, ak in enumerate(a)]
    return FirstIntegralSet(tuple(rho), "builtin-conservation")


def check_nondegeneracy(rho_set: FirstIntegralSet, samples,
                        n: int) -> NondegeneracyReport:
    """Smallest singular value of the (n+1) x (n+2) Jacobian of rho at each
    sample; nondegenerate iff it stays >= MIN_SINGULAR_VALUE everywhere.
    A sample whose Jacobian fails to evaluate or has a non-finite entry
    is left out and listed in ``excluded``, in sample order."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("at least one sample is required")
    names = var_names(n)
    jacobian = compile_exprs([diff(r, v) for r in rho_set.rho for v in names],
                             names)
    jacobians, evaluated, excluded = _screened(jacobian, samples.tolist(),
                                               "Jacobian entry")
    worst = None
    min_seen = np.inf
    if jacobians:
        stack = np.reshape(jacobians, (-1, len(rho_set.rho), len(names)))
        sv = np.linalg.svd(stack, compute_uv=False)[:, -1]
        k = int(np.argmin(sv))     # the first smallest
        min_seen, worst = sv[k], evaluated[k]
    ok = bool(min_seen >= MIN_SINGULAR_VALUE) and not np.isinf(min_seen)
    return NondegeneracyReport(ok, float(min_seen), worst, excluded)


def defining_function_from_initial(d: InitialData) -> Expr:
    """f(y1, y2) = y1 - h(y2): the graph form of the image of the initial
    set under conservation-law integrals (n = 1 only)."""
    if d.n != 1:
        raise FirstIntegralError(
            "automatic defining function needs n = 1; supply f explicitly")
    h_in_y2 = substitute(d.h, {"x1": Var("y2")})
    return sub(Var("y1"), h_in_y2)


def _newton_u(F: Expr, F_and_Fu: Callable, point: list, u: float,
              tol: float, maxit: int, max_step: float = math.inf):
    """Plain Newton in u for F = 0 at the base point (t, x1..xn), on the
    compiled (F, F_u) of the tree F.  Returns (u, F_u at u, ok).  A domain
    violation, or a step longer than ``max_step`` (the iterate runs off to
    infinity), ends the iteration with ok False.  F_u is then the last one
    that evaluated, or None where only F_u failed; if that was at the last
    iterate, ok is |F| <= tol there.
    """
    try:
        r, fu = F_and_Fu(*point, u)
    except EvalDomainError:
        return u, None, False
    for it in range(maxit):
        if abs(r) <= tol:
            return u, fu, True
        if not 0.0 < abs(fu) < math.inf:     # zero, infinite or NaN
            return u, fu, False
        step = r / fu
        if abs(step) > max_step:
            return u, fu, False
        u -= step
        try:
            r, fu = F_and_Fu(*point, u)
        except EvalDomainError:
            try:
                r = evaluate(F, dict(zip(var_names(len(point) - 1),
                                         [*point, u])))
            except EvalDomainError:
                return u, fu, False
            return u, None, it == maxit - 1 and abs(r) <= tol
    return u, fu, abs(r) <= tol


def build_implicit_solution(rho_set: FirstIntegralSet, f: Expr, gamma,
                            fld: VectorField, box: Box) -> ImplicitSolution:
    """Compose F = f o rho and enforce its defining properties.

    Raises ImplicitSolutionError if F fails to vanish on the initial set,
    if F_u degenerates there, or if the flow-invariance residual X F is
    too large at surface samples.  A failed check is an error, never a
    warning; the numbers the checks measured are the solution's
    ``checks``.
    """
    n = len(rho_set.rho) - 1
    ynames = {f"y{k}" for k in range(1, n + 2)}
    extra = variables(f) - ynames
    if extra:
        raise ImplicitSolutionError(
            f"f may only use y1..y{n + 1}, found {sorted(extra)}")
    mapping = {f"y{k + 1}": r for k, r in enumerate(rho_set.rho)}
    F = substitute(f, mapping)
    names = var_names(n)
    gradient = tuple(diff(F, v) for v in names)
    F_u = gradient[-1]
    F_and_Fu = compile_exprs([F, F_u], names)
    gamma = np.asarray(gamma, dtype=float)

    rows, points, left_out = _screened(F_and_Fu, gamma.tolist(), "value")
    if left_out:
        raise ImplicitSolutionError(
            f"F fails to evaluate on the initial set: {left_out[0][1]}")
    max_F, min_Fu = 0.0, math.inf
    for point, (fv, fu) in zip(points, rows):
        if abs(fv) > GAMMA_TOL * (1.0 + abs(fv)):
            raise ImplicitSolutionError(
                f"F does not vanish on the initial set: |F| = {abs(fv):.3e} "
                f"at {point}")
        if abs(fu) < FU_MIN_ON_GAMMA:
            raise ImplicitSolutionError(
                f"F_u = {fu:.3e} degenerates on the initial set at {point}")
        max_F = max(max_F, abs(fv))
        min_Fu = min(min_Fu, abs(fu))

    F_and_Fu_rows = compile_exprs([F, F_u], names, arrays=True)
    flow = _check_flow_invariance(F_and_Fu_rows, F, gradient, fld, box, gamma)
    jacobian = [*gradient, *(diff(F_u, v) for v in names)]  # of (F, F_u)
    return ImplicitSolution(
        F, F_u, gradient, gamma, n, SolutionChecks(max_F, min_Fu, *flow),
        F_and_Fu,
        _compiled_on_first_call(lambda: compile_exprs(gradient, names)),
        _compiled_on_first_call(lambda: compile_exprs([F, *jacobian], names)),
        _compiled_on_first_call(lambda: compile_exprs([F_u], names)),
        F_and_Fu_rows, _compiled_on_first_call(
            lambda: compile_exprs(jacobian, names, arrays=True)))


def _compiled_on_first_call(build: Callable) -> Callable:
    """The function ``build()`` returns, built when it is first called:
    a query that never needs it never pays for compiling its trees."""
    compiled = None

    def call(*values):
        nonlocal compiled
        if compiled is None:
            compiled = build()
        return compiled(*values)

    return call


def _check_flow_invariance(F_and_Fu_rows, F, gradient, fld, box, gamma):
    """|X F| at points of {F = 0}: the initial samples plus FLOW_SAMPLES
    random box points projected onto the surface by Newton in u.  Fewer
    than FLOW_SAMPLES // 2 projected (within the draw budget) or checked
    is an error.  Returns the largest |X F| / scale, the points projected,
    the draws used and the points checked: those whose residual terms
    evaluate and are finite.

    The draws are projected in blocks of 2 * FLOW_SAMPLES by
    ``_newton_u_rows``, and the surface points are the first FLOW_SAMPLES
    converged ones in the box, in draw order."""
    n = fld.n
    names = var_names(n)
    residual_terms = compile_exprs(
        [apply_field(fld, F), *chain(*zip(fld.components, gradient))], names)
    points = [p.tolist() for p in gamma]
    rng = np.random.default_rng(_RNG_SEED)
    lows, highs = box.lows(), box.highs()
    budget = 20 * FLOW_SAMPLES
    draws = lows + rng.random((budget, n + 2)) * (highs - lows)
    attempts = budget
    for start in range(0, budget, 2 * FLOW_SAMPLES):
        block = draws[start:start + 2 * FLOW_SAMPLES]
        u, ok = _newton_u_rows(F_and_Fu_rows, block[:, :-1], block[:, -1],
                               FLOW_NEWTON_TOL, FLOW_NEWTON_MAXIT,
                               FLOW_NEWTON_MAX_STEP)
        found = np.column_stack([block[:, :-1], u])
        rows = np.flatnonzero(ok & box.contains(found))
        rows = rows[:len(gamma) + FLOW_SAMPLES - len(points)]
        points += found[rows].tolist()
        if len(points) == len(gamma) + FLOW_SAMPLES:
            attempts = start + int(rows[-1]) + 1
            break
    projected = len(points) - len(gamma)
    if projected < FLOW_SAMPLES // 2:
        raise ImplicitSolutionError(
            f"flow check projected only {projected} of {FLOW_SAMPLES} "
            f"surface points in {attempts} draws; the box holds too little "
            "of the surface to check flow invariance")
    rows, kept, _ = _screened(residual_terms, points, "flow residual term")
    worst, checked = 0.0, len(rows)
    for point, (r, *terms) in zip(kept, rows):
        r = abs(r)
        scale = 1.0
        for comp, g in zip(terms[::2], terms[1::2]):
            scale += abs(comp * g)
        if r > FLOW_TOL * scale:
            raise ImplicitSolutionError(
                f"zero set is not flow-invariant: |XF| = {r:.3e} "
                f"(scale {scale:.3e}) at {point}")
        worst = max(worst, r / scale)
    if checked < FLOW_SAMPLES // 2:
        raise ImplicitSolutionError(
            f"flow residual evaluated at only {checked} of {len(points)} "
            "surface points; X F is undefined on too much of the surface")
    return worst, projected, attempts, checked


def _newton_u_rows(F_and_Fu_rows: Callable, base: np.ndarray, u: np.ndarray,
                   tol: float, maxit: int, max_step: float):
    """``_newton_u`` on every row at once: Newton in u for F = 0 at the
    base points ``base`` (m, n + 1) of (t, x1..xn), from the (m,) values
    ``u``, on the array back end of compile([F, F_u]).  Returns the final
    iterates and the (m,) mask of rows that converged.

    A row leaves by the exits of ``_newton_u``, in its order: converged
    when |F| <= tol; failed when F_u is zero or not finite, when the step
    is longer than ``max_step``, or when the pair hits a domain violation
    at the start.  A row whose pair hits one after a step ends there, and
    on the last iteration F alone decides whether it converged.  Where
    the two back ends round alike (+ - * / sqrt), every row takes the
    steps of ``_newton_u``; numpy's ``power``, ``exp`` and ``log`` may
    differ from libm in the last bit.
    """
    u = np.array(u, dtype=float)
    ok = np.zeros(len(u), dtype=bool)
    live = np.arange(len(u))  # the rows still iterating

    def pair(at):
        """F, F_u, F's violation mask and the pair's, at the rows ``at``."""
        (r, r_bad), (fu, fu_bad) = output_rows(
            F_and_Fu_rows(*base[at].T, u[at]), at.shape)
        return r, fu, r_bad, r_bad | fu_bad

    with np.errstate(all="ignore"):
        r, fu, _, bad = pair(live)
        live, r, fu = live[~bad], r[~bad], fu[~bad]
        for it in range(maxit):
            if not live.size:
                break
            done = np.abs(r) <= tol
            ok[live[done]] = True
            step = r / fu
            go = (~done & (fu != 0.0) & np.isfinite(fu)
                  & ~(np.abs(step) > max_step))
            live = live[go]
            u[live] -= step[go]
            r, fu, r_bad, bad = pair(live)
            if it == maxit - 1:
                ok[live[bad & ~r_bad & (np.abs(r) <= tol)]] = True
            live, r, fu = live[~bad], r[~bad], fu[~bad]
    ok[live[np.abs(r) <= tol]] = True
    return u, ok


def implicit_solution_for_problem(problem: Problem, data: InitialData,
                                  rho: tuple[Expr, ...] | None = None,
                                  f: Expr | None = None):
    """Assemble (FirstIntegralSet, ImplicitSolution) for one problem.

    User-supplied rho/f are validated; otherwise the conservation-law
    construction is used when the problem has that form.
    """
    fld = characteristic_field(problem)
    gamma = initial_set_samples(data, 1 if problem.n == 0 else GAMMA_SAMPLES)

    if rho is not None:
        rho_set = FirstIntegralSet(tuple(rho), "user-supplied")
    else:
        if not (problem.alpha == Const(1.0) and problem.b == Const(0.0)):
            raise FirstIntegralError(
                "no rho in the problem file and the equation is not a "
                "conservation law; cannot construct first integrals")
        rho_set = conservation_law_integrals(problem.a)

    samples = verification_samples(problem.box, gamma)
    reports = []
    for k, r in enumerate(rho_set.rho):
        report = verify_first_integral(fld, r, samples)
        if not report.passed:
            raise FirstIntegralError(
                f"rho[{k}] = {to_str(r)} is not a first integral: "
                f"max |X rho| = {report.max_residual:.3e} at {report.worst_point}")
        reports.append(report)
    ndg = check_nondegeneracy(rho_set, gamma, problem.n)
    if not ndg.ok:
        raise FirstIntegralError(
            f"rho is degenerate on the initial set: min singular value "
            f"{ndg.min_singular_value:.3e} at {ndg.worst_point}")
    rho_set = replace(rho_set, reports=tuple(reports), nondegeneracy=ndg)

    if f is None:
        if rho_set.provenance != "builtin-conservation":
            raise FirstIntegralError(
                "no f in the problem file and rho is not the built-in "
                "conservation set; cannot construct a defining function")
        f = defining_function_from_initial(data)
    sol = build_implicit_solution(rho_set, f, gamma, fld, problem.box)
    return rho_set, sol


def verification_samples(box: Box, gamma: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(_RNG_SEED + 1)
    lows, highs = box.lows(), box.highs()
    random_pts = (lows + rng.random((VERIFICATION_SAMPLES, len(lows)))
                  * (highs - lows))
    return np.vstack([gamma, random_pts])

"""Closed forms for 1-D scalar conservation laws u_t + a(u) u_x = 0.

Characteristics are straight lines x = s + g(s) t carrying u = h(s), with
g = a o h.  Where g is locally decreasing, neighboring lines cross at
t*(s) = -1/g'(s); the parametric curve (t*(s), x*(s)) is the envelope of
the line family and bounds the domain where the solution stays
single-valued.  These formulas are independent oracles for the grid
pipeline, and t* = -1/g' itself is validated in the test suite against a
brute-force nearby-line intersection limit.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .expr import (Const, EvalDomainError, Expr, Var, add, diff, div,
                   evaluate, mul, substitute, variables)

SCAN_SAMPLES = 10_000
REFINE_TOL = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class VerticalTangentError(Exception):
    """The envelope parametrization has dt*/ds = 0 at this parameter with
    no removable limit (degenerate envelopes included)."""


@dataclass(frozen=True)
class ConservationLaw:
    """The closed-form trees of one law with speed a(u) and initial data
    h, all in x (= x1), derived once by ``from_parts``: g = a o h, g', and
    the s-derivatives of the envelope's t* = -1/g' and x* = s + g t*,
    which every ``propagation_speed`` call evaluates."""

    h: Expr        # initial data
    g: Expr        # a o h
    g_prime: Expr  # dg/dx
    t_prime: Expr  # dt*/ds
    x_prime: Expr  # dx*/ds

    @classmethod
    def from_parts(cls, a: Expr, h: Expr) -> "ConservationLaw":
        bad = variables(a) - {"u"}
        if bad:
            raise ValueError(f"speed must depend on u only, found {sorted(bad)}")
        bad = variables(h) - {"x1"}
        if bad:
            raise ValueError(f"initial data must depend on x only, "
                             f"found {sorted(bad)}")
        g = substitute(a, {"u": h})
        g_prime = diff(g, "x1")
        tstar = div(Const(-1.0), g_prime)
        xstar = add(Var("x1"), mul(g, tstar))
        return cls(h, g, g_prime, diff(tstar, "x1"), diff(xstar, "x1"))

    def g_at(self, s: float) -> float:
        return evaluate(self.g, {"x1": float(s)})

    def g_prime_at(self, s: float) -> float:
        return evaluate(self.g_prime, {"x1": float(s)})


@dataclass
class EnvelopeCurve:
    s: np.ndarray
    t: np.ndarray
    x: np.ndarray

    def __len__(self):
        return len(self.s)

    def to_csv(self, law: ConservationLaw) -> str:
        out = io.StringIO()
        out.write("s,t,x,speed\n")
        for s, t, x in zip(self.s, self.t, self.x):
            try:
                speed = propagation_speed(law, float(s))
                stext = repr(float(speed))
            except (VerticalTangentError, EvalDomainError):
                stext = "nan"
            out.write(f"{float(s)!r},{float(t)!r},{float(x)!r},{stext}\n")
        return out.getvalue()


def singular_time(law: ConservationLaw, s: float) -> float | None:
    """t*(s) = -1/g'(s) where g'(s) < 0; None where the line never focuses."""
    gp = law.g_prime_at(s)
    if gp < 0.0:
        return -1.0 / gp
    return None


def envelope(law: ConservationLaw, s_range, samples: int) -> EnvelopeCurve:
    """Points (t*(s), x*(s)) with x* = s + g(s) t*, sampled and ordered in s.

    ``samples`` >= 2, both ends of the range included.  Parameters where
    t* is undefined are skipped; the curve may be empty.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    lo, hi = float(s_range[0]), float(s_range[1])
    ss, ts, xs = [], [], []
    for s in np.linspace(lo, hi, samples):
        try:
            tstar = singular_time(law, float(s))
        except EvalDomainError:
            continue
        if tstar is None:
            continue
        ss.append(float(s))
        ts.append(tstar)
        xs.append(float(s) + law.g_at(s) * tstar)
    return EnvelopeCurve(np.array(ss), np.array(ts), np.array(xs))


def blowup_time(law: ConservationLaw, s_range) -> float:
    """Infimum of t*(s) over the range; math.inf when t* is nowhere defined.

    A coarse scan locates the minimizing region; golden-section refinement
    tightens it to REFINE_TOL in s.  The returned value never exceeds the
    best scanned sample, so analytically constant t* stays exact.
    """
    lo, hi = float(s_range[0]), float(s_range[1])
    grid = np.linspace(lo, hi, SCAN_SAMPLES)

    def t_at(s: float) -> float:
        try:
            tstar = singular_time(law, s)
        except EvalDomainError:
            return math.inf
        return math.inf if tstar is None else tstar

    values = [t_at(float(s)) for s in grid]
    best = int(np.argmin(values))
    if math.isinf(values[best]):
        return math.inf
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = t_at(float(c)), t_at(float(d))
    while abs(b - a) > REFINE_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = t_at(float(c))
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = t_at(float(d))
    return min(values[best], fc, fd)


def propagation_speed(law: ConservationLaw, s: float) -> float:
    """dx/dt along the envelope, (dx*/ds) / (dt*/ds).

    dt*/ds = 0 with dx*/ds != 0, or a degenerate (pointlike) envelope,
    raises VerticalTangentError; an isolated zero of dt*/ds is removable
    and returns the limiting value g(s), which is also the tangency slope.
    """
    tstar = singular_time(law, s)
    if tstar is None:
        raise ValueError(f"no singular time at s = {s}")
    dt_ds = evaluate(law.t_prime, {"x1": float(s)})
    dx_ds = evaluate(law.x_prime, {"x1": float(s)})
    eps = 1e-12 * (1.0 + abs(dx_ds))
    if abs(dt_ds) > eps:
        return dx_ds / dt_ds
    if abs(dx_ds) > eps:
        raise VerticalTangentError(
            f"dt*/ds = 0 but dx*/ds = {dx_ds:.3e} at s = {s}")
    # both vanish: removable only if dt*/ds has an isolated zero here
    delta = 1e-6 * (1.0 + abs(s))
    probes = []
    for sp in (s - delta, s + delta):
        try:
            probes.append(evaluate(law.t_prime, {"x1": sp}))
        except EvalDomainError:
            probes.append(0.0)
    if all(abs(p) <= eps for p in probes):
        raise VerticalTangentError(
            f"envelope is degenerate (a point) near s = {s}")
    return law.g_at(s)

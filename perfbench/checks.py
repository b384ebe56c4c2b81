"""Closed-form truths for the four bundled problems and the output checks.

Every check returns a list of problem strings: empty means the output is
correct.  The truths are written out by hand from the equations, so they
are independent of the expression trees charmax builds:

    ode_quadratic       u' = u^2, u(0) = 1          u = 1/(1 - t),  t < 1
    circular            u u_t = -t, sqrt(1 - x^3)   u^2 = 1 - t^2 - x^3 > 0
    burgers_ramp        u_t + u u_x = 0, -2x        u = -2x/(1 - 2t), t < 1/2
    burgers_reciprocal  u_t + u u_x = 0, 1/(x + 1)  u (x - u t + 1) = 1,
                                                    t < (x + 1)^2 / 4
"""

from __future__ import annotations

import json
import math

import numpy as np

PROBLEMS = ("ode_quadratic", "circular", "burgers_ramp", "burgers_reciprocal")
CONSERVATION_LAWS = ("burgers_ramp", "burgers_reciprocal")

# Grid-mask cells closer than this many cell diagonals to the true boundary
# (the fold or the box's u-window) are not checked: the mask is only
# accurate to the cell there.
MASK_BAND_CELLS = 2.0
# Query points closer than this (in base-space distance) to the true fold
# are not checked: "boundary" and either side are legal there.
QUERY_BAND = 0.01
PATH_SAMPLES = 257
U_TOL = 1e-8
SIGMA_TOL = 1e-8
SIGMA_SLOPE_TOL = 1e-6
INTEGRAL_TOL = 1e-7
ENVELOPE_TOL = 1e-9
BLOWUP_TOL = 1e-9
_FD_STEP = 1e-6


def fold_margin(name: str, q) -> float:
    """Signed closed-form margin: positive inside the maximal domain."""
    if name == "ode_quadratic":
        return 1.0 - q[0]
    t, x = q
    if name == "circular":
        return 1.0 - t * t - x ** 3
    if name == "burgers_ramp":
        return 0.5 - t
    if name == "burgers_reciprocal":
        return (x + 1.0) ** 2 / 4.0 - t
    raise ValueError(name)


def true_u(name: str, q) -> float:
    """The single-valued solution at a base point inside the domain."""
    if name == "ode_quadratic":
        return 1.0 / (1.0 - q[0])
    t, x = q
    if name == "circular":
        return math.sqrt(1.0 - t * t - x ** 3)
    if name == "burgers_ramp":
        return -2.0 * x / (1.0 - 2.0 * t)
    if name == "burgers_reciprocal":
        # the smaller root of t u^2 - (x + 1) u + 1 = 0, in the form that
        # stays exact as t -> 0
        return 2.0 / (x + 1.0 + math.sqrt((x + 1.0) ** 2 - 4.0 * t))
    raise ValueError(name)


def surface_function(name: str, p) -> float:
    """Pole-free closed form whose zero set is the solution surface."""
    if name == "ode_quadratic":
        t, u = p
        return (t - 1.0) * u + 1.0
    t, x, u = p
    if name == "circular":
        return t * t + u * u - 1.0 + x ** 3
    if name == "burgers_ramp":
        return u + 2.0 * (x - u * t)
    if name == "burgers_reciprocal":
        return u * (x - u * t + 1.0) - 1.0
    raise ValueError(name)


def pole_function(name: str, p):
    """Zero set where charmax's F has a pole, or None when F has none.

    F changes sign across a pole without vanishing, so sign-crossing cells
    (and their patches) appear there as well as on the surface.
    """
    if name == "ode_quadratic":
        return p[1]                      # F = t + 1/u - 1
    if name == "burgers_reciprocal":
        t, x, u = p
        return x - u * t + 1.0           # F = u - 1/(x - u t + 1)
    return None


def first_integrals(name: str, state) -> tuple:
    """Closed-form first integrals, constant along each characteristic."""
    if name == "ode_quadratic":
        t, u = state
        return (t + 1.0 / u,)
    t, x, u = state
    if name == "circular":
        return (x, t * t + u * u)
    return (u, x - u * t)                # both conservation laws have a = u


def law_slope(name: str, s: float) -> tuple[float, float]:
    """g(s) = a(h(s)) and g'(s) for the two conservation laws."""
    if name == "burgers_ramp":
        return -2.0 * s, -2.0
    if name == "burgers_reciprocal":
        return 1.0 / (s + 1.0), -1.0 / (s + 1.0) ** 2
    raise ValueError(name)


def blowup_truth(name: str, s_range) -> float:
    """t* = -1/min_s g'(s); g' is monotone on both ranges, so the minimum
    sits at an end point (0.5 for the ramp, 0.81 for the reciprocal law on
    [-0.1, 0.1])."""
    return -1.0 / min(law_slope(name, s)[1] for s in s_range)


def _grad_norm(fn, cols):
    """|grad fn| by central differences; ``cols`` holds one coordinate per
    entry, each a float or an array of points."""
    total = 0.0
    for k in range(len(cols)):
        hi, lo = list(cols), list(cols)
        hi[k] = cols[k] + _FD_STEP
        lo[k] = cols[k] - _FD_STEP
        total = total + ((fn(hi) - fn(lo)) / (2.0 * _FD_STEP)) ** 2
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# domain: grid mask against the closed form

def decode_mask(doc: dict, base_dim: int) -> np.ndarray:
    """Boolean base-cell mask from domain.json's run-length rows."""
    res = int(doc["resolution"])
    rows = doc["mask"]["rows"]
    mask = np.zeros((len(rows), res if base_dim == 2 else 1), dtype=bool)
    for i, runs in enumerate(rows):
        for start, length in runs:
            mask[i, start:start + length] = True
    return mask


def check_domain(name: str, box: dict, domain_text: str,
                 summary_text: str) -> list[str]:
    """Masked base cells against the closed-form domain, clipped to the
    box's u-window, outside MASK_BAND_CELLS of its boundary."""
    doc = json.loads(domain_text)
    summary = json.loads(summary_text)
    ranges = [box["t"]] + [tuple(r) for r in box["x"]]
    u_lo, u_hi = box["u"]
    res = int(doc["resolution"])
    mask = decode_mask(doc, len(ranges))
    if mask.shape[0] != res:
        return [f"{name}: mask has {mask.shape[0]} rows, expected {res}"]
    steps = [(hi - lo) / res for lo, hi in ranges]
    diag = math.hypot(*steps)
    du = (u_hi - u_lo) / res
    errors = []
    area = float(np.prod(steps)) * int(np.count_nonzero(mask))
    if not math.isclose(summary["area_of_mask"], area, rel_tol=1e-9):
        errors.append(f"{name}: summary area {summary['area_of_mask']} "
                      f"!= mask area {area}")
    if summary["boundary_point_count"] != len(doc["boundary"]):
        errors.append(f"{name}: summary boundary count disagrees")
    checked = 0
    for idx in np.ndindex(*mask.shape[:len(ranges)]):
        q = [lo + (i + 0.5) * h for (lo, _), i, h in zip(ranges, idx, steps)]
        g = fold_margin(name, q)
        if abs(g) < MASK_BAND_CELLS * diag * _grad_norm(
                lambda p: fold_margin(name, p), q):
            continue
        inside = g > 0.0
        if inside:
            u = true_u(name, q)
            grad_u = _grad_norm(lambda p: true_u(name, p), q)
            window = min(u - u_lo, u_hi - u)
            if abs(window) < MASK_BAND_CELLS * (grad_u * diag + du):
                continue
            inside = window > 0.0
        checked += 1
        cell = idx if len(ranges) == 2 else (idx[0], 0)
        if bool(mask[cell]) != inside:
            errors.append(f"{name}: base cell {idx} at {q} is "
                          f"{'masked' if mask[cell] else 'not masked'}, "
                          f"closed form says {'in' if inside else 'out'}")
            if len(errors) > 5:
                break
    if checked < mask.size // 2:
        errors.append(f"{name}: only {checked} of {mask.size} cells checked")
    return errors


# ---------------------------------------------------------------------------
# query: contains verdicts against the closed form

def query_start(q, s_range) -> list[float]:
    """Where contains starts its path: the initial-set point (0, s*) with
    s* the query's x clamped to s_range (just t = 0 when n = 0)."""
    if len(q) == 1:
        return [0.0]
    return [0.0, min(max(float(q[1]), s_range[0]), s_range[1])]


def path_distances(name: str, start, q) -> np.ndarray:
    """First-order signed distance to the fold, g / |grad g|, at
    PATH_SAMPLES points of the straight segment from ``start`` to ``q``."""
    lam = np.linspace(0.0, 1.0, PATH_SAMPLES)[:, None]
    cols = list((np.asarray(start) + lam * (np.asarray(q) - start)).T)
    fn = lambda c: fold_margin(name, c)  # noqa: E731
    return fn(cols) / _grad_norm(fn, cols)


def check_verdict(name: str, start, q, kind: str, u) -> list[str]:
    """One contains verdict against closed-form membership of ``q``.

    An end point QUERY_BAND inside the fold must be "inside" with u to
    U_TOL (relative above 1); one QUERY_BAND beyond it must be "outside";
    within the band any verdict goes.  contains continues the solution
    along the straight segment from ``start`` and does not answer "inside"
    where that segment meets the fold, even when ``q`` itself is inside.
    That is a known defect, not a correct answer: such verdicts are only
    let through for inside points whose segment comes within QUERY_BAND of
    the fold, and off_domain counts them.
    """
    end = path_distances(name, q, q)[-1]
    if end >= QUERY_BAND:
        if kind != "inside":
            if off_domain(name, start, q, kind):
                return []
            return [f"{name}: {list(q)} is inside, verdict {kind}"]
        expect = true_u(name, q)
        if not abs(u - expect) <= U_TOL * max(1.0, abs(expect)):
            return [f"{name}: u at {list(q)} is {u!r}, closed form "
                    f"{expect!r}"]
    elif end <= -QUERY_BAND and kind != "outside":
        return [f"{name}: {list(q)} is outside, verdict {kind}"]
    return []


def off_domain(name: str, start, q, kind: str) -> bool:
    """A point QUERY_BAND inside the closed-form domain that contains does
    not answer "inside" because its straight path from ``start`` comes
    within QUERY_BAND of the fold."""
    along = path_distances(name, start, q)
    return bool(kind != "inside" and along[-1] >= QUERY_BAND
                and along.min() < QUERY_BAND)


# ---------------------------------------------------------------------------
# dump: sigma/surface points, characteristics, envelope, blow-up time

def parse_points_csv(text: str):
    """(header, rows of floats, kinds) of a singular/points CSV dump."""
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows, kinds = [], []
    for line in lines[1:]:
        *vals, kind = line.split(",")
        rows.append([float(v) for v in vals])
        kinds.append(kind)
    return header, np.array(rows, dtype=float).reshape(-1, len(header) - 1), kinds


def _near(fn, points: np.ndarray, dist: float) -> np.ndarray:
    """Rows of ``points`` whose first-order distance |fn| / |grad fn| to
    the zero set of ``fn`` is at most ``dist``."""
    cols = [points[:, k] for k in range(points.shape[1])]
    return np.abs(fn(cols)) <= dist * _grad_norm(fn, cols)


def check_points(name: str, box: dict, resolution: int, text: str):
    """sigma rows lie on the closed-form fold and surface, where the surface
    function is also flat in u; surface rows lie within two cell diagonals
    of the surface or of F's pole set.

    Returns (errors, number of surface vertices that sit on the pole set
    rather than on the surface).
    """
    _, points, kinds = parse_points_csv(text)
    kinds = np.array(kinds, dtype=object)
    ranges = [box["t"]] + [tuple(r) for r in box["x"]] + [box["u"]]
    diag = math.hypot(*((hi - lo) / resolution for lo, hi in ranges))
    errors = []
    unknown = set(kinds.tolist()) - {"surface", "sigma", "sigma-degenerate"}
    if unknown:
        errors.append(f"{name}: unknown point kinds {sorted(unknown)}")
    for p in points[(kinds == "sigma") | (kinds == "sigma-degenerate")]:
        g = fold_margin(name, p[:-1])
        hi, lo = p.copy(), p.copy()
        hi[-1] += _FD_STEP
        lo[-1] -= _FD_STEP
        slope = (surface_function(name, hi) - surface_function(name, lo)) \
            / (2.0 * _FD_STEP)
        if (abs(g) > SIGMA_TOL or abs(surface_function(name, p)) > SIGMA_TOL
                or abs(slope) > SIGMA_SLOPE_TOL):
            errors.append(f"{name}: sigma point {p.tolist()} is off the "
                          f"fold (margin {g:.3e}, d/du {slope:.3e})")
    surface = points[kinds == "surface"]
    on_surface = _near(lambda c: surface_function(name, c), surface,
                       2.0 * diag)
    on_pole = np.zeros(len(surface), dtype=bool)
    if pole_function(name, surface.T) is not None:
        on_pole = ~on_surface & _near(lambda c: pole_function(name, c),
                                      surface, 2.0 * diag)
    stray = surface[~on_surface & ~on_pole]
    if len(stray):
        errors.append(f"{name}: {len(stray)} surface vertices off the "
                      f"surface, e.g. {stray[0].tolist()}")
    if name != "ode_quadratic" and not np.any(kinds == "sigma"):
        errors.append(f"{name}: no sigma points")
    return errors[:6], int(np.count_nonzero(on_pole))


def check_characteristic(name: str, csv_text: str) -> list[str]:
    """Closed-form first integrals stay constant along one curve."""
    lines = csv_text.strip().splitlines()
    states = np.array([[float(v) for v in line.split(",")[1:]]
                       for line in lines[1:]])
    if len(states) < 2:
        return [f"{name}: characteristic has {len(states)} states"]
    start = first_integrals(name, states[0])
    for state in states[1:]:
        for r0, r in zip(start, first_integrals(name, state)):
            if abs(r - r0) > INTEGRAL_TOL * (1.0 + abs(r0)):
                return [f"{name}: first integral drifts from {r0!r} to {r!r} "
                        f"at {state.tolist()}"]
    return []


def check_envelope(name: str, csv_text: str, s_range) -> list[str]:
    """Envelope rows (s, t*, x*) against t* = -1/g'(s), x* = s + g(s) t*."""
    lines = csv_text.strip().splitlines()
    rows = [[float(v) for v in line.split(",")[:3]] for line in lines[1:]]
    if not rows:
        return [f"{name}: empty envelope"]
    for s, t, x in rows:
        g, gp = law_slope(name, s)
        t_true = -1.0 / gp
        x_true = s + g * t_true
        if (abs(t - t_true) > ENVELOPE_TOL * (1.0 + abs(t_true))
                or abs(x - x_true) > ENVELOPE_TOL * (1.0 + abs(x_true))):
            return [f"{name}: envelope ({s}, {t}, {x}) != closed form "
                    f"({t_true}, {x_true})"]
    if not math.isclose(rows[0][0], s_range[0]) or not math.isclose(
            rows[-1][0], s_range[1]):
        return [f"{name}: envelope does not span s_range {list(s_range)}"]
    return []


def check_blowup(name: str, value: float, s_range) -> list[str]:
    expect = blowup_truth(name, s_range)
    if not abs(value - expect) <= BLOWUP_TOL * expect:
        return [f"{name}: blowup_time {value!r}, closed form {expect!r}"]
    return []


def check_verify(name: str, verify_text: str) -> list[str]:
    doc = json.loads(verify_text)
    if not doc["rho"] or not all(r["pass"] for r in doc["rho"]):
        return [f"{name}: verify.json reports a failed first integral"]
    return []

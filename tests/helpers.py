"""Shared test utilities: example pipelines, generators, and oracles."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest

import charmax
from charmax import domain, locus
from charmax.domain import contains, maximal_domain
from charmax.expr import (Binary, Const, EvalDomainError, Unary, Var, diff,
                          evaluate, var_names, variables)
from charmax.integrals import implicit_solution_for_problem
from charmax.locus import (LevelSurface, SurfaceComponent, _classify_cells,
                           _grid_values, cell_of, extract_singular_locus,
                           extract_surface, split_component)
from charmax.problem import load_problem_bundle

EXAMPLES = ("ode_quadratic", "circular", "burgers_ramp", "burgers_reciprocal")


def bundle(name: str):
    return load_problem_bundle(charmax.problem_path(name))


def solution(name: str):
    b = bundle(name)
    rho_set, sol = implicit_solution_for_problem(b.problem, b.data, b.rho, b.f)
    return b, rho_set, sol


def pipeline(name: str, resolution: int):
    """Full grid pipeline: (bundle, solution, surface, sigma, component,
    domain)."""
    b, _, sol = solution(name)
    surface = extract_surface(sol.F, b.problem.box, resolution)
    sigma = extract_singular_locus(sol.F, surface)
    component = split_component(surface, sigma, sol.gamma_samples)
    dom = maximal_domain(component, sigma)
    return b, sol, surface, sigma, component, dom


def binding_at(point, n: int) -> dict[str, float]:
    """The binding of t, x1..xn, u to the coordinates of ``point``."""
    return dict(zip(var_names(n), np.asarray(point, dtype=float).tolist()))


def contains_cell(dom, base_point) -> bool:
    """Whether the base cell holding ``base_point`` is in the domain mask;
    a point off the grid, on or past its last vertex included, is in no
    cell."""
    cell = cell_of(dom.axes, base_point)
    lo = np.array([ax[0] for ax in dom.axes])
    step = np.array([ax[1] - ax[0] for ax in dom.axes])
    idx = np.floor((np.asarray(base_point, dtype=float) - lo) / step)
    return bool(np.all(idx == cell)) and bool(dom.mask[cell])


def fold_discriminant(F, point, displacement) -> float:
    """Discriminant of the local quadratic model of F in u, evaluated at
    pi(point) + displacement with u frozen at the point's u.

    A sign change of this quantity across the projected singular point is
    the fold test: the two u-branches of the surface merge there.
    """
    F_u = diff(F, "u")
    F_uu = diff(F_u, "u")
    base = list(point)
    for k, d in enumerate(displacement):
        base[k] += d
    b = binding_at(base, len(point) - 2)
    fv = evaluate(F, b)
    fu = evaluate(F_u, b)
    fuu = evaluate(F_uu, b)
    return fu * fu - 2.0 * fv * fuu


def sigma_cells_oracle(surface, sigma) -> set:
    """The singular cells split_component removes, built point by point
    with scalar cell_of: the seed cells plus the cells of every polished
    sigma point and polyline point."""
    cells = {tuple(c) for c in sigma.seed_cells.tolist()}
    for line in (sigma.points, *sigma.polylines):
        cells.update(cell_of(surface.axes, p) for p in line)
    return cells


def projection_by_cells(component):
    """Reference for maximal_domain's projection, one cell at a time: the
    base mask, the first base cell whose u-column is not one unbroken run
    (None if every column is), and the window outline as (base cell,
    axis, step) sides of masked cells facing neither a masked nor a
    singular base cell."""
    columns: dict[tuple, list[int]] = {}
    for cell in component.cells.tolist():
        columns.setdefault(tuple(cell[:-1]), []).append(cell[-1])
    shape = component.mask.shape[:-1]
    mask = np.zeros(shape, dtype=bool)
    split = None
    for base, ius in columns.items():
        if split is None and max(ius) - min(ius) + 1 != len(ius):
            split = base
        mask[base] = True
    sigma_base = {tuple(c[:-1])
                  for c in np.argwhere(component.sigma_cells).tolist()}
    outline = []
    for base in map(tuple, np.argwhere(mask).tolist()):
        for axis in range(len(shape)):
            for step in (-1, 1):
                nb = list(base)
                nb[axis] += step
                nb = tuple(nb)
                if 0 <= nb[axis] < shape[axis] and (mask[nb]
                                                    or nb in sigma_base):
                    continue
                outline.append((base, axis, step))
    return mask, split, outline


def fold_lines_by_points(component, sigma) -> list:
    """Reference for the fold boundary, one sigma point at a time: the
    (t, x) projections of the polyline points in a singular cell or in a
    cell sharing a facet with the component, or, when no polyline keeps a
    point, of the sigma points in a singular cell."""
    axes, comp = component.surface.axes, component.mask
    singular = set(map(tuple, np.argwhere(component.sigma_cells).tolist()))

    def touching(cell):
        for axis in range(comp.ndim):
            for step in (-1, 1):
                nb = list(cell)
                nb[axis] += step
                if 0 <= nb[axis] < comp.shape[axis] and comp[tuple(nb)]:
                    return True
        return False

    lines = []
    for line in sigma.polylines:
        keep = [p[:-1].tolist() for p in line
                if cell_of(axes, p) in singular or touching(cell_of(axes, p))]
        if keep:
            lines.append(keep)
    if not lines:
        keep = [p[:-1].tolist() for p in sigma.points
                if cell_of(axes, p) in singular]
        if keep:
            lines.append(keep)
    return lines


# ---------------------------------------------------------------------------
# References for the sigma stage: the full grid and one seed at a time

def seed_cells_by_grid(F_u, surface):
    """Reference for locus._seed_cells: F_u on every grid vertex, and the
    crossing cells where it changes sign by _classify_cells."""
    values, valid = _grid_values(F_u, surface.axes, surface.dim - 2)
    fu_crossing, _ = _classify_cells(values, valid, surface.dim)
    return np.argwhere(surface.crossing & fu_crossing)


def _polish_seed(sys, center, box):
    """One seed's polish by locus._damped_newton, in the two coordinates
    across the curve (the tangent's largest component frozen), or None."""
    dim = sys.n + 2
    if dim == 2:
        free = [0, 1]
    else:
        t = sys.tangent(center)
        if t is None:
            # fall back to freezing u; the rank check flags degeneracy later
            free = [0, 1]
        else:
            frozen = int(np.argmax(np.abs(t)))
            free = [i for i in range(dim) if i != frozen]

    base = np.asarray(center, dtype=float)

    def embed(xy):
        p = base.copy()
        p[free] = xy
        return p

    def res(xy):
        return sys.residual(embed(xy))

    def jac(xy):
        J = sys.jacobian2(embed(xy))
        return None if J is None else J[:, free]

    sol = locus._damped_newton(res, jac, base[free])
    if sol is None:
        return None
    point = embed(sol)
    return point if box.contains(point, atol=1e-12) else None


def polish_seed_by_seed(sys, centers, box):
    """Reference for locus._polish: _polish_seed on each centre in turn.
    Returns the (k, dim) points, NaN for failed seeds, and the (k,) mask
    of the seeds that converged."""
    points = np.full(np.shape(centers), np.nan)
    ok = np.zeros(len(points), dtype=bool)
    for i, center in enumerate(centers):
        point = _polish_seed(sys, center, box)
        if point is not None:
            points[i], ok[i] = point, True
    return points, ok


def degenerate_point_by_point(sys, points):
    """Reference for locus._degenerate: one SVD per point."""
    flags = []
    for point in points:
        J = sys.jacobian2(point)
        if J is None:
            flags.append(True)
            continue
        sv = np.linalg.svd(J, compute_uv=False)
        flags.append(bool(sv[-1] <= locus.DEGENERATE_RATIO
                          * max(sv[0], 1e-300)))
    return np.array(flags, dtype=bool)


def singular_locus_by_seed(F, surface):
    """extract_singular_locus with its seeds, polish and rank check
    replaced by the references above."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locus, "_seed_cells", seed_cells_by_grid)
        patch.setattr(locus, "_polish", polish_seed_by_seed)
        patch.setattr(locus, "_degenerate", degenerate_point_by_point)
        return extract_singular_locus(F, surface)


# ---------------------------------------------------------------------------
# References for the compiled evaluation: tree walks on every call

def eval_arrays_by_tree(e, b):
    """Reference for compile's array back end: a tree walk over numpy
    arrays with no shared subtrees.  Returns (values, bad)."""
    no_bad = np.False_
    if isinstance(e, Const):
        return np.float64(e.value), no_bad
    if isinstance(e, Var):
        return np.asarray(b[e.name], dtype=float), no_bad
    if isinstance(e, Unary):
        v, bad = eval_arrays_by_tree(e.arg, b)
        if e.op == "neg":
            return -v, bad
        if e.op == "log":
            return np.log(v), bad | (v <= 0.0)
        if e.op == "sqrt":
            return np.sqrt(v), bad | (v < 0.0)
        return getattr(np, e.op)(v), bad
    l, lbad = eval_arrays_by_tree(e.left, b)
    r, rbad = eval_arrays_by_tree(e.right, b)
    bad = lbad | rbad
    if e.op == "+":
        return l + r, bad
    if e.op == "-":
        return l - r, bad
    if e.op == "*":
        return l * r, bad
    if e.op == "/":
        return l / r, bad | (r == 0.0)
    viol = ((l < 0.0) & (r != np.floor(r))) | ((l == 0.0) & (r < 0.0))
    return np.power(l, r), bad | viol


def compile_by_tree(exprs, names):
    """Stands in for expr.compile: evaluate on every call."""
    def by_tree(*values):
        binding = dict(zip(names, values))
        return tuple(evaluate(e, binding) for e in exprs)
    return by_tree


def newton_u_by_tree(F, F_u, binding: dict, u: float, tol: float,
                     maxit: int, max_step: float = math.inf):
    """Reference for integrals._newton_u: plain Newton in u for F = 0 at
    the base point held in ``binding``, one evaluate call per tree and
    iterate.  Returns (u, F_u at u, ok)."""
    binding["u"] = u
    try:
        r = evaluate(F, binding)
    except EvalDomainError:
        return u, None, False
    for _ in range(maxit):
        try:
            fu = evaluate(F_u, binding)
        except EvalDomainError:
            return binding["u"], None, False
        if abs(r) <= tol:
            return binding["u"], fu, True
        if fu == 0.0 or not np.isfinite(fu):
            return binding["u"], fu, False
        step = r / fu
        if abs(step) > max_step:
            return binding["u"], fu, False
        binding["u"] -= step
        try:
            r = evaluate(F, binding)
        except EvalDomainError:
            return binding["u"], fu, False
    try:
        fu = evaluate(F_u, binding)
    except EvalDomainError:
        fu = None
    return binding["u"], fu, abs(r) <= tol


# ---------------------------------------------------------------------------
# Reference for the continuation march: step halving to MIN_FRACTION, then a
# fixed 60-step bisection of the failing step for the onset, on numpy path
# points, without a bound on the number of steps

def march_with_bisection(problem, sol, waypoints, u0):
    """Stands in for domain._march."""
    names = var_names(problem.n)
    pts = [np.asarray(w, dtype=float) for w in waypoints]
    legs = [np.linalg.norm(b - a) for a, b in zip(pts, pts[1:])]
    total = float(sum(legs))
    end = pts[-1].tolist()
    if total == 0.0:
        u, fu, ok = domain._corrector(sol, end, u0)
        if ok and abs(fu) >= domain._singular_threshold(
                sol.grad_values(*end, u)):
            return domain.Verdict("inside", u, fu, tuple(pts[-1]))
        return domain.Verdict("boundary", None, fu, tuple(pts[-1]))

    def at(s: float) -> np.ndarray:
        acc = 0.0
        for a, b, L in zip(pts, pts[1:], legs):
            if s <= acc + L or L == 0.0:
                frac = 0.0 if L == 0.0 else (s - acc) / L
                return a + frac * (b - a)
            acc += L
        return pts[-1]

    base_binding = dict(zip(names, [*pts[0].tolist(), u0]))
    fu_sign = 1.0 if evaluate(sol.F_u, base_binding) >= 0 else -1.0

    h = total * domain.INITIAL_FRACTION
    h_max = total * domain.MAX_FRACTION
    h_min = total * domain.MIN_FRACTION
    s_cur = 0.0
    u = u0
    while s_cur < total:
        s_next = min(s_cur + h, total)
        point = at(s_next).tolist()
        u_new, fu, ok = domain._corrector(sol, point, u)
        healthy = False
        if ok and fu is not None:
            threshold = domain._singular_threshold(
                sol.grad_values(*point, u_new))
            healthy = abs(fu) >= threshold and fu * fu_sign > 0
        if healthy:
            u = u_new
            s_cur = s_next
            h = min(h * 1.4, h_max)
            continue
        if h > h_min:
            h *= 0.5
            continue
        s_onset, fu_good, grad_scale = _refine_onset_by_bisection(
            sol, at, s_cur, s_next, u, fu_sign)
        relaxed = np.sqrt(domain.SINGULAR_FACTOR) * grad_scale
        if abs(fu_good) <= relaxed:
            if total - s_onset <= domain.BOUNDARY_FRACTION * total:
                return domain.Verdict("boundary", None, fu_good,
                                      tuple(at(s_onset)))
            return domain.Verdict("outside", None, fu_good,
                                  tuple(at(s_onset)))
        raise domain.PathLeftWindowError(
            f"corrector diverged at {at(s_onset).tolist()} with healthy "
            f"F_u = {fu_good:.3e}; box too small or F undefined along the path")
    grads = sol.grad_values(*end, u)
    fu = grads[-1]
    if abs(fu) < domain._singular_threshold(grads):
        return domain.Verdict("boundary", None, fu, tuple(pts[-1]))
    return domain.Verdict("inside", u, fu, tuple(pts[-1]))


def _refine_onset_by_bisection(sol, at, s_good, s_bad, u_good, fu_sign):
    """(onset parameter, F_u at the last trackable point, 1 + |grad F|
    there) by 60 bisection steps of (s_good, s_bad]."""
    u = u_good
    point = at(s_good).tolist()
    _, fu_good, _ = domain._corrector(sol, point, u)
    grads = sol.grad_values(*point, u)
    grad_scale = 1.0 + domain._grad_norm(grads)
    if fu_good is None:
        fu_good = grads[-1]
    for _ in range(60):
        mid = 0.5 * (s_good + s_bad)
        point = at(mid).tolist()
        u_new, fu, ok = domain._corrector(sol, point, u)
        if ok and fu is not None and fu * fu_sign > 0:
            grads = sol.grad_values(*point, u_new)
            if abs(fu) >= domain._singular_threshold(grads):
                s_good = mid
                u = u_new
                fu_good = fu
                grad_scale = 1.0 + domain._grad_norm(grads)
                continue
        s_bad = mid
    return s_bad, fu_good, grad_scale


# ---------------------------------------------------------------------------
# Reference for the cell pieces: marching squares and tetrahedra, one cell
# and one shape at a time

def _edge_zero(pa, va, pb, vb):
    s = va / (va - vb)
    return tuple(a + s * (b - a) for a, b in zip(pa, pb))


def _square_segments(vals, pts):
    """Segments for the ring 00, 10, 11, 01; a saddle is resolved by the
    bilinear centre value."""
    signs = [1 if v >= 0 else -1 for v in vals]
    zeros = [_edge_zero(pts[i], vals[i], pts[(i + 1) % 4], vals[(i + 1) % 4])
             for i in range(4) if signs[i] != signs[(i + 1) % 4]]
    if len(zeros) == 2:
        return [(zeros[0], zeros[1])]
    if len(zeros) == 4:
        center = sum(vals) / 4.0
        if (center >= 0) == (signs[0] > 0):
            # corners 00 and 11 join through the center
            return [(zeros[0], zeros[1]), (zeros[2], zeros[3])]
        return [(zeros[3], zeros[0]), (zeros[1], zeros[2])]
    return []


def _tet_triangles(vals, pts):
    signs = [1 if v >= 0 else -1 for v in vals]
    pos = [i for i in range(4) if signs[i] > 0]
    negs = [i for i in range(4) if signs[i] < 0]
    if not pos or not negs:
        return []
    if len(pos) == 1 or len(negs) == 1:
        lone = pos[0] if len(pos) == 1 else negs[0]
        others = [i for i in range(4) if i != lone]
        z = [_edge_zero(pts[lone], vals[lone], pts[o], vals[o])
             for o in others]
        return [(z[0], z[1], z[2])]
    a, b = pos
    c, d = negs
    q = [_edge_zero(pts[a], vals[a], pts[c], vals[c]),
         _edge_zero(pts[a], vals[a], pts[d], vals[d]),
         _edge_zero(pts[b], vals[b], pts[d], vals[d]),
         _edge_zero(pts[b], vals[b], pts[c], vals[c])]
    return [(q[0], q[1], q[2]), (q[0], q[2], q[3])]


def _cube_tets():
    """The six Kuhn tetrahedra: 0 -> e_s1 -> e_s1+e_s2 -> (1,1,1)."""
    tets = []
    for perm in permutations(range(3)):
        corner = [0, 0, 0]
        path = [tuple(corner)]
        for axis in perm:
            corner[axis] = 1
            path.append(tuple(corner))
        tets.append(tuple(path))
    return tets


def cell_pieces_by_cells(surface):
    """Reference for locus.cell_pieces, one crossing cell at a time: the
    (k, slots, width, dim) pieces and (k, slots) use mask, two slots per
    square or per Kuhn tetrahedron, and the patch vertices, the stacked
    vertices of each cell's pieces."""
    dim, axes, values = surface.dim, surface.axes, surface.values
    cells = surface.cells.tolist()
    if dim == 2:
        shapes, pieces_of = [((0, 0), (1, 0), (1, 1), (0, 1))], _square_segments
    else:
        shapes, pieces_of = _cube_tets(), _tet_triangles
    pieces = np.zeros((len(cells), 2 * len(shapes), dim, dim))
    used = np.zeros(pieces.shape[:2], dtype=bool)
    chunks = []
    for k, cell in enumerate(cells):
        for j, shape in enumerate(shapes):
            corners = [[c + o for c, o in zip(cell, off)] for off in shape]
            vals = [values[tuple(c)] for c in corners]
            pts = [tuple(ax[i] for ax, i in zip(axes, c)) for c in corners]
            for slot, piece in enumerate(pieces_of(vals, pts), start=2 * j):
                pieces[k, slot] = piece
                used[k, slot] = True
                chunks.append(np.array(piece, dtype=float))
    vertices = (np.vstack(chunks) if chunks else np.zeros((0, dim)))
    return pieces, used, vertices


def grid_surface(values, lows=None, highs=None):
    """A LevelSurface over a hand-made array of vertex values, all valid,
    classified the way extract_surface classifies them."""
    values = np.asarray(values, dtype=float)
    lows = [-1.0] * values.ndim if lows is None else lows
    highs = [1.0] * values.ndim if highs is None else highs
    axes = tuple(np.linspace(lo, hi, k)
                 for lo, hi, k in zip(lows, highs, values.shape))
    valid = np.ones(values.shape, dtype=bool)
    crossing, all_ok = _classify_cells(values, valid, values.ndim)
    return LevelSurface(None, None, values.shape[0] - 1, axes, values, valid,
                        crossing, np.argwhere(~all_ok))


# ---------------------------------------------------------------------------
# Hand-made components on the integer grid

def drawn_masks(picture: str, u_cells: int = 2):
    """(component mask, singular-cell mask) from a drawing of base cells:
    one line per t cell and one character per x cell, or a single line of
    t cells for a 1-D base.  '#' is a component cell and 's' a singular
    cell, both in u-cell 0; '.' is neither."""
    lines = picture.split()
    base = np.array([list(line) for line in lines])
    if len(lines) == 1:
        base = base[0]
    mask = np.zeros(base.shape + (u_cells,), dtype=bool)
    sigma_cells = np.zeros_like(mask)
    mask[..., 0] = base == "#"
    sigma_cells[..., 0] = base == "s"
    return mask, sigma_cells


def hand_component(mask, sigma_cells=None, gamma_cells=None):
    """A SurfaceComponent over a hand-made cell mask, on a grid whose vertex
    coordinates are 0, 1, 2, ... on every axis.  The initial set defaults
    to the first component cell."""
    mask = np.asarray(mask, dtype=bool)
    axes = tuple(np.arange(k + 1, dtype=float) for k in mask.shape)
    surface = LevelSurface(None, None, mask.shape[0], axes, None, None, mask,
                           np.zeros((0, mask.ndim), int))
    if sigma_cells is None:
        sigma_cells = np.zeros_like(mask)
    if gamma_cells is None:
        gamma_cells = [tuple(np.argwhere(mask)[0].tolist())]
    return SurfaceComponent(surface, mask, gamma_cells, sigma_cells)


# ---------------------------------------------------------------------------
# Closed-form truths for the bundled examples

def true_inside(name: str, q) -> float:
    """Signed closed-form margin: positive inside the maximal domain."""
    if name == "ode_quadratic":
        return 1.0 - q[0]
    if name == "circular":
        t, x = q
        return 1.0 - t * t - x ** 3
    if name == "burgers_ramp":
        return 0.5 - q[0]
    if name == "burgers_reciprocal":
        t, x = q
        return (x + 1.0) ** 2 / 4.0 - t
    raise ValueError(name)


def true_u(name: str, q) -> float:
    if name == "ode_quadratic":
        return 1.0 / (1.0 - q[0])
    if name == "circular":
        t, x = q
        return math.sqrt(1.0 - t * t - x ** 3)
    if name == "burgers_ramp":
        t, x = q
        return -2.0 * x / (1.0 - 2.0 * t)
    if name == "burgers_reciprocal":
        t, x = q
        if t == 0.0:
            return 1.0 / (x + 1.0)
        return (x + 1.0 - math.sqrt((x + 1.0) ** 2 - 4.0 * t)) / (2.0 * t)
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Query-based boundary location

def verdict_transition(problem, data, sol, q_of, lo, hi, steps=60):
    """Bisect the parameter of the inside->not-inside transition of
    contains along a query path q_of(parameter)."""
    v_lo = contains(problem, data, sol, q_of(lo))
    v_hi = contains(problem, data, sol, q_of(hi))
    assert v_lo.kind == "inside", f"expected inside at {lo}, got {v_lo.kind}"
    assert v_hi.kind != "inside", f"expected not-inside at {hi}"
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if contains(problem, data, sol, q_of(mid)).kind == "inside":
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Geometry helpers

def point_segment_distance(p, a, b) -> float:
    p, a, b = map(np.asarray, (p, a, b))
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    s = float(np.clip(np.dot(p - a, ab) / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + s * ab)))


def point_polyline_distance(p, line) -> float:
    line = np.asarray(line)
    if len(line) == 1:
        return float(np.linalg.norm(np.asarray(p) - line[0]))
    return min(point_segment_distance(p, a, b)
               for a, b in zip(line[:-1], line[1:]))


# ---------------------------------------------------------------------------
# Random expression generator (deterministic, tame by construction)

def random_expr(rng: np.random.Generator, var_pool, depth: int,
                func_budget: int = 2):
    """Expression sampled the way the parser would build it: no Neg
    directly wrapping a Const, constants kept small."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(round(float(rng.uniform(-2.5, 2.5)), 3))
        return Var(str(rng.choice(var_pool)))
    roll = rng.random()
    if roll < 0.62:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return Binary(op, random_expr(rng, var_pool, depth - 1, func_budget),
                      random_expr(rng, var_pool, depth - 1, func_budget))
    if roll < 0.74:
        exponent = Const(float(rng.integers(2, 4)))
        return Binary("^", random_expr(rng, var_pool, depth - 1, func_budget),
                      exponent)
    if roll < 0.86 and func_budget > 0:
        name = str(rng.choice(["exp", "log", "sin", "cos", "sqrt"]))
        return Unary(name, random_expr(rng, var_pool, depth - 1,
                                       func_budget - 1))
    inner = random_expr(rng, var_pool, depth - 1, func_budget)
    if isinstance(inner, Const):
        return Const(-inner.value)
    return Unary("neg", inner)


def fd_pair(rng: np.random.Generator, n: int, step: float = 1e-5,
            max_tries: int = 400):
    """One (expr, var, point) sample at which the central-difference oracle
    is numerically meaningful: finite, bounded values and a bounded
    third-derivative estimate."""
    from charmax.expr import diff

    pool = list(_var_pool(n))
    for _ in range(max_tries):
        e = random_expr(rng, pool, depth=4)
        used = sorted(variables(e))
        if not used:
            continue
        v = str(rng.choice(used))
        point = {name: float(rng.uniform(-2.0, 2.0)) for name in pool}
        try:
            de = diff(e, v)
            samples = {}
            for k in (-2, -1, 0, 1, 2):
                p = dict(point)
                p[v] += k * step
                samples[k] = evaluate(e, p)
            dval = evaluate(de, point)
        except Exception:
            continue
        if not all(np.isfinite(val) and abs(val) < 1e3
                   for val in samples.values()):
            continue
        if not (np.isfinite(dval) and abs(dval) < 1e3):
            continue
        # third-derivative estimate at a coarser step bounds the FD
        # truncation error independently of the tested identity
        third = (samples[2] - 2 * samples[1] + 2 * samples[-1]
                 - samples[-2]) / (2 * step ** 3)
        if not np.isfinite(third) or abs(third) > 1e4:
            continue
        return e, v, point, samples, dval
    raise RuntimeError("generator failed to find a tame sample")


def _var_pool(n: int):
    from charmax.expr import var_names
    return var_names(n)


def central_difference(samples: dict, step: float) -> float:
    return (samples[1] - samples[-1]) / (2.0 * step)

"""Shared test utilities: example pipelines, generators, and oracles."""

from __future__ import annotations

import dataclasses
import math
import types
from itertools import accumulate, chain, permutations, product
from operator import mul

import numpy as np
import pytest

import charmax
from charmax import domain, integrals, locus
from charmax.domain import (BLOW_UP, BOUNDARY_FRACTION, CORRECTOR_MAXIT,
                            EDGE_FRACTION, EDGE_STEPS, FOLD_CONTRACTION,
                            FOLD_MAXIT, FOLD_PROBES, INITIAL_FRACTION,
                            MARGIN_STEPS, MAX_FRACTION, MAX_MARCH_STEPS,
                            MIN_FRACTION, SINGULAR_FACTOR, SOLVE_TOL,
                            PathLeftWindowError, ProjectionError, Verdict,
                            contains, maximal_domain)
from charmax.expr import (Binary, Const, EvalDomainError, Unary, Var, diff,
                          evaluate, evaluate_grid, parse, var_names,
                          variables)
from charmax.expr import compile as compile_exprs
from charmax.integrals import (ImplicitSolutionError, apply_field,
                               implicit_solution_for_problem)
from charmax.locus import (LevelSurface, ResolutionError, SingularLocus,
                           SurfaceComponent, _classify_cells, cell_center,
                           cell_of, extract_singular_locus, extract_surface,
                           flood, split_component)
from charmax.problem import Box, load_problem_bundle, make_problem

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
    sigma = extract_singular_locus(sol, surface)
    component = split_component(surface, sigma, sol.gamma_samples)
    dom = maximal_domain(sol, component, sigma)
    return b, sol, surface, sigma, component, dom


def domain_on_tiles(problem, sol, resolution: int, tiled: bool):
    """The grid pipeline of `charmax domain` at ``resolution``, on the
    tiles that the initial set's flood reaches (``tiled``) or on the whole
    grid: (domain, sigma), or the ResolutionError or ProjectionError it
    raised, as text."""
    try:
        surface = extract_surface(sol.F, problem.box, resolution,
                                  sol.gamma_samples if tiled else None)
        sigma = extract_singular_locus(sol, surface)
        component = split_component(surface, sigma, sol.gamma_samples)
        return maximal_domain(sol, component, sigma), sigma
    except (ResolutionError, ProjectionError) as err:
        return f"{type(err).__name__}: {err}"


def assert_same_domain(got, want, fold_tol=1e-12):
    """Two results of domain_on_tiles: the same error, or the same mask,
    summary numbers, boundary kinds and window points, byte for byte, and
    fold points within ``fold_tol``."""
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (dom, sigma), (ref, ref_sigma) = got, want
    assert dom.mask.tobytes() == ref.mask.tobytes()
    assert dom.mask_area() == ref.mask_area()
    assert len(sigma.points) == len(ref_sigma.points)
    assert [(b.kind, b.points.shape) for b in dom.boundary] == [
        (b.kind, b.points.shape) for b in ref.boundary]
    for line, ref_line in zip(dom.boundary, ref.boundary):
        if line.kind == "window":
            assert line.points.tobytes() == ref_line.points.tobytes()
        else:
            assert np.abs(line.points - ref_line.points).max(
                initial=0.0) <= fold_tol


# u_t + a(u) u_x = 0, u(0, x) = h(x) on x in [-1.5, 1.5], in the box
# t in [-0.5, 1], x in [-2, 2], u in [-3, 3]
GENERATED_LAWS = [(a, h) for a in ("u", "u^2", "u^3/3", "exp(u)", "sin(u)",
                                   "u + 0.5*u^2")
                  for h in ("x", "1/(x+3)", "sin(x)", "exp(-x^2)", "0.5*x^3",
                            "log(x+3)", "sqrt(x+3)")]


def generated_law(a: str, h: str):
    """(problem, initial data, solution) of one of GENERATED_LAWS."""
    problem, data = make_problem(
        1, "1", [a], "0", h, Box((-0.5, 1.0), ((-2.0, 2.0),), (-3.0, 3.0)),
        s_range=((-1.5, 1.5),))
    _, sol = implicit_solution_for_problem(problem, data)
    return problem, data, sol


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


def cells_touching_point_by_point(axes, point) -> list[tuple]:
    """Reference for locus._cells_touching, one point at a time: all cells
    whose closed region contains the point (a point on a vertex plane
    belongs to both neighbours), in lexicographic order."""
    choices = []
    for ax, v, i in zip(axes, point, cell_of(axes, point)):
        frac = (v - ax[0]) / (ax[1] - ax[0])
        opts = {i}
        if abs(frac - round(frac)) < 1e-9:
            j = int(round(frac))
            opts.update(c for c in (j - 1, j) if 0 <= c <= len(ax) - 2)
        choices.append(sorted(opts))
    return list(product(*choices))


def sigma_cells_oracle(surface, sigma) -> set:
    """The singular cells split_component removes, built point by point
    with scalar cell_of: the seed cells plus the cells of every polished
    sigma point."""
    cells = {tuple(c) for c in sigma.seed_cells.tolist()}
    cells.update(cell_of(surface.axes, p) for p in sigma.points)
    return cells


def projection_by_cells(component):
    """Reference for maximal_domain's projection, one cell at a time: the
    base mask, and the first base cell whose u-column is not one unbroken
    run (None if every column is)."""
    columns: dict[tuple, list[int]] = {}
    for cell in component.cells.tolist():
        columns.setdefault(tuple(cell[:-1]), []).append(cell[-1])
    mask = np.zeros(component.mask.shape[:-1], dtype=bool)
    split = None
    for base, ius in columns.items():
        if split is None and max(ius) - min(ius) + 1 != len(ius):
            split = base
        mask[base] = True
    return mask, split


def _facet_neighbours(cell, shape):
    """The cells sharing a facet with ``cell`` on a grid of ``shape``."""
    for axis in range(len(shape)):
        for step in (-1, 1):
            nb = list(cell)
            nb[axis] += step
            if 0 <= nb[axis] < shape[axis]:
                yield tuple(nb)


def fold_lines_by_points(component, sigma) -> list:
    """Reference for the fold boundary, one sigma point at a time: the
    (t, x) projections of the sigma points whose cell is joined to a
    singular cell beside the component through singular cells sharing a
    facet, by a breadth-first search over the whole set of singular cells,
    as one line or none."""
    axes, comp = component.surface.axes, component.mask
    singular = set(map(tuple, np.argwhere(component.sigma_cells).tolist()))
    queue = [cell for cell in sorted(singular)
             if any(comp[nb] for nb in _facet_neighbours(cell, comp.shape))]
    linked = set(queue)
    while queue:
        for nb in _facet_neighbours(queue.pop(), comp.shape):
            if nb in singular and nb not in linked:
                linked.add(nb)
                queue.append(nb)
    keep = [p[:-1].tolist() for p in sigma.points
            if cell_of(axes, p) in linked]
    return [keep] if keep else []


def window_points_by_cells(F, component) -> np.ndarray:
    """Reference for maximal_domain's window points, one cell at a time:
    per edge of a component cell that lies in a box face (on another axis
    its lower vertex is on the first or last vertex plane), F at its ends
    by scalar evaluate; where exactly one end is >= 0, the zero by
    bisection down to adjacent floats, kept where |F| there is no larger
    than the smaller of |F| at the two ends (not a pole) and F evaluates
    at every step.  The base projections, in (lower vertex, axis) order."""
    surface = component.surface
    shape = surface.state.shape
    n = len(shape) - 2
    found = {}

    def at(low, axis, value):
        p = [ax[i] for ax, i in zip(surface.axes, low)]
        p[axis] = value
        return p, evaluate(F, binding_at(p, n))

    for cell in component.cells.tolist():
        for corner in product((0, 1), repeat=len(shape)):
            low = tuple(c + o for c, o in zip(cell, corner))
            for axis in range(len(shape)):
                if corner[axis] or (low, axis) in found or not any(
                        low[a] in (0, shape[a])
                        for a in range(len(shape)) if a != axis):
                    continue
                ax = surface.axes[axis]
                lo, hi = ax[low[axis]], ax[low[axis] + 1]
                try:
                    (p, f_lo), (_, f_hi) = at(low, axis, lo), at(low, axis,
                                                                   hi)
                    if (f_lo >= 0.0) == (f_hi >= 0.0):
                        continue
                    bound = min(abs(f_lo), abs(f_hi))
                    while lo < (mid := 0.5 * (lo + hi)) < hi:
                        if (at(low, axis, mid)[1] >= 0.0) == (f_lo >= 0.0):
                            lo = mid
                        else:
                            hi = mid
                    best = min(at(low, axis, lo), at(low, axis, hi),
                               key=lambda pf: abs(pf[1]))
                except EvalDomainError:
                    continue
                if abs(best[1]) <= bound:
                    found[(low, axis)] = best[0][:-1]
    return np.array([found[k] for k in sorted(found)]).reshape(
        -1, len(shape) - 1)


def off_the_faces(points, box, on_u_face) -> list:
    """The base points that lie on no t- or x-face of the box to 1e-12 and
    for which ``on_u_face`` (the point, the u-face value) holds at neither
    u-face."""
    ranges = [box.t, *box.x]
    return [q for q in np.asarray(points).tolist()
            if not any(abs(v - end) <= 1e-12
                       for v, r in zip(q, ranges) for end in r)
            and not any(on_u_face(q, end) for end in box.u)]


def window_off_the_faces(sol, box, result) -> list:
    """The window points of a domain_on_tiles result that off_the_faces
    finds, with F within 1e-10 of 0 at the point on a u-face; none for an
    error."""
    if isinstance(result, str):
        return []

    def on_u_face(q, end):
        try:
            return abs(evaluate(sol.F, binding_at([*q, end], box.n))) <= 1e-10
        except EvalDomainError:
            return False

    return off_the_faces([p for line in result[0].boundary
                          if line.kind == "window" for p in line.points],
                         box, on_u_face)


def shifted(mask, axis: int, step: int) -> np.ndarray:
    """The mask's value at each cell's neighbour one cell up (``step`` 1)
    or down (``step`` -1) along ``axis``; False where that neighbour is
    off the grid."""
    out = np.zeros_like(mask)
    lower, upper = slice(None, -1), slice(1, None)
    near, far = (lower, upper) if step > 0 else (upper, lower)
    at = (slice(None),) * axis
    out[at + (near,)] = mask[at + (far,)]
    return out


def u_runs_by_shifted_masks(mask) -> np.ndarray:
    """Reference for maximal_domain's u-run count, by three dense passes
    over the cell mask: per base column, the cells whose lower neighbour
    in u is not a cell, the column's first cell included."""
    return mask[..., 0] + np.count_nonzero(mask[..., 1:] & ~mask[..., :-1],
                                           axis=-1)


def mask_runs_by_cells(mask) -> list:
    """Reference for the mask rows of MaximalDomain.to_json, one cell at a
    time: per row of the mask (the first axis, the rest flattened), the
    [start, length] runs of True cells."""
    rows = []
    for row in mask.reshape(mask.shape[0], -1):
        runs = []
        start = None
        for j, v in enumerate(row.tolist() + [False]):
            if v and start is None:
                start = j
            elif not v and start is not None:
                runs.append([start, j - start])
                start = None
        rows.append(runs)
    return rows


# ---------------------------------------------------------------------------
# References for the sigma stage: the full grid and one seed at a time

def classify_cells_by_corners(values, valid, dim):
    """Reference for locus._classify_cells: one slice per cell corner, its
    validity and sign flags folded into the cell masks."""
    cell_shape = tuple(s - 1 for s in values.shape)
    all_ok = np.ones(cell_shape, dtype=bool)
    has_pos = np.zeros(cell_shape, dtype=bool)
    has_neg = np.zeros(cell_shape, dtype=bool)
    for offs in product((0, 1), repeat=dim):
        sl = tuple(slice(1, None) if o else slice(None, -1) for o in offs)
        v = values[sl]
        ok = valid[sl]
        all_ok &= ok
        has_pos |= ok & (v >= 0.0)
        has_neg |= ok & (v < 0.0)
    crossing = all_ok & has_pos & has_neg
    return crossing, all_ok


def seed_cells_by_grid(F_u, surface):
    """Reference for the seed cells of locus.extract_surface: F_u on every
    grid vertex, and the crossing cells where it changes sign by
    classify_cells_by_corners."""
    grids = np.meshgrid(*surface.axes, indexing="ij", sparse=True)
    values, valid = evaluate_grid(F_u, dict(zip(var_names(surface.dim - 2),
                                                grids)))
    fu_crossing, _ = classify_cells_by_corners(values, valid, surface.dim)
    return np.argwhere(surface.crossing & fu_crossing)


def seed_cells_by_unique(F_u, surface):
    """Reference for the seed cells of locus.extract_surface: F_u at the
    distinct corners of the crossing cells by np.unique, gathered back
    onto (k, 8) corners."""
    cells = np.argwhere(surface.crossing)
    shape = surface.values.shape
    offsets = np.array(list(product((0, 1), repeat=surface.dim)))
    corners = (np.ravel_multi_index(cells.T, shape)[:, None]
               + np.ravel_multi_index(offsets.T, shape))
    flat, inverse = np.unique(corners, return_inverse=True)
    coords = [ax[i] for ax, i in zip(surface.axes,
                                     np.unravel_index(flat, shape))]
    values, valid = evaluate_grid(F_u, dict(zip(var_names(surface.dim - 2),
                                                coords)))
    inverse = inverse.reshape(corners.shape)
    v = values[inverse]
    seed = (valid[inverse].all(axis=1) & (v >= 0.0).any(axis=1)
            & (v < 0.0).any(axis=1))
    return cells[seed]


def deduplicate_point_by_point(points, diag):
    """Reference for locus._deduplicate: each sorted point in turn, kept
    when it lies more than diag from every point kept before it."""
    kept = np.zeros(np.shape(points))
    count = 0
    for point in np.asarray(points).tolist():
        if np.all(np.linalg.norm(kept[:count] - point, axis=1) > diag):
            kept[count] = point
            count += 1
    return kept[:count]


def damped_newton_by_numpy(res_fn, jac_fn, x0, tol=locus.NEWTON_TOL,
                           maxit=locus.NEWTON_MAXIT):
    """Reference for locus._damped_newton: every test on the residual and
    the step by numpy calls."""
    x = np.asarray(x0, dtype=float).copy()
    r = res_fn(x)
    if r is None:
        return None
    for _ in range(maxit):
        nr = float(np.max(np.abs(r)))
        if nr <= tol:
            return x
        J = jac_fn(x)
        if J is None:
            return None
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        base = float(np.dot(r, r))
        lam = 1.0
        while lam > 2.0 ** -24:
            cand = x + lam * step
            rc = res_fn(cand)
            if rc is not None and float(np.dot(rc, rc)) <= (1 - 0.5 * lam) * base:
                x, r = cand, rc
                break
            lam *= 0.5
        else:
            return None
    return x if float(np.max(np.abs(r))) <= tol else None


def _polish_seed(sol, center, box):
    """One seed's polish by damped_newton_by_numpy, in the two coordinates
    across the curve (the tangent's largest component frozen), or None.
    (F, F_u) and its Jacobian are evaluated by the solution's array forms
    on one row at a time."""
    dim = sol.n + 2
    if dim == 2:
        free = [0, 1]
    else:
        t = tangent_by_numpy(sol, center)
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
        return residual_by_row(sol, embed(xy))

    def jac(xy):
        J = jacobian_by_row(sol, embed(xy))
        return None if J is None else J[:, free]

    root = damped_newton_by_numpy(res, jac, base[free])
    if root is None:
        return None
    point = embed(root)
    return point if contains_by_numpy(box, point, atol=1e-12) else None


def polish_seed_by_seed(sol, centers, box):
    """Reference for locus._polish: _polish_seed on each centre in turn.
    Returns the (k, dim) points, NaN for failed seeds, and the (k,) mask
    of the seeds that converged."""
    points = np.full(np.shape(centers), np.nan)
    ok = np.zeros(len(points), dtype=bool)
    for i, center in enumerate(centers):
        point = _polish_seed(sol, center, box)
        if point is not None:
            points[i], ok[i] = point, True
    return points, ok


def degenerate_point_by_point(sol, points):
    """Reference for locus._degenerate: one row evaluation and one SVD per
    point."""
    flags = []
    for point in points:
        J = jacobian_by_row(sol, point)
        if J is None:
            flags.append(True)
            continue
        sv = np.linalg.svd(J, compute_uv=False)
        flags.append(bool(sv[-1] <= locus.DEGENERATE_RATIO
                          * max(sv[0], 1e-300)))
    return np.array(flags, dtype=bool)


def evaluate_rows(fn, points, width: int):
    """Per-row reference for locus._rows: the scalar ``fn`` at each row of
    ``points``, the (k, width) values (0 where it fails) and the (k,) mask
    of the rows where it evaluated."""
    out = np.zeros((len(points), width))
    ok = np.ones(len(points), dtype=bool)
    for i, p in enumerate(points.tolist()):
        try:
            out[i] = fn(*p)
        except EvalDomainError:
            ok[i] = False
    return out, ok


def rows_by_row(fn, width: int):
    """Stands in for an array form of compile: the scalar ``fn`` at each
    row by evaluate_rows, every output flagged where it fails."""
    def rows(*columns):
        values, ok = evaluate_rows(fn, np.column_stack(columns), width)
        return [(v, ~ok) for v in values.T]
    return rows


def jacobian_trees(sol):
    """grad F and grad F_u, the trees of ``sol.jacobian_rows``."""
    return [*sol.gradient, *(diff(sol.F_u, v) for v in var_names(sol.n))]


def residual_by_row(sol, point):
    """(F, F_u) at the point by the solution's array form on one row, or
    None where it fails."""
    r, ok = locus._rows(sol.F_and_Fu_rows,
                        np.asarray(point, dtype=float)[None])
    return r[0] if ok[0] else None


def jacobian_by_row(sol, point):
    """The 2 x (n+2) Jacobian of (F, F_u) by the solution's array form on
    one row, or None where it fails."""
    J, ok = locus._rows(sol.jacobian_rows,
                        np.asarray(point, dtype=float)[None])
    return J[0].reshape(2, sol.n + 2) if ok[0] else None


def tangent_by_numpy(sol, point):
    """The unit tangent of the (F, F_u) = 0 curve for _polish_seed's free
    pair: np.cross of the rows of jacobian_by_row, over its
    np.linalg.norm; None where that fails, is zero or is not finite."""
    J = jacobian_by_row(sol, point)
    if J is None:
        return None
    t = np.cross(J[0], J[1])
    norm = np.linalg.norm(t)
    if norm == 0.0 or not np.isfinite(norm):
        return None
    return t / norm


def contains_by_numpy(box, point, atol=0.0):
    """Reference for Box.contains on one point: the array test."""
    p = np.asarray(point, dtype=float)
    return bool(np.all((p >= box.lows() - atol) & (p <= box.highs() + atol)))


def singular_locus_by_seed(sol, surface):
    """extract_singular_locus with the surface's seeds, polish and rank
    check replaced by the references above, the polish and the rank check
    one seed at a time on the array back end."""
    surface = dataclasses.replace(
        surface, seed_cells=seed_cells_by_grid(sol.F_u, surface))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locus, "_polish", polish_seed_by_seed)
        patch.setattr(locus, "_degenerate", degenerate_point_by_point)
        return extract_singular_locus(sol, surface)


def singular_locus_by_scalar_rows(sol, surface):
    """extract_singular_locus with the rows of the polish, its free pairs
    and the rank check evaluated one at a time on the scalar back end, by
    rows_by_row: the solution's array forms swapped for scalar ones of
    the same trees."""
    names = var_names(sol.n)
    jacobian = jacobian_trees(sol)
    scalar_rows = dataclasses.replace(
        sol, F_and_Fu_rows=rows_by_row(sol.F_and_Fu, 2),
        jacobian_rows=rows_by_row(compile_exprs(jacobian, names),
                                  len(jacobian)))
    return extract_singular_locus(scalar_rows, surface)


def flood_by_queue(mask, seeds, parents=False):
    """Reference for locus.flood: one FIFO queue, one cell at a time.  Of
    uint8 state codes, the OPEN cells are the mask, and it returns the
    states with the reached cells REACHED and their sorted flat indices."""
    mask = np.asarray(mask)
    codes = mask.dtype == np.uint8
    padded = np.pad(mask == locus.OPEN if codes else mask.astype(bool), 1)
    inside = padded.tobytes()
    offsets = [d for stride in padded.strides for d in (-stride, stride)]
    reached = bytearray(len(inside))
    queue, came_from = [], []
    for seed in seeds:
        i = int(np.ravel_multi_index(np.add(seed, 1), padded.shape))
        if inside[i] and not reached[i]:
            reached[i] = 1
            queue.append(i)
            came_from.append(-1)
    head = 0
    while head < len(queue):
        i = queue[head]
        for d in offsets:
            j = i + d
            if inside[j] and not reached[j]:
                reached[j] = 1
                queue.append(j)
                came_from.append(head)
        head += 1
    if parents:
        cells = np.array(np.unravel_index(np.array(queue, dtype=np.intp),
                                          padded.shape)).T - 1
        cells = [tuple(c) for c in cells.tolist()]
        return {c: cells[k] if k >= 0 else None
                for c, k in zip(cells, came_from)}
    interior = tuple(slice(1, -1) for _ in mask.shape)
    reached = np.frombuffer(reached, dtype=bool).reshape(padded.shape)
    reached = reached[interior].copy()
    if codes:
        return (np.where(reached, locus.REACHED, mask).astype(np.uint8),
                np.flatnonzero(reached))
    return reached


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
        if e.op in ("sin", "cos"):
            return getattr(np, e.op)(v), bad | np.isinf(v)
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


def nondegeneracy_point_by_point(rho_set, samples, n):
    """Reference for integrals.check_nondegeneracy: one SVD per sample."""
    names = var_names(n)
    jacobian = compile_exprs([diff(r, v) for r in rho_set.rho for v in names],
                             names)
    worst = None
    min_seen = np.inf
    excluded = []
    for point in np.asarray(samples, dtype=float):
        try:
            jac = np.array(jacobian(*point.tolist())).reshape(
                len(rho_set.rho), len(names))
        except EvalDomainError as err:
            excluded.append((point.tolist(), str(err)))
            continue
        bad = jac[~np.isfinite(jac)].tolist()
        if bad:
            excluded.append((point.tolist(),
                             f"non-finite Jacobian entry {bad[0]!r}"))
            continue
        sv = np.linalg.svd(jac, compute_uv=False)[-1]
        if sv < min_seen:
            min_seen = sv
            worst = point.tolist()
    ok = (bool(min_seen >= integrals.MIN_SINGULAR_VALUE)
          and not np.isinf(min_seen))
    return integrals.NondegeneracyReport(ok, float(min_seen), worst, excluded)


def flow_check_by_draws(F, gradient, fld, box, gamma):
    """Reference for integrals._check_flow_invariance: one random draw at
    a time, each projected by the scalar integrals._newton_u."""
    n = fld.n
    residual_terms = compile_exprs([apply_field(fld, F),
                                    *chain(*zip(fld.components, gradient))],
                                   var_names(n))
    F_and_Fu = compile_exprs([F, gradient[-1]], var_names(n))
    points = [p.tolist() for p in gamma]
    rng = np.random.default_rng(integrals._RNG_SEED)
    lows, highs = box.lows(), box.highs()
    attempts = 0
    while (len(points) < len(gamma) + integrals.FLOW_SAMPLES
           and attempts < 20 * integrals.FLOW_SAMPLES):
        attempts += 1
        draw = lows + rng.random(n + 2) * (highs - lows)
        u, _, ok = integrals._newton_u(F, F_and_Fu, draw[:-1].tolist(),
                                       float(draw[-1]),
                                       integrals.FLOW_NEWTON_TOL,
                                       integrals.FLOW_NEWTON_MAXIT,
                                       integrals.FLOW_NEWTON_MAX_STEP)
        if not ok:
            continue
        candidate = list(draw[:-1]) + [u]
        if box.contains(candidate):
            points.append(candidate)
    projected = len(points) - len(gamma)
    if projected < integrals.FLOW_SAMPLES // 2:
        raise ImplicitSolutionError(
            f"flow check projected only {projected} of "
            f"{integrals.FLOW_SAMPLES} surface points in {attempts} draws; "
            "the box holds too little of the surface to check flow "
            "invariance")
    worst, checked = 0.0, 0
    for point in points:
        try:
            r, *terms = residual_terms(*point)
        except EvalDomainError:
            continue
        if not all(np.isfinite([r, *terms])):
            continue
        r = abs(r)
        scale = 1.0
        for comp, g in zip(terms[::2], terms[1::2]):
            scale += abs(comp * g)
        if r > integrals.FLOW_TOL * scale:
            raise ImplicitSolutionError(
                f"zero set is not flow-invariant: |XF| = {r:.3e} "
                f"(scale {scale:.3e}) at {point}")
        worst = max(worst, r / scale)
        checked += 1
    if checked < integrals.FLOW_SAMPLES // 2:
        raise ImplicitSolutionError(
            f"flow residual evaluated at only {checked} of {len(points)} "
            "surface points; X F is undefined on too much of the surface")
    return worst, projected, attempts, checked


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
# References for the continuation march

def march_by_halving(sol, waypoints, u0):
    """Stands in for domain._march: the march without its fold, margin
    and edge searches, locating every onset by step halving.  Its steps
    stop at every waypoint and reject roots off the branch, as the
    march's do."""
    names = var_names(sol.n)
    pts = [tuple(float(c) for c in w) for w in waypoints]
    legs = [float(np.linalg.norm(np.subtract(b, a)))
            for a, b in zip(pts, pts[1:])]
    total = sum(legs)
    stops = list(accumulate(legs))
    end = pts[-1]

    def at(s: float) -> tuple:
        # the first leg that reaches s: a repeated waypoint, a leg of
        # length zero, holds no s past its start
        acc = 0.0
        for a, b, L in zip(pts, pts[1:], legs):
            if s <= acc + L:
                frac = 0.0 if L == 0.0 else (s - acc) / L
                return tuple(ai + frac * (bi - ai) for ai, bi in zip(a, b))
            acc += L
        return end

    # F_u alone, as other components of the gradient may fail to
    # evaluate on the initial set where F_u does not
    fu_good = evaluate(sol.F_u, dict(zip(names, [*pts[0], u0])))
    fu_sign = 1.0 if fu_good >= 0 else -1.0

    h = total * domain.INITIAL_FRACTION
    h_max = total * domain.MAX_FRACTION
    h_min = total * domain.MIN_FRACTION
    s_cur = 0.0
    u = u0
    grads = None               # at the last accepted point, as is fu_good
    steps = 0
    while s_cur < total:
        if steps == domain.MAX_MARCH_STEPS:
            raise domain.PathLeftWindowError(
                f"path not ended after {steps} steps, at {list(at(s_cur))} "
                f"({s_cur / total:.6g} of it); F undefined along the path?")
        steps += 1
        # no step passes a waypoint
        s_next = min(s_cur + h, min(c for c in stops if c > s_cur))
        point = at(s_next)
        u_new, fu, ok = domain._corrector(sol, point, u)
        if ok and fu is not None:
            # crossing the singular locus on the branch is either |F_u|
            # fading out or F_u flipping sign between step points
            grads_new = sol.grad_values(*point, u_new)
            if (abs(fu) >= domain._singular_threshold(grads_new)
                    and fu * fu_sign > 0
                    and (grads is None or domain._on_branch(
                        grads, grads_new, at(s_cur), point, u_new - u))):
                u, fu_good, grads = u_new, fu, grads_new
                s_cur = s_next
                h = min(h * 1.4, h_max)
                continue
        if h > h_min:
            h *= 0.5
            continue
        # the branch stops being trackable inside (s_cur, s_next]
        if grads is None:      # nothing accepted yet: judge at the start
            grads = sol.grad_values(*pts[0], u0)
        relaxed = (math.sqrt(domain.SINGULAR_FACTOR)
                   * (1.0 + domain._grad_norm(grads)))
        if abs(fu_good) <= relaxed:
            kind = ("boundary"
                    if total - s_next <= domain.BOUNDARY_FRACTION * total
                    else "outside")
            return domain.Verdict(kind, None, fu_good, at(s_next))
        raise domain.PathLeftWindowError(
            f"corrector diverged at {list(at(s_next))} with healthy "
            f"F_u = {fu_good:.3e}; box too small or F undefined along the path")
    grads = sol.grad_values(*end, u)
    fu = grads[-1]
    if abs(fu) < domain._singular_threshold(grads):
        return domain.Verdict("boundary", None, fu, end)
    return domain.Verdict("inside", u, fu, end)


# step halving to MIN_FRACTION, then a fixed 60-step bisection of the
# failing step for the onset, on numpy path points, without a bound on the
# number of steps

def march_with_bisection(sol, waypoints, u0):
    """Stands in for domain._march."""
    names = var_names(sol.n)
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
# Reference for the continuation query: domain.contains, its march and every
# helper they call, integrals._newton_u included, as they stood before the
# query's per-step bookkeeping was cut (numpy leg lengths, at(s) re-walking
# the legs, a generator for the next waypoint), kept verbatim but for the
# ref_ names, and the docstrings and some annotations left out.
# ref_corrector is the seam that counts its corrector calls, as
# domain._corrector is for contains.

def ref_grad_norm(grads) -> float:
    total = 0.0
    for g in grads:
        total += g ** 2
    return math.sqrt(total)


def ref_singular_threshold(grads) -> float:
    return SINGULAR_FACTOR * (1.0 + ref_grad_norm(grads))


def ref_relaxed_threshold(grads) -> float:
    return math.sqrt(SINGULAR_FACTOR) * (1.0 + ref_grad_norm(grads))


def ref_corrector(sol, point, u):
    return ref_newton_u(sol.F, sol.F_and_Fu, point, u, SOLVE_TOL,
                        CORRECTOR_MAXIT)


def ref_newton_u(F, F_and_Fu, point: list, u: float, tol: float,
                 maxit: int, max_step: float = math.inf):
    try:
        r, fu = F_and_Fu(*point, u)
    except EvalDomainError:
        return u, None, False
    for it in range(maxit):
        if abs(r) <= tol:
            return u, fu, True
        if fu == 0.0 or not math.isfinite(fu):
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


def ref_contains(problem, data, sol, q, domain=None,
                 base_point: float | None = None) -> Verdict:
    n = problem.n
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if len(q) != n + 1:
        raise ValueError(f"query point must have {n + 1} coordinates")
    face = problem.box.ranges[:n + 1]
    for v, (lo, hi) in zip(q, face):
        if not lo <= v <= hi:
            raise ValueError(
                f"query point {q.tolist()} is outside the (t, x) face of "
                f"the box")

    if n == 0:
        start, u0 = (0.0,), evaluate(data.h, {})
    else:
        lo, hi = data.interval
        s = min(max(float(q[1] if base_point is None else base_point), lo),
                hi)
        start, u0 = (0.0, s), evaluate(data.h, {"x1": s})

    try:
        return ref_march(sol, [start, q], u0)
    except PathLeftWindowError:
        if domain is None:
            raise
        waypoints = ref_staircase(domain, start, q)
        if waypoints is None:
            raise
        return ref_march(sol, waypoints, u0)


def ref_march(sol, waypoints, u0) -> Verdict:
    pts = [tuple(float(c) for c in w) for w in waypoints]
    # sets every step; a math.sqrt sum is 1 ulp off on ~8 % of 2-D legs
    legs = [float(np.linalg.norm(np.subtract(b, a)))
            for a, b in zip(pts, pts[1:])]
    total = sum(legs)
    stops = list(accumulate(legs))     # the waypoints' path parameters
    end = pts[-1]

    def at(s: float) -> tuple:
        acc = 0.0
        for a, b, L in zip(pts, pts[1:], legs):
            if s <= acc + L or L == 0.0:
                frac = 0.0 if L == 0.0 else (s - acc) / L
                return tuple([ai + frac * (bi - ai)
                              for ai, bi in zip(a, b)])
            acc += L
        return end

    # F_u alone, as other components of the gradient may fail to
    # evaluate on the initial set where F_u does not
    fu_good, = sol.Fu_value(*pts[0], u0)
    fu_sign = 1.0 if fu_good >= 0 else -1.0

    h = total * INITIAL_FRACTION
    h_max = total * MAX_FRACTION
    h_min = total * MIN_FRACTION
    s_cur = 0.0
    u = u0
    grads = None               # at the last accepted point, as is fu_good
    probed_at = None           # the last accepted point probed from
    folds = 0
    edged = faded = False
    steps = 0
    while s_cur < total:
        if steps == MAX_MARCH_STEPS:
            raise PathLeftWindowError(
                f"path not ended after {steps} steps, at {list(at(s_cur))} "
                f"({s_cur / total:.6g} of it); F undefined along the path?")
        steps += 1
        s_next = min(s_cur + h, next(c for c in stops if c > s_cur))
        point = at(s_next)
        u_new, fu, ok = ref_corrector(sol, point, u)
        if ok and fu is not None:
            # crossing the singular locus on the branch is either |F_u|
            # fading out or F_u flipping sign between step points
            grads_new = sol.grad_values(*point, u_new)
            if (abs(fu) >= ref_singular_threshold(grads_new)
                    and fu * fu_sign > 0 and (grads is None or ref_on_branch(
                        grads, grads_new, at(s_cur), point, u_new - u))):
                u, fu_good, grads = u_new, fu, grads_new
                s_cur = s_next
                h = min(h * 1.4, h_max)
                continue
            if grads is not None and not faded:
                faded = True
                verdict = ref_faded_onset(
                    sol, at, total, s_cur, s_next,
                    fu * fu_sign - ref_singular_threshold(grads_new), u,
                    fu_good, grads, fu_sign)
                if verdict:
                    return verdict
        elif (not ok and fu is None and grads is not None and not edged
              and abs(fu_good) > ref_relaxed_threshold(grads)):
            edged = True
            found = ref_domain_edge(sol, at, pts, legs, s_cur, h, u, fu_good,
                                 grads, fu_sign)
            if found:
                s_bad, fu_bad = found
                raise PathLeftWindowError(
                    f"path meets the edge of F's domain at {list(at(s_bad))} "
                    f"with healthy F_u = {fu_bad:.3e}")
        elif (not ok and fu is not None and grads is not None
              and folds < FOLD_PROBES and probed_at != s_cur):
            # no root at all after an accepted step, with F and F_u
            # defined: a fold may lie in (s_cur, s_next]; but where Newton
            # in u ran off to where F_u vanishes, u runs off to infinity
            folds += 1
            probed_at = s_cur
            fold = (BLOW_UP if abs(fu) < ref_singular_threshold(grads) else
                    ref_turning_point(sol, at,
                                      ref_leg_direction(pts, legs, s_cur),
                                      s_cur, s_next, u, fu_sign, h_min))
            if fold is BLOW_UP:
                folds = FOLD_PROBES
            elif fold is not None:
                return ref_onset(at, total, *fold)
        if h > h_min:
            h *= 0.5
            continue
        # the branch stops being trackable inside (s_cur, s_next]
        if grads is None:      # nothing accepted yet: judge at the start
            grads = sol.grad_values(*pts[0], u0)
        if abs(fu_good) <= ref_relaxed_threshold(grads):
            return ref_onset(at, total, s_next, fu_good)
        raise PathLeftWindowError(
            f"corrector diverged at {list(at(s_next))} with healthy "
            f"F_u = {fu_good:.3e}; box too small or F undefined along the path")
    grads = sol.grad_values(*end, u)
    fu = grads[-1]
    if abs(fu) < ref_singular_threshold(grads):
        return Verdict("boundary", None, fu, end)
    return Verdict("inside", u, fu, end)


def ref_onset(at, total: float, s: float, fu: float) -> Verdict:
    kind = "boundary" if total - s <= BOUNDARY_FRACTION * total else "outside"
    return Verdict(kind, None, fu, at(s))


def ref_on_branch(grads, grads_new, a, b, du: float) -> bool:
    step = [bi - ai for ai, bi in zip(a, b)]
    d0, d1 = (-sum(map(mul, g[:-1], step)) / g[-1] for g in (grads, grads_new))
    return (abs(du - 0.5 * (d0 + d1)) <= 0.5 * abs(d1 - d0) + abs(d0) + abs(d1)
            + SOLVE_TOL / abs(grads[-1]) + SOLVE_TOL / abs(grads_new[-1]))


def ref_track(sol, point, u: float, fu_sign: float):
    u, fu, ok = ref_corrector(sol, point, u)
    if ok and fu is not None and fu * fu_sign > 0:
        grads = sol.grad_values(*point, u)
        if abs(fu) >= ref_singular_threshold(grads):
            return u, fu, grads
    return None


def ref_leg_direction(pts, legs, s: float):
    acc = 0.0
    for a, b, L in zip(pts, pts[1:], legs):
        if s < acc + L:
            return tuple([(bi - ai) / L for ai, bi in zip(a, b)])
        acc += L
    return None


def ref_domain_edge(sol, at, pts, legs, s_good, h, u, fu_good, grads,
                    fu_sign):
    total = sum(legs)
    s_bad = total              # nearest point failed since s_good moved
    for _ in range(EDGE_STEPS):
        s_try = min(s_good + h, s_bad)
        dp = ref_leg_direction(pts, legs, s_good)
        slope = -sum(map(mul, grads[:-1], dp)) / grads[-1]
        tracked = ref_track(sol, at(s_try), u + slope * (s_try - s_good),
                         fu_sign)
        if tracked:
            if s_try >= total:
                return None
            if s_try == s_bad:
                s_bad = total
            s_good = s_try
            u, fu_good, grads = tracked
            h *= 1.4
        elif s_try - s_good > EDGE_FRACTION * total:
            s_bad = s_try
            h = 0.5 * (s_try - s_good)
        elif abs(fu_good) > ref_relaxed_threshold(grads):
            return s_try, fu_good
        else:
            return None
    return None


def ref_faded_onset(sol, at, total, s_good, s_bad, m_bad, u, fu_good,
                    grads, fu_sign):
    h_min = total * MIN_FRACTION
    m_good = fu_good * fu_sign - ref_singular_threshold(grads)
    kept = 0                   # +1: the good end moved last, -1: the bad
    for _ in range(MARGIN_STEPS):
        if s_bad - s_good <= h_min:
            if abs(fu_good) <= ref_relaxed_threshold(grads):
                return ref_onset(at, total, s_bad, fu_good)
            return None
        s = s_good + 0.5 * (s_bad - s_good)
        if m_bad is not None:
            s_false = s_bad - m_bad * (s_bad - s_good) / (m_bad - m_good)
            if s_good < s_false < s_bad:
                s = s_false
        point = at(s)
        u_new, fu, ok = ref_corrector(sol, point, u)
        if not ok or fu is None:
            s_bad, m_bad, kept = s, None, -1
            continue
        grads_new = sol.grad_values(*point, u_new)
        m = fu * fu_sign - ref_singular_threshold(grads_new)
        if m >= 0.0:
            if kept == 1 and m_bad is not None:
                m_bad *= 0.5
            s_good, u, fu_good, grads, m_good, kept = (s, u_new, fu,
                                                       grads_new, m, 1)
        else:
            if kept == -1:
                m_good *= 0.5
            s_bad, m_bad, kept = s, m, -1
    return None


def ref_turning_point(sol, at, dp, s_lo, s_hi, u, fu_sign, tol):
    origin = at(s_lo)
    m = len(origin) + 1        # fold_values: F, grad F, grad F_u
    last = math.inf
    s = s_lo
    for it in range(FOLD_MAXIT):
        try:
            values = sol.fold_values(
                *[o + (s - s_lo) * d for o, d in zip(origin, dp)], u)
        except EvalDomainError:
            return None
        F, F_u, F_uu = values[0], values[m], values[-1]
        F_s = sum(map(mul, values[1:m], dp))
        F_us = sum(map(mul, values[m + 1:-1], dp))
        det = F_s * F_uu - F_u * F_us
        if det == 0.0:
            return None
        ds = (F_u * F_u - F * F_uu) / det
        du = (F * F_us - F_s * F_u) / det
        if it >= 2 and not abs(ds) <= FOLD_CONTRACTION * last:
            return BLOW_UP if du * last_du > last_du * last_du else None
        last, last_du = abs(ds), du
        s = min(s + ds, s_hi)
        u += du
        if not (s_lo < s and math.isfinite(u)):
            return None
        if last <= tol:
            break
    else:
        return None
    if F_s * F_uu == 0.0:
        return None
    # F_u = F_uu (u - u*) and F_u^2 = 2 F_s F_uu (s* - s) on the model
    target = SINGULAR_FACTOR ** 0.75 * (1.0 + ref_grad_norm(values[1:m + 1]))
    s_check = s - target * target / (2.0 * abs(F_s * F_uu))
    if not s_lo < s_check:
        return None
    checked = ref_track(sol, at(s_check), u + fu_sign * target / F_uu, fu_sign)
    if checked and abs(checked[1]) <= ref_relaxed_threshold(checked[2]):
        return s, checked[1]
    return None


def ref_staircase(domain, start, goal):
    dst = cell_of(domain.axes, goal)
    parent = flood(domain.mask, [cell_of(domain.axes, start)], parents=True)
    if dst not in parent:
        return None
    path = [np.asarray(goal, dtype=float)]
    cell = dst
    while cell is not None:
        path.append(cell_center(domain.axes, cell))
        cell = parent[cell]
    path.append(np.asarray(start, dtype=float))
    return list(reversed(path))



# ---------------------------------------------------------------------------
# References for the surface points: the zero on each cut edge, one grid
# edge at a time, and the vertices of the linear pieces by marching squares
# and tetrahedra, one cell and one shape at a time

def _edge_zero(pa, va, pb, vb):
    s = va / (va - vb)
    return tuple(a + s * (b - a) for a, b in zip(pa, pb))


def patch_vertices_by_edges(surface):
    """Reference for locus.patch_vertices, one grid vertex and direction at
    a time: the edge from vertex a along a 0/1 step (the sides of the
    square, or all seven steps of the cube) is kept when its ends differ in
    sign, 0.0 and -0.0 counting as >= 0, and one of the cells holding it is
    crossing.  Its row is the zero from a."""
    dim, axes, shape = surface.dim, surface.axes, surface.values.shape
    cells = surface.crossing.shape
    values = surface.values.ravel().tolist()
    steps = [o for o in product((0, 1), repeat=dim)
             if any(o) and (dim == 3 or sum(o) == 1)]
    strides = [int(np.ravel_multi_index(o, shape)) for o in steps]
    rows = []
    for ia, a in enumerate(product(*map(range, shape))):
        va = values[ia]
        for step, stride in zip(steps, strides):
            # a step off the grid may wrap to another vertex; the bound
            # check below drops it
            vb = values[(ia + stride) % len(values)]
            if (va >= 0.0) == (vb >= 0.0):
                continue
            b = [i + o for i, o in zip(a, step)]
            if any(j >= n for j, n in zip(b, shape)):
                continue
            holders = product(*([i] if o else [i - 1, i]
                                for i, o in zip(a, step)))
            if any(all(0 <= i < n for i, n in zip(c, cells))
                   and surface.crossing[c] for c in holders):
                rows.append(_edge_zero([ax[i] for ax, i in zip(axes, a)], va,
                                       [ax[i] for ax, i in zip(axes, b)], vb))
    return np.array(rows, dtype=float).reshape(-1, dim)


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
    """The (m, dim) vertices of the linear pieces of the crossing cells, one
    cell at a time: the segments of the square, a saddle resolved by the
    bilinear centre value, or the triangles of the six Kuhn tetrahedra."""
    dim, axes, values = surface.dim, surface.axes, surface.values
    if dim == 2:
        shapes, pieces_of = [((0, 0), (1, 0), (1, 1), (0, 1))], _square_segments
    else:
        shapes, pieces_of = _cube_tets(), _tet_triangles
    vertices = []
    for cell in surface.cells.tolist():
        for shape in shapes:
            corners = [[c + o for c, o in zip(cell, off)] for off in shape]
            vals = [values[tuple(c)] for c in corners]
            pts = [tuple(ax[i] for ax, i in zip(axes, c)) for c in corners]
            for piece in pieces_of(vals, pts):
                vertices += piece
    return np.array(vertices, dtype=float).reshape(-1, dim)


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
    state = (locus.NONE + ~all_ok + 2 * crossing).astype(np.uint8)
    return LevelSurface(None, values.shape[0] - 1, axes, values, state,
                        np.zeros((0, values.ndim), dtype=int))


# ---------------------------------------------------------------------------
# Hand-made components on the integer grid

def hand_component(mask, sigma_cells=None, gamma_cells=None):
    """A SurfaceComponent over a hand-made cell mask, on a grid whose vertex
    coordinates are 0, 1, 2, ... on every axis.  The initial set defaults
    to the first component cell."""
    mask = np.asarray(mask, dtype=bool)
    axes = tuple(np.arange(k + 1, dtype=float) for k in mask.shape)
    state = np.where(mask, locus.OPEN, locus.NONE).astype(np.uint8)
    surface = LevelSurface(None, mask.shape[0], axes, None, state,
                           np.zeros((0, mask.ndim), int))
    if sigma_cells is None:
        sigma_cells = np.zeros_like(mask)
    if gamma_cells is None:
        gamma_cells = [tuple(np.argwhere(mask)[0].tolist())]
    return SurfaceComponent(surface, np.flatnonzero(mask), gamma_cells,
                            np.flatnonzero(sigma_cells))


def hand_domain(component, F: str = "u + 1", points=None):
    """maximal_domain of a hand-made component, with F given as text in t,
    x1.., u over its integer grid (the default has no zero there) and the
    given sigma points."""
    dim = component.surface.dim
    tree = parse(F, n=dim - 2)
    sol = types.SimpleNamespace(F=tree, F_and_Fu_rows=compile_exprs(
        [tree, diff(tree, "u")], var_names(dim - 2), arrays=True))
    points = np.zeros((0, dim)) if points is None else np.asarray(points,
                                                                  float)
    sigma = SingularLocus(points, np.zeros(len(points), dtype=bool), [],
                          np.zeros((0, dim), dtype=int), 0)
    return maximal_domain(sol, component, sigma)


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

"""Projection of the surface component to base space and point queries.

The component of the initial set projects to a mask of base-space cells,
which is the computed maximal domain relative to the box.  It is bounded
by the projection of sigma and by the box: the Newton-polished sigma
points that bound the component (fold), then the zeros of F on the cut
edges of component cells in a face of the box (window).

Point queries do not use the grid at all: they continue the root of
F(t, x, u) = 0 along the straight path from the initial set to the query
point by predictor-corrector Newton steps.  The query answers "outside"
where |F_u| shrinks before the path's end, which is where the implicit
function theorem stops guaranteeing a single-valued branch.  A
turning-point solve of F = F_u = 0 (Keller 1977), Illinois regula falsi
on the track margin or step halving locates that onset; ``_march`` lists
how a march ends.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, product
from operator import mul

import numpy as np

from .expr import EvalDomainError, evaluate
from .integrals import ImplicitSolution, _newton_u
from .locus import LevelSurface, SingularLocus, SurfaceComponent, cell_of
from .problem import InitialData, Problem

SOLVE_TOL = 1e-12
# |F| at which a window point's refinement stops
WINDOW_TOL = 1e-14
SINGULAR_FACTOR = 1e-6

# continuation query: corrector iterations per step and steps per path
# (accepted or not), and the initial, largest and smallest step and the
# "within the final step" window for a boundary verdict, as fractions of
# the path length; no step passes a waypoint, so a straight path takes
# three steps of 1/4, 0.35 and the rest
CORRECTOR_MAXIT = 8
MAX_MARCH_STEPS = 1000
INITIAL_FRACTION = 1.0 / 4.0
MAX_FRACTION = 1.0 / 2.0
MIN_FRACTION = 1e-12
BOUNDARY_FRACTION = 1e-3
# turning-point solve: accepted points a march tries it from, Newton
# iterations, and the least shrink factor of |ds| from the third iterate
# on (Newton contracts quadratically at a regular fold, only linearly
# where u runs off to infinity, which it reports as BLOW_UP)
FOLD_PROBES = 3
FOLD_MAXIT = 8
FOLD_CONTRACTION = 0.5
BLOW_UP = "blow-up"
# edge of F's domain: corrector calls, and the failing step, as a fraction
# of the path, that brackets it closely enough
EDGE_STEPS = 90
EDGE_FRACTION = 1e-8
# faded onset: corrector calls of the margin search (bisection alone takes
# about 39 from MAX_FRACTION down to MIN_FRACTION)
MARGIN_STEPS = 64


class ProjectionError(Exception):
    """Two surface sheets project onto one base cell: the projection is not
    injective on the component, i.e. the resolution failed."""


class PathLeftWindowError(Exception):
    """The continuation corrector diverged while F_u was still healthy:
    the path left the region where the surface is tracked (box too small
    or the path crosses a set where F is undefined)."""


@dataclass
class Verdict:
    kind: str                  # "inside" | "outside" | "boundary"
    u: float | None = None     # continued solution value, for inside
    f_u: float | None = None
    at: tuple | None = None    # where the verdict was decided

    def __str__(self):
        if self.kind == "inside":
            return f"inside {self.u!r}"
        return self.kind


@dataclass
class BoundaryPolyline:
    kind: str                  # "fold" (sigma) | "window" (box faces)
    points: np.ndarray         # (m, n + 1) base-space points


@dataclass
class MaximalDomain:
    resolution: int
    axes: tuple[np.ndarray, ...]      # base-space vertex coordinates
    mask: np.ndarray                  # bool over base cells
    boundary: list[BoundaryPolyline]

    @property
    def cell_area(self) -> float:
        return float(np.prod([ax[1] - ax[0] for ax in self.axes]))

    def mask_area(self) -> float:
        return self.cell_area * int(np.count_nonzero(self.mask))

    def to_json(self) -> str:
        """The mask as [start, length] runs of True cells per row (the
        first axis), found by one edge scan, and the boundary points."""
        flat = self.mask.reshape(self.mask.shape[0], -1)
        edge = np.diff(flat.astype(np.int8), axis=1, prepend=0, append=0)
        row, start = np.nonzero(edge == 1)
        end = np.nonzero(edge == -1)[1]
        rows = [[] for _ in flat]
        for r, run in zip(row.tolist(),
                          np.column_stack([start, end - start]).tolist()):
            rows[r].append(run)
        boundary_pts = [p for line in self.boundary
                        for p in line.points.tolist()]
        return json.dumps({
            "resolution": self.resolution,
            "mask": {"rows": rows},
            "boundary": boundary_pts,
        }, sort_keys=True)


# ---------------------------------------------------------------------------
# Projection

def maximal_domain(sol: ImplicitSolution, component: SurfaceComponent,
                   sigma: SingularLocus) -> MaximalDomain:
    """Project the component cells to base space and assemble the boundary.

    Checks that the component carries exactly one u-branch over every
    masked base cell, i.e. one unbroken run of cells in its u-column (the
    projection restricted to the component must be injective); two
    branches raise ProjectionError, naming the first such base cell.  The
    runs are counted from the component's sorted flat cell indices, not
    over the whole grid.  The boundary lists the fold lines of ``_fold``,
    then one entry of the window points of ``_window``, none or more.
    """
    cells = component.cells_flat
    if not len(cells):
        raise ValueError("component is empty")
    surface = component.surface
    base_axes = surface.axes[:-1]
    base_shape = surface.state.shape[:-1]

    # u-runs per base column: a run starts at a cell that is its column's
    # first (u = 0) or whose predecessor in the list is not the cell below
    column, u = np.divmod(cells, surface.state.shape[-1])
    start = u == 0
    start[1:] |= cells[1:] - 1 != cells[:-1]
    start[0] = True
    runs = np.bincount(column[start], minlength=math.prod(base_shape))
    mask = runs.reshape(base_shape) > 0
    split = np.flatnonzero(runs > 1)
    if len(split):
        base = tuple(int(v) for v in np.unravel_index(split[0], base_shape))
        raise ProjectionError(
            f"component projects two u-branches onto base cell {base}; "
            "resolution too coarse to separate sheets")

    for cell in component.gamma_cells:
        base = tuple(int(v) for v in cell[:-1])
        if not mask[base]:
            raise ProjectionError(
                f"initial-set base cell {base} is not masked")

    rim = np.ones(base_shape, dtype=bool)     # base cells in a box face
    rim[(slice(1, -1),) * len(base_shape)] = False
    window = _window(sol, surface, cells[rim.ravel()[column] | (u == 0)
                                         | (u == surface.state.shape[-1] - 1)])
    boundary = [BoundaryPolyline("fold", line)
                for line in _fold(component, sigma)]
    return MaximalDomain(surface.resolution, base_axes, mask,
                         boundary + [BoundaryPolyline("window", window)])


def _facets(cells: np.ndarray, flat: np.ndarray, shape) -> np.ndarray:
    """Per cell sharing a facet with a row of the (m, ndim) ``cells`` of a
    grid of ``shape``, its position in the sorted flat indices ``flat``, or
    ``len(flat)`` where there is none: (2 ndim, m), a row per axis and side
    (each row's search keys ascend as the cells do)."""
    stride = np.cumprod((1,) + tuple(shape[:0:-1]))[::-1]
    near = (np.ravel_multi_index(cells.T, shape)
            + np.concatenate([-stride, stride])[:, None])
    pos = np.searchsorted(flat, near)
    pos[np.concatenate([cells == 0, cells == np.array(shape) - 1], axis=1).T
        | (np.append(flat, -1)[pos] != near)] = len(flat)
    return pos


def _beside(cells: np.ndarray, flat: np.ndarray, shape) -> np.ndarray:
    """Per row of the (m, ndim) ``cells``, whether a cell sharing a facet
    with it is one of the sorted flat indices ``flat`` of ``shape``."""
    return (_facets(cells, flat, shape) < len(flat)).any(axis=0)


def _fold(component: SurfaceComponent, sigma: SingularLocus) -> list:
    """The base projections of the sigma points that bound the component,
    as one line in the points' order, or none: the points in a singular
    cell joined, through singular cells sharing a facet, to a singular
    cell beside the component.  The search, one layer of singular cells at
    a time, stops once it has reached every cell of a sigma point
    (``split_component`` makes each such cell singular)."""
    points = sigma.points
    if not len(points):
        return []
    axes, shape = component.surface.axes, component.surface.state.shape
    flat = component.sigma_flat
    held = np.searchsorted(flat, np.ravel_multi_index(
        cell_of(axes, points).T, shape))
    cells = np.transpose(np.unravel_index(flat, shape))
    # the last entry stands for "no singular cell", and counts as reached
    linked = np.append(_beside(cells, component.cells_flat, shape), True)
    front, near = np.flatnonzero(linked[:-1]), _facets(cells, flat, shape)
    while len(front) and not linked[held].all():
        front = near[:, front].ravel()
        front = front[~linked[front]]
        linked[front] = True
    line = points[linked[held], :-1]
    return [line] if len(line) else []


def _window(sol: ImplicitSolution, surface: LevelSurface,
            cells: np.ndarray) -> np.ndarray:
    """The base points where the component leaves the box, from the sorted
    flat indices of its cells in a box face: per cut edge in a box face
    (one end's F >= 0, the other's < 0), the zero of F on it, in the order
    of the edges' lower vertices (flat index, then the edge's axis).

    Illinois regula falsi (Dowell & Jarratt 1971) refines all open edges
    at once, one ``F_and_Fu_rows`` call a round, until |F| <= WINDOW_TOL or
    the bracket is one ulp wide.  An edge gives no point where F fails to
    evaluate, nor where |F| at the closed bracket is larger than the
    smaller of |F| at the edge's two ends: a pole, across which F changes
    sign too."""
    shape = np.array(surface.state.shape)
    dim = len(shape)
    # a cell's edges, as a corner offset and an axis the offset is 0 on;
    # an edge lies in a box face where, on another axis, its lower vertex
    # is on the first or the last vertex plane
    offsets = np.array(list(product((0, 1), repeat=dim)))
    corner, along = np.nonzero(offsets == 0)
    cells = np.transpose(np.unravel_index(cells, shape))
    on = cells[:, None] + offsets[corner]
    on = (on == 0) | (on == shape)
    on[:, np.arange(len(along)), along] = False
    key = (np.ravel_multi_index(cells.T, shape + 1)[:, None]
           + np.ravel_multi_index(offsets[corner].T, shape + 1)) * dim + along
    key = np.sort(key[on.any(axis=2)])
    low, along = np.divmod(_once(key), dim)
    step = np.ravel_multi_index(np.eye(dim, dtype=int), shape + 1)
    ends = np.concatenate([low, low + step[along]])
    verts = _once(np.sort(ends))
    coords = np.column_stack([ax[i] for ax, i in zip(
        surface.axes, np.unravel_index(verts, shape + 1))])
    with np.errstate(all="ignore"):
        (f, bad), _ = sol.F_and_Fu_rows(*coords.T)
        ok = ~bad & np.isfinite(f)
        ia, ib = np.searchsorted(verts, ends).reshape(2, -1)
        cut = ok[ia] & ok[ib] & ((f[ia] >= 0.0) != (f[ib] >= 0.0))
        points, along, ia, ib = coords[ia[cut]], along[cut], ia[cut], ib[cut]
        m = np.arange(len(points))
        # per open edge: the end the bracket keeps, the newest point, and F
        # at both (at the kept end halved each time it is kept again)
        bracket = np.array([points[m, along], coords[ib, along], f[ia],
                            f[ib]])
        # the largest last |F| with which an edge gives a point: WINDOW_TOL,
        # or, once its bracket is closed, the smaller |F| at its ends (a
        # pole ends larger); NaN, where F fails, gives none
        bound = np.maximum(np.abs(bracket[2:]).min(axis=0), WINDOW_TOL)
        while len(m):
            a, b, fa, fb = bracket[:, m]
            c = b - fb * (b - a) / (fb - fa)
            points[m, along[m]] = c
            (fc, bad), _ = sol.F_and_Fu_rows(*points[m].T)
            fc = np.where(bad, np.nan, fc)
            flip = (fc >= 0.0) != (fb >= 0.0)
            a = np.where(flip, b, a)
            bracket[:, m] = a, c, np.where(flip, fb, 0.5 * fa), fc
            # open while |F| > WINDOW_TOL and a float lies between a and c
            m = m[(np.abs(fc) > WINDOW_TOL) & (np.nextafter(a, c) != c)]
    return points[np.abs(bracket[3]) <= bound, :-1]


def _once(values: np.ndarray) -> np.ndarray:
    """The sorted ``values`` without repeats, as ``np.unique`` gives them
    about 40 times slower on these few thousand integers (numpy 2.4)."""
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


# ---------------------------------------------------------------------------
# Continuation query

def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float vector, bit for bit: the square
    root of its BLAS dot with itself, without the call's overhead."""
    return math.sqrt(np.dot(v, v))


def _grad_norm(grads) -> float:
    total = 0.0
    for g in grads:
        total += g ** 2
    return math.sqrt(total)


def _singular_threshold(grads) -> float:
    return SINGULAR_FACTOR * (1.0 + _grad_norm(grads))


def _relaxed_threshold(grads) -> float:
    """The |F_u| up to which a branch that stops being trackable counts
    as having met the singular locus."""
    return math.sqrt(SINGULAR_FACTOR) * (1.0 + _grad_norm(grads))


def _corrector(sol: ImplicitSolution, point, u):
    """Newton in u at a fixed base point.  Returns (u, f_u, ok)."""
    return _newton_u(sol.F, sol.F_and_Fu, point, u, SOLVE_TOL, CORRECTOR_MAXIT)


def contains(problem: Problem, data: InitialData, sol: ImplicitSolution,
             q) -> Verdict:
    """Classify a base-space query point by continuation from the initial
    set; for inside points the continued u is the value of the maximally
    extended single-valued solution.

    The path is one straight ``_march`` from the initial-set base point
    (0, s*) to the query, with s* the query's x clamped into ``s_range``
    axis by axis (for n = 0 the start is t = 0); no grid is used.  A
    PathLeftWindowError of the march is raised to the caller.
    """
    n = problem.n
    q = np.array(q, dtype=float, ndmin=1)
    if q.shape != (n + 1,):
        raise ValueError(f"query point must have {n + 1} coordinates")
    q = q.tolist()
    for v, (lo, hi) in zip(q, (problem.box.t, *problem.box.x)):
        if not lo <= v <= hi:
            raise ValueError(
                f"query point {q} is outside the (t, x) face of the box")

    s = [min(max(v, lo), hi) for v, (lo, hi) in zip(q[1:], data.s_range)]
    u0 = evaluate(data.h, {f"x{k}": v for k, v in enumerate(s, 1)})
    return _march(sol, [[0.0, *s], q], u0)


def _march(sol, waypoints, u0) -> Verdict:
    """Continue u0 along the waypoint polyline by predictor-corrector
    steps.  Steps start at INITIAL_FRACTION of the path, grow to at most
    MAX_FRACTION and never pass a waypoint, so a path that pokes past the
    fold and comes back answers "outside".  A root that ``_on_branch``
    finds on another sheet fails its step.  A march that reaches the end
    (at once if the path has length zero) answers "inside", or "boundary"
    where |F_u| is below the singular threshold.

    A step whose corrector finds no root at all, with F and F_u defined,
    after an accepted step may have crossed a fold: ``_turning_point``
    solves F = F_u = 0 in that step, and one corrector call just short of
    the solution confirms that the branch reaches it there with |F_u|
    shrunk to the relaxed threshold.  The answer is then "outside"
    ("boundary" within the path's last BOUNDARY_FRACTION) at the fold.
    This is tried from at most FOLD_PROBES accepted points, and no more
    once the solve finds u running off to infinity.  A solve that settles
    nothing leaves the march as it was.

    A step whose corrector finds a root with |F_u| faded below the
    singular threshold, or of the other sign, after an accepted step
    brackets the onset between the two.  ``_faded_onset`` locates it,
    once per march, by regula falsi on the track margin
    F_u sign - singular threshold, as closely as step halving would, and
    judges it as halving would (below).  The answer is then "outside" (or
    "boundary") at the bracket's bad end.  Where |F_u| at its good end is
    still above the relaxed threshold, a long trial may have landed on
    another branch: the search is dropped and the march halves its step
    from where it was.

    A step whose corrector runs into undefined F after an accepted step,
    with F_u still above the relaxed threshold, may have met the edge of
    F's domain, which the branch approaches so closely that step halving
    would creep toward it for MAX_MARCH_STEPS steps.  ``_domain_edge``
    marches on from there, once, with a tangent predictor; where it
    brackets the edge, the answer is PathLeftWindowError.

    Otherwise step halving locates the onset to MIN_FRACTION of the path:
    if F_u at the last accepted point (the start, if none was) has shrunk
    to the relaxed threshold, the answer is "outside" (or "boundary") at
    the failed step; if not, PathLeftWindowError, as after MAX_MARCH_STEPS
    steps (a march creeping toward undefined F)."""
    pts = [tuple(map(float, w)) for w in waypoints]
    diffs = [[bi - ai for ai, bi in zip(a, b)] for a, b in zip(pts, pts[1:])]
    # np.linalg.norm's: a math.sqrt sum is 1 ulp off on ~8 % of 2-D legs
    legs = [_norm(np.array(d)) for d in diffs]
    total = sum(legs)
    stops = list(accumulate(legs))     # the waypoints' path parameters
    starts = [0.0, *stops]
    end = pts[-1]

    def at(s: float) -> tuple:
        k = bisect_left(stops, s)      # the first leg that reaches s
        if k == len(legs):
            return end
        L = legs[k]
        frac = 0.0 if L == 0.0 else (s - starts[k]) / L
        return tuple([ai + frac * di for ai, di in zip(pts[k], diffs[k])])

    # F_u alone, as other components of the gradient may fail to
    # evaluate on the initial set where F_u does not
    fu_good, = sol.Fu_value(*pts[0], u0)
    fu_sign = 1.0 if fu_good >= 0 else -1.0

    h = total * INITIAL_FRACTION
    h_max = total * MAX_FRACTION
    h_min = total * MIN_FRACTION
    s_cur = 0.0
    u = u0
    grads = here = None        # as fu_good: at the last accepted point
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
        s_next = min(s_cur + h, stops[bisect_right(stops, s_cur)])
        point = at(s_next)
        u_new, fu, ok = _corrector(sol, point, u)
        if ok and fu is not None:
            # crossing the singular locus on the branch is either |F_u|
            # fading out or F_u flipping sign between step points
            grads_new = sol.grad_values(*point, u_new)
            if (abs(fu) >= _singular_threshold(grads_new)
                    and fu * fu_sign > 0 and (grads is None or _on_branch(
                        grads, grads_new, here, point, u_new - u))):
                u, fu_good, grads, here = u_new, fu, grads_new, point
                s_cur = s_next
                h = min(h * 1.4, h_max)
                continue
            if grads is not None and not faded:
                faded = True
                verdict = _faded_onset(
                    sol, at, total, s_cur, s_next,
                    fu * fu_sign - _singular_threshold(grads_new), u,
                    fu_good, grads, fu_sign)
                if verdict:
                    return verdict
        elif (not ok and fu is None and grads is not None and not edged
              and abs(fu_good) > _relaxed_threshold(grads)):
            edged = True
            found = _domain_edge(sol, at, pts, legs, s_cur, h, u, fu_good,
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
            fold = (BLOW_UP if abs(fu) < _singular_threshold(grads) else
                    _turning_point(sol, at, _leg_direction(pts, legs, s_cur),
                                   s_cur, s_next, u, fu_sign, h_min))
            if fold is BLOW_UP:
                folds = FOLD_PROBES
            elif fold is not None:
                return _onset(at, total, *fold)
        if h > h_min:
            h *= 0.5
            continue
        # the branch stops being trackable inside (s_cur, s_next]
        if grads is None:      # nothing accepted yet: judge at the start
            grads = sol.grad_values(*pts[0], u0)
        if abs(fu_good) <= _relaxed_threshold(grads):
            return _onset(at, total, s_next, fu_good)
        raise PathLeftWindowError(
            f"corrector diverged at {list(at(s_next))} with healthy "
            f"F_u = {fu_good:.3e}; box too small or F undefined along the path")
    grads = sol.grad_values(*end, u)
    fu = grads[-1]
    if abs(fu) < _singular_threshold(grads):
        return Verdict("boundary", None, fu, end)
    return Verdict("inside", u, fu, end)


def _onset(at, total: float, s: float, fu: float) -> Verdict:
    """"outside" at the parameter s of a path of length ``total`` where
    its branch stops, "boundary" within the path's last
    BOUNDARY_FRACTION."""
    kind = "boundary" if total - s <= BOUNDARY_FRACTION * total else "outside"
    return Verdict(kind, None, fu, at(s))


def _on_branch(grads, grads_new, a, b, du: float) -> bool:
    """Whether a corrector root that moved u by du from base point a to b,
    with F gradients ``grads`` at a and ``grads_new`` at b, stays on the
    branch: where its slope is monotone, du lies between the ends' tangent
    changes d0 and d1 (mean value theorem).  Allowed beyond: |d0| + |d1|
    and SOLVE_TOL / |F_u| per end; another sheet's root lands far off."""
    step = [bi - ai for ai, bi in zip(a, b)]
    # map stops at the end of step, before the F_u of each gradient
    d0 = -sum(map(mul, grads, step)) / grads[-1]
    d1 = -sum(map(mul, grads_new, step)) / grads_new[-1]
    return (abs(du - 0.5 * (d0 + d1)) <= 0.5 * abs(d1 - d0) + abs(d0) + abs(d1)
            + SOLVE_TOL / abs(grads[-1]) + SOLVE_TOL / abs(grads_new[-1]))


def _track(sol, point, u: float, fu_sign: float):
    """(u, F_u, gradient of F) of the corrector from u at the base point,
    or None where it does not track the branch there: no root, or |F_u|
    below the singular threshold or of the other sign than ``fu_sign``."""
    u, fu, ok = _corrector(sol, point, u)
    if ok and fu is not None and fu * fu_sign > 0:
        grads = sol.grad_values(*point, u)
        if abs(fu) >= _singular_threshold(grads):
            return u, fu, grads
    return None


def _leg_direction(pts, legs, s: float):
    """d at(s) / ds on the leg of the path through ``pts`` (leg lengths
    ``legs``) that runs on from s, the one that holds a march step from s;
    None from the path's end on."""
    k = bisect_right(list(accumulate(legs)), s)
    if k < len(legs):
        return tuple([(bi - ai) / legs[k] for ai, bi in zip(*pts[k:k + 2])])
    return None


def _domain_edge(sol, at, pts, legs, s_good, h, u, fu_good, grads, fu_sign):
    """Where the corrector of a march ran into undefined F, with F_u
    healthy at the last accepted point (s_good, u), march on from there
    to bracket the edge of F's domain.  Near that edge the branch stays
    close to it, so the march's predictor, the last accepted u, lands
    outside F's domain unless the step is tiny, and the march creeps.
    Here each corrector starts from the tangent u + u' ds, with
    u' = -F_s / F_u from the last accepted gradient ``grads``, and no
    step reaches past the nearest point that failed since the last
    accepted one; a step that fails halves the next one.

    Returns (s_bad, F_u at the last accepted point) once a step shorter
    than EDGE_FRACTION of the path fails with F_u there still above the
    relaxed threshold: the branch ends at the edge.  None where it reaches
    the path's end or F_u shrinks (a fold, left to the march), or after
    EDGE_STEPS corrector calls."""
    total = sum(legs)
    s_bad = total              # nearest point failed since s_good moved
    for _ in range(EDGE_STEPS):
        s_try = min(s_good + h, s_bad)
        dp = _leg_direction(pts, legs, s_good)
        slope = -sum(map(mul, grads[:-1], dp)) / grads[-1]
        tracked = _track(sol, at(s_try), u + slope * (s_try - s_good),
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
        elif abs(fu_good) > _relaxed_threshold(grads):
            return s_try, fu_good
        else:
            return None
    return None


def _faded_onset(sol, at, total, s_good, s_bad, m_bad, u, fu_good, grads,
                 fu_sign):
    """Where a march's step from its last accepted point (s_good, u) found
    a root at s_bad with |F_u| below the singular threshold or of the
    other sign, locate the onset on the track margin
    m(s) = F_u fu_sign - singular threshold (m_bad at s_bad), taken at
    the root of the corrector from the bracket's good end's u.  Regula
    falsi with the Illinois halving of the margin of an end kept twice
    (Dowell & Jarratt 1971) narrows the bracket; a trial without a root
    is a bad end, and it, or an interpolant outside the open bracket,
    makes the next trial a bisection.

    Once the bracket is within MIN_FRACTION of the path, judges it as the
    march's halving tail does: "outside" (or "boundary") at its bad end
    where |F_u| at its good end is within the relaxed threshold.  None
    otherwise, or after MARGIN_STEPS corrector calls: a long trial can
    land on another branch with small F_u, which halving from s_good
    steers clear of."""
    h_min = total * MIN_FRACTION
    m_good = fu_good * fu_sign - _singular_threshold(grads)
    kept = 0                   # +1: the good end moved last, -1: the bad
    for _ in range(MARGIN_STEPS):
        if s_bad - s_good <= h_min:
            if abs(fu_good) <= _relaxed_threshold(grads):
                return _onset(at, total, s_bad, fu_good)
            return None
        s = s_good + 0.5 * (s_bad - s_good)
        if m_bad is not None:
            s_false = s_bad - m_bad * (s_bad - s_good) / (m_bad - m_good)
            if s_good < s_false < s_bad:
                s = s_false
        point = at(s)
        u_new, fu, ok = _corrector(sol, point, u)
        if not ok or fu is None:
            s_bad, m_bad, kept = s, None, -1
            continue
        grads_new = sol.grad_values(*point, u_new)
        m = fu * fu_sign - _singular_threshold(grads_new)
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


def _turning_point(sol, at, dp, s_lo, s_hi, u, fu_sign, tol):
    """Newton for the fold G(s, u) = (F, F_u)(at(s), u) = 0 in the failed
    step (s_lo, s_hi] of a march, from its last accepted point (s_lo, u).
    The Jacobian of G is [[grad_b F . dp, F_u], [grad_b F_u . dp, F_uu]],
    with ``dp`` = d at / ds on the step's leg, along which the iterates'
    base points are at(s_lo) + (s - s_lo) dp.

    Returns the fold s* and F_u at a check just short of it: a corrector
    call where the quadratic fold model F ~ F_s (s - s*) + F_uu (u - u*)^2
    / 2 puts F_u, with the sign ``fu_sign``, at the geometric mean of the
    singular and the relaxed threshold.  That call must track the branch
    (``_track``) with |F_u| within the relaxed threshold.  BLOW_UP where
    |ds| shrinks by less than FOLD_CONTRACTION from the third iterate on
    while du grows without changing sign: no fold lies ahead, u runs off
    to infinity.  None where |ds| so shrinks otherwise, an iterate falls
    back to s_lo or before (one beyond s_hi is put back on s_hi: from a
    point of the branch, Newton overshoots a quadratic fold twice over in
    s), the Jacobian is singular, F is undefined, FOLD_MAXIT iterates do
    not bring |ds| below ``tol``, or the check fails."""
    origin = at(s_lo)
    m = len(origin) + 1        # fold_values: F, grad F, grad F_u
    last = math.inf
    s = s_lo
    for it in range(FOLD_MAXIT):
        shift = s - s_lo
        try:
            values = sol.fold_values(
                *[o + shift * d for o, d in zip(origin, dp)], u)
        except EvalDomainError:
            return None
        F, F_u, F_uu = values[0], values[m], values[-1]
        # map stops at the end of dp: the base components of grad F, F_u
        F_s = sum(map(mul, dp, values[1:]))
        F_us = sum(map(mul, dp, values[m + 1:]))
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
    target = SINGULAR_FACTOR ** 0.75 * (1.0 + _grad_norm(values[1:m + 1]))
    s_check = s - target * target / (2.0 * abs(F_s * F_uu))
    if not s_lo < s_check:
        return None
    checked = _track(sol, at(s_check), u + fu_sign * target / F_uu, fu_sign)
    if checked and abs(checked[1]) <= _relaxed_threshold(checked[2]):
        return s, checked[1]
    return None


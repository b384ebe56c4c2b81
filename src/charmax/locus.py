"""Level-surface discretization and the singular locus.

The zero set of F is discretized over the computational box on a regular
grid: a cell "crosses" when F changes sign among its corner vertices,
and adjacency is shared-facet adjacency between crossing cells.  Linear
pieces of the surface inside the cells (marching-squares segments in the
plane case, triangles from a six-tetrahedron cube decomposition in the
space case) come from one sign-case table per cell shape, looked up for
all crossing cells at once, and are built on demand, for point-cloud
dumps only.

The singular locus is the subset of the surface where F_u vanishes too.
Crossing cells where F_u changes sign too, F_u taken only at their
corners, seed a damped Newton polish that runs all seeds in lockstep; in
the space case the polished points are then ordered into polylines by
pseudo-arclength continuation along the one-dimensional solution curve.

Splitting off the connected component of the initial set is a pure
flood fill over cell adjacency with singular cells removed.  The grid
helpers here (cell lookup, cell centres, flood fill) serve the base-space
mask as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .expr import EvalDomainError, Expr, diff, evaluate_grid, var_names
from .expr import compile as compile_exprs
from .problem import Box

NEWTON_TOL = 1e-12
NEWTON_MAXIT = 50
SIGMA_RESIDUAL = 1e-10
DEGENERATE_RATIO = 1e-6
MIN_RESOLUTION = 16


class ResolutionError(Exception):
    """The grid is too coarse to carry out the requested operation."""


@dataclass
class LevelSurface:
    F: Expr
    box: Box
    resolution: int
    axes: tuple[np.ndarray, ...]       # vertex coordinates per axis
    values: np.ndarray                 # F at vertices
    valid: np.ndarray                  # vertex validity
    crossing: np.ndarray               # cell-shaped bool mask
    excluded_cells: np.ndarray         # cells dropped for invalid vertices

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def cell_size(self) -> np.ndarray:
        return np.array([ax[1] - ax[0] for ax in self.axes])

    @property
    def cell_diagonal(self) -> float:
        return float(np.linalg.norm(self.cell_size))

    @property
    def cells(self) -> np.ndarray:
        """(k, dim) indices of the crossing cells, lexicographically
        sorted."""
        return np.argwhere(self.crossing)


@dataclass
class SingularLocus:
    points: np.ndarray                 # (m, dim) refined points
    degenerate: np.ndarray             # (m,) bool flags
    polylines: list                    # ordered (k, dim) arrays (space case)
    seed_cells: np.ndarray             # (j, dim) cells with F and F_u crossings
    dropped: int                       # Newton divergences


@dataclass
class SurfaceComponent:
    """Connected set of crossing cells reachable from the initial set
    without touching singular cells."""

    surface: LevelSurface
    mask: np.ndarray                   # cell-shaped bool mask
    gamma_cells: list[tuple]
    sigma_cells: np.ndarray            # cell-shaped bool mask

    @property
    def cells(self) -> np.ndarray:
        """(k, dim) indices of the component cells, lexicographically
        sorted."""
        return np.argwhere(self.mask)


# ---------------------------------------------------------------------------
# Surface extraction

def _grid_values(e: Expr, axes, n: int):
    names = var_names(n)
    grids = np.meshgrid(*axes, indexing="ij", sparse=True)
    shape = tuple(len(ax) for ax in axes)
    return evaluate_grid(e, dict(zip(names, grids)), shape=shape)


def _corner_offsets(dim: int):
    return list(product((0, 1), repeat=dim))


def _classify_cells(values: np.ndarray, valid: np.ndarray, dim: int):
    """Masks over cells: all corners valid, and both F signs present
    (a vertex value of exactly zero counts as positive)."""
    cell_shape = tuple(s - 1 for s in values.shape)
    all_ok = np.ones(cell_shape, dtype=bool)
    has_pos = np.zeros(cell_shape, dtype=bool)
    has_neg = np.zeros(cell_shape, dtype=bool)
    for offs in _corner_offsets(dim):
        sl = tuple(slice(1, None) if o else slice(None, -1) for o in offs)
        v = values[sl]
        ok = valid[sl]
        all_ok &= ok
        has_pos |= ok & (v >= 0.0)
        has_neg |= ok & (v < 0.0)
    crossing = all_ok & has_pos & has_neg
    return crossing, all_ok


def _square_case(case: int) -> list:
    """Marching-squares segments for one sign case of the ring 00, 10, 11,
    01: bit i is set when ring corner i is >= 0, bit 4 when the bilinear
    centre value is.  The cut ring edges are taken in ring order; in the
    saddle case corners 00 and 11 join through the centre when it has
    their sign."""
    signs = [case >> i & 1 for i in range(5)]
    cut = [(i, (i + 1) % 4) for i in range(4)
           if signs[i] != signs[(i + 1) % 4]]
    if len(cut) == 2:
        return [cut]
    if len(cut) == 4:
        if signs[4] == signs[0]:
            return [cut[:2], cut[2:]]
        return [[cut[3], cut[0]], cut[1:3]]
    return []


def _tet_case(case: int) -> list:
    """Marching-tetrahedra triangles (Doi & Koide 1991) for one sign case:
    bit i is set when corner i is >= 0.  A lone corner of either sign cuts
    the three edges leaving it; a two-two split cuts the four edges from
    the positive to the negative corners into two triangles."""
    pos = [i for i in range(4) if case >> i & 1]
    negs = [i for i in range(4) if not case >> i & 1]
    if not pos or not negs:
        return []
    if len(pos) == 1 or len(negs) == 1:
        lone = pos[0] if len(pos) == 1 else negs[0]
        return [[(lone, o) for o in range(4) if o != lone]]
    (a, b), (c, d) = pos, negs
    q = [(a, c), (a, d), (b, d), (b, c)]
    return [[q[0], q[1], q[2]], [q[0], q[2], q[3]]]


# six-tetrahedron (Kuhn) decomposition of the unit cube: each tet walks
# 0 -> e_s1 -> e_s1+e_s2 -> (1,1,1) for a permutation (s1, s2, s3)
def _kuhn_tets(dim: int = 3):
    tets = []
    for perm in permutations(range(dim)):
        corner = [0] * dim
        path = [tuple(corner)]
        for axis in perm:
            corner[axis] = 1
            path.append(tuple(corner))
        tets.append(tuple(path))
    return tets


_TETS3 = _kuhn_tets(3)


def _case_table(shapes, case_pieces, bits: int):
    """Sign-case table of one cell shape (the idiom of Lorensen & Cline
    1987) in each of its placements ``shapes`` in the cell: the (n, c)
    corners of each placement as cell-corner indices, and per placement
    and sign case the (2, dim, 2) edges of the two piece slots, as pairs
    of cell-corner indices in endpoint order, with the (2,) mask of the
    slots in use."""
    offsets = _corner_offsets(len(shapes[0][0]))
    corners = np.array([[offsets.index(o) for o in shape] for shape in shapes])
    edges = np.zeros((len(shapes), 2 ** bits, 2, len(offsets[0]), 2),
                     dtype=np.intp)
    used = np.zeros((len(shapes), 2 ** bits, 2), dtype=bool)
    for case in range(2 ** bits):
        for slot, piece in enumerate(case_pieces(case)):
            edges[:, case, slot] = corners[:, piece]
            used[:, case, slot] = True
    return corners, edges, used


_CASE_TABLES = {
    2: _case_table([((0, 0), (1, 0), (1, 1), (0, 1))], _square_case, 5),
    3: _case_table(_TETS3, _tet_case, 4),
}


def extract_surface(F: Expr, box: Box, resolution: int) -> LevelSurface:
    """Find all sign-crossing cells of F over the box.

    Vertices where F fails to evaluate are marked invalid; their incident
    cells are excluded from the surface and reported.
    """
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    n = box.n
    if n > 1:
        raise NotImplementedError("surface extraction is implemented for "
                                  "n in {0, 1}")
    dim = n + 2
    axes = tuple(np.linspace(lo, hi, resolution + 1) for lo, hi in box.ranges)
    values, valid = _grid_values(F, axes, n)
    crossing, all_ok = _classify_cells(values, valid, dim)
    return LevelSurface(F, box, resolution, axes, values, valid, crossing,
                        np.argwhere(~all_ok))


def cell_pieces(surface: LevelSurface):
    """Linear pieces of the zero set in the crossing cells: segments of
    the square in the plane case, triangles of the six Kuhn tetrahedra in
    the space case.  Returns the (k, slots, width, dim) piece vertices, in
    ``surface.cells`` order and (shape, piece, vertex) order within a cell,
    and the (k, slots) mask of the slots in use; unused slots hold zeros.
    Each vertex is the zero ``a + s (b - a)``, ``s = va / (va - vb)``, of
    a cut edge from corner a to corner b."""
    dim = surface.dim
    corners = surface.cells[:, None, :] + np.array(_corner_offsets(dim))
    vals = surface.values[tuple(np.moveaxis(corners, -1, 0))]
    pts = np.stack([ax[corners[..., d]] for d, ax in enumerate(surface.axes)],
                   axis=-1)
    shapes, edges, slots = _CASE_TABLES[dim]
    bits = vals[:, shapes] >= 0.0
    case = (bits << np.arange(shapes.shape[1])).sum(axis=-1)
    if dim == 2:
        v = vals[:, shapes[0]]
        centre = (v[:, 0] + v[:, 1] + v[:, 2] + v[:, 3]) / 4.0
        case[:, 0] += (centre >= 0.0) << 4
    used = slots[np.arange(len(shapes)), case].reshape(len(case),
                                                      2 * len(shapes))
    cell, slot = np.nonzero(used)
    shape = slot // 2
    a, b = np.moveaxis(edges[shape, case[cell, shape], slot % 2], -1, 0)
    cell = cell[:, None]
    va, vb = vals[cell, a], vals[cell, b]
    pa, z = pts[cell, a], pts[cell, b]
    z -= pa                             # z = a + s (b - a), in place
    z *= (va / (va - vb))[..., None]
    z += pa
    pieces = np.zeros(used.shape + (dim, dim))
    pieces[used] = z
    return pieces, used


# ---------------------------------------------------------------------------
# Grid cells, shared with the base-space mask

def cell_of(axes, point):
    """Index of the grid cell holding ``point``, as a tuple; for an (m, dim)
    array of points, the (m, dim) array of cell indices.  A point off the
    grid is clamped into it."""
    point = np.asarray(point, dtype=float)
    lo = np.array([ax[0] for ax in axes])
    step = np.array([ax[1] - ax[0] for ax in axes])
    top = np.array([len(ax) - 2 for ax in axes])
    idx = np.floor((point - lo) / step)
    if np.isnan(idx).any():
        raise ValueError("a point with a NaN coordinate lies in no cell")
    idx = np.clip(idx, 0, top).astype(int)
    return tuple(idx.tolist()) if idx.ndim == 1 else idx


def cell_center(axes, cell) -> np.ndarray:
    """Centre of a grid cell; for an (m, dim) array of cells, the (m, dim)
    array of centres."""
    cell = np.asarray(cell)
    return np.stack([0.5 * (ax[i] + ax[i + 1])
                     for ax, i in zip(axes, np.moveaxis(cell, -1, 0))], axis=-1)


def flood(mask: np.ndarray, seeds, parents: bool = False):
    """Cells of ``mask`` facet-connected to the seed cells that lie in it.

    Breadth-first from the seeds in the order given, a cell's neighbours
    taken axis by axis, lower side first.  Returns the reached cells as a
    mask or, with ``parents``, as a dict mapping each reached cell to the
    cell it was first reached from (None for seeds).
    """
    # a False rim stops the search at the grid edge, so flat-index
    # neighbours never wrap around an axis; one byte per cell, so the
    # array's byte strides are its flat-index strides
    padded = np.pad(np.asarray(mask, dtype=bool), 1)
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
        cells = np.array(np.unravel_index(queue, padded.shape)).T - 1
        cells = [tuple(c) for c in cells.tolist()]
        return {c: cells[k] if k >= 0 else None
                for c, k in zip(cells, came_from)}
    interior = tuple(slice(1, -1) for _ in mask.shape)
    reached = np.frombuffer(reached, dtype=bool).reshape(padded.shape)
    return reached[interior].copy()


# ---------------------------------------------------------------------------
# Singular locus

def _damped_newton(res_fn, jac_fn, x0, tol=NEWTON_TOL, maxit=NEWTON_MAXIT):
    """Newton with Armijo halving on |r|^2.  Returns the solution or None."""
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


class _SigmaSystem:
    """Evaluation helpers for the square system (F, F_u) = 0, compiled
    once; a point where it fails to evaluate gives None."""

    def __init__(self, F: Expr, n: int):
        self.n = n
        names = var_names(n)
        self.F_u = diff(F, "u")
        self.values = compile_exprs([F, self.F_u], names)
        self.derivatives = compile_exprs(
            [diff(e, v) for e in (F, self.F_u) for v in names], names)

    def residual(self, point):
        try:
            return np.array(self.values(*point))
        except EvalDomainError:
            return None

    def jacobian2(self, point):
        """Full 2 x (n+2) Jacobian of (F, F_u)."""
        try:
            return np.array(self.derivatives(*point)).reshape(2, self.n + 2)
        except EvalDomainError:
            return None

    def tangent(self, point):
        """Unit tangent of the solution curve (space case only)."""
        J = self.jacobian2(point)
        if J is None:
            return None
        t = np.cross(J[0], J[1])
        norm = np.linalg.norm(t)
        if norm == 0.0 or not np.isfinite(norm):
            return None
        return t / norm


def _seed_cells(F_u: Expr, surface: LevelSurface) -> np.ndarray:
    """The crossing cells where F_u changes sign too, by the rule of
    ``_classify_cells``, with F_u evaluated only at the distinct corners of
    the crossing cells."""
    cells = surface.cells
    shape = surface.values.shape
    offsets = np.array(_corner_offsets(surface.dim))
    corners = (np.ravel_multi_index(cells.T, shape)[:, None]
               + np.ravel_multi_index(offsets.T, shape))
    flat, inverse = np.unique(corners, return_inverse=True)
    coords = [ax[i] for ax, i in zip(surface.axes,
                                     np.unravel_index(flat, shape))]
    values, valid = evaluate_grid(
        F_u, dict(zip(var_names(surface.dim - 2), coords)), shape=flat.shape)
    inverse = inverse.reshape(corners.shape)
    v = values[inverse]
    seed = (valid[inverse].all(axis=1) & (v >= 0.0).any(axis=1)
            & (v < 0.0).any(axis=1))
    return cells[seed]


def _evaluate_rows(fn, points, width: int):
    """``fn`` at each row of ``points``: the (k, width) values and the (k,)
    mask of the rows where it evaluated."""
    out = np.zeros((len(points), width))
    ok = np.ones(len(points), dtype=bool)
    for i, p in enumerate(points.tolist()):
        try:
            out[i] = fn(*p)
        except EvalDomainError:
            ok[i] = False
    return out, ok


def _squared_norms(v: np.ndarray) -> np.ndarray:
    """Row-wise ``np.dot(v, v)``, bit for bit: a stacked product runs the
    same BLAS dot, where ``v0*v0 + v1*v1`` rounds differently."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _solve_rows(J: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Steps ``J^-1 b`` of a stack of square systems; NaN rows where J is
    exactly singular."""
    try:
        return np.linalg.solve(J, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i, (Ji, bi) in enumerate(zip(J, b)):
            try:
                out[i] = np.linalg.solve(Ji, bi)
            except np.linalg.LinAlgError:
                pass
        return out


def _free_pairs(sys: _SigmaSystem, centers: np.ndarray) -> np.ndarray:
    """Per seed, the two coordinates the polish moves: all of them in the
    plane case; in the space case all but the largest component of the
    curve tangent at the cell centre, or (t, x) when that tangent is zero,
    non-finite or fails to evaluate (the rank check flags degeneracy
    later)."""
    k, dim = centers.shape
    free = np.tile([0, 1], (k, 1))
    if dim == 2:
        return free
    J, ok = _evaluate_rows(sys.derivatives, centers, 2 * dim)
    J = J.reshape(k, 2, dim)
    T = np.cross(J[:, 0], J[:, 1])
    norm = np.sqrt(_squared_norms(T))
    ok &= (norm != 0.0) & np.isfinite(norm)
    frozen = np.argmax(np.abs(T[ok] / norm[ok, None]), axis=1)
    free[ok] = np.array([[1, 2], [0, 2], [0, 1]])[frozen]
    return free


def _polish(sys: _SigmaSystem, centers: np.ndarray, box: Box):
    """Damped Newton on (F, F_u) = 0 from every seed-cell centre at once,
    in each seed's free pair of coordinates, the others frozen at the
    centre.  The steps of ``_damped_newton``, on the rows still active:
    converged at NEWTON_TOL, one stacked 2 x 2 solve, Armijo halving of
    the rows whose step is not yet accepted.  A row fails where the
    residual or Jacobian does not evaluate, the Jacobian is singular, the
    step is not finite, the halving runs out, NEWTON_MAXIT runs out or the
    root lies outside the box.  Returns the (k, dim) points, NaN for
    failed seeds, and the (k,) mask of the seeds that converged."""
    k, dim = centers.shape
    free = _free_pairs(sys, centers)
    P = centers.astype(float)
    R, active = _evaluate_rows(sys.values, P, 2)
    converged = np.zeros(k, dtype=bool)
    for _ in range(NEWTON_MAXIT):
        idx = np.flatnonzero(active)
        done = np.abs(R[idx]).max(axis=1) <= NEWTON_TOL
        converged[idx[done]] = True
        idx = idx[~done]
        active[:] = False            # a row stays by accepting a step
        if not len(idx):
            break
        J, ok = _evaluate_rows(sys.derivatives, P[idx], 2 * dim)
        idx = idx[ok]
        J = np.take_along_axis(J[ok].reshape(-1, 2, dim), free[idx, None], 2)
        step = _solve_rows(J, -R[idx])
        ok = np.isfinite(step).all(axis=1)
        idx, step = idx[ok], step[ok]
        X = P[idx[:, None], free[idx]]
        base = _squared_norms(R[idx])
        pending = np.arange(len(idx))
        lam = 1.0
        while lam > 2.0 ** -24 and len(pending):
            i = idx[pending]
            cand = P[i]
            cand[np.arange(len(i))[:, None], free[i]] = (X[pending]
                                                        + lam * step[pending])
            rc, good = _evaluate_rows(sys.values, cand, 2)
            good &= _squared_norms(rc) <= (1 - 0.5 * lam) * base[pending]
            P[i[good]], R[i[good]] = cand[good], rc[good]
            active[i[good]] = True
            pending = pending[~good]
            lam *= 0.5
    idx = np.flatnonzero(active)
    converged[idx] = np.abs(R[idx]).max(axis=1) <= NEWTON_TOL
    converged[converged] = box.contains(P[converged], atol=1e-12)
    P[~converged] = np.nan
    return P, converged


def _degenerate(sys: _SigmaSystem, points: np.ndarray) -> np.ndarray:
    """Per point, whether the 2 x dim Jacobian of (F, F_u) fails to
    evaluate or is rank deficient relative to DEGENERATE_RATIO."""
    dim = points.shape[1]
    J, ok = _evaluate_rows(sys.derivatives, points, 2 * dim)
    sv = np.linalg.svd(J[ok].reshape(-1, 2, dim), compute_uv=False)
    flags = ~ok
    flags[ok] = sv[:, -1] <= DEGENERATE_RATIO * np.maximum(sv[:, 0], 1e-300)
    return flags


def _trace_from(sys: _SigmaSystem, start, direction, box: Box, ds0,
                max_steps):
    """Pseudo-arclength continuation of the (F, F_u) = 0 curve."""
    points = [np.asarray(start, dtype=float)]
    T = direction
    ds = ds0
    for _ in range(max_steps):
        p = points[-1]
        pred = p + ds * T

        def res(q):
            r = sys.residual(q)
            if r is None:
                return None
            return np.array([r[0], r[1], float(np.dot(T, q - pred))])

        def jac(q):
            J = sys.jacobian2(q)
            if J is None:
                return None
            return np.vstack([J, T])

        q = _damped_newton(res, jac, pred, maxit=25)
        if q is None:
            if ds > ds0 / 64:
                ds *= 0.5
                continue
            break
        if not box.contains(q, atol=1e-12):
            break
        Tn = sys.tangent(q)
        if Tn is None:
            points.append(q)
            break
        if np.dot(Tn, T) < 0:
            Tn = -Tn
        T = Tn
        points.append(q)
        if len(points) > 3 and np.linalg.norm(q - points[0]) < 0.6 * ds0:
            points.append(points[0].copy())
            break
        ds = min(ds * 1.3, ds0)
    return points


def extract_singular_locus(F: Expr, surface: LevelSurface) -> SingularLocus:
    """Refine the set {F = 0, F_u = 0} from cells where both sign-change.

    The seeds are the crossing cells where F_u, evaluated at the corners of
    the crossing cells only, changes sign too.  All seeds are polished in
    lockstep by damped Newton on the square system from their cell centres
    (in the plane case in (t, u); in the space case in the two coordinates
    across the solution curve, with the along-curve coordinate frozen).
    Space-case points are then ordered into polylines by pseudo-arclength
    continuation.  Diverging seeds are dropped and counted.
    """
    n = surface.dim - 2
    sys = _SigmaSystem(F, n)
    seed_cells = _seed_cells(sys.F_u, surface)
    polished, ok = _polish(sys, cell_center(surface.axes, seed_cells),
                           surface.box)
    polished = polished[ok].tolist()
    dropped = len(ok) - len(polished)

    # deduplicate within one cell diagonal, deterministically
    diag = surface.cell_diagonal
    points = np.zeros((len(polished), surface.dim))
    kept = 0
    for point in sorted(polished):
        if np.all(np.linalg.norm(points[:kept] - point, axis=1) > diag):
            points[kept] = point
            kept += 1
    points = points[:kept]

    degenerate = _degenerate(sys, points)
    polylines: list[np.ndarray] = []

    if n == 1:
        visited = degenerate.copy()
        max_steps = 40 * surface.resolution
        for i, p in enumerate(points):
            if visited[i]:
                continue
            t = sys.tangent(p)
            if t is None:
                visited[i] = True
                continue
            fwd = _trace_from(sys, p, t, surface.box, diag, max_steps)
            bwd = _trace_from(sys, p, -t, surface.box, diag, max_steps)
            line = np.array(list(reversed(bwd[1:])) + fwd)
            polylines.append(line)
            # mark polished points swept by this polyline (never empty: it
            # holds the start) as visited
            for j in np.nonzero(~visited)[0]:
                d = np.min(np.linalg.norm(line - points[j], axis=1))
                if d <= diag:
                    visited[j] = True
            visited[i] = True

    return SingularLocus(points, degenerate, polylines, seed_cells, dropped)


# ---------------------------------------------------------------------------
# Component of the initial set

def _cells_touching(axes, point) -> list[tuple]:
    """All cells whose closed region contains the point (a point on a
    vertex plane belongs to both neighbors)."""
    choices = []
    for ax, v, i in zip(axes, point, cell_of(axes, point)):
        frac = (v - ax[0]) / (ax[1] - ax[0])
        opts = {i}
        if abs(frac - round(frac)) < 1e-9:
            j = int(round(frac))
            opts.update(c for c in (j - 1, j) if 0 <= c <= len(ax) - 2)
        choices.append(sorted(opts))
    return list(product(*choices))


def split_component(surface: LevelSurface, sigma: SingularLocus,
                    gamma) -> SurfaceComponent:
    """Flood-fill the crossing cells from the initial-set cells, with
    singular cells removed first: the sigma seed cells and the cells of
    the polished sigma points and polylines."""
    sigma_cells = np.zeros_like(surface.crossing)
    sigma_cells[tuple(sigma.seed_cells.T)] = True
    on_sigma = np.vstack([sigma.points, *sigma.polylines])
    sigma_cells[tuple(cell_of(surface.axes, on_sigma).T)] = True

    gamma_cells = []
    for sample in np.asarray(gamma, dtype=float):
        cands = [c for c in _cells_touching(surface.axes, sample)
                 if surface.crossing[c]]
        if not cands:
            raise ResolutionError(
                f"initial-set sample {sample.tolist()} lies in no crossing "
                "cell; increase the resolution")
        gamma_cells.extend(cands)

    frontier = [c for c in gamma_cells if not sigma_cells[c]]
    if not frontier:
        raise ResolutionError(
            "all initial-set cells are singular at this resolution")
    mask = flood(surface.crossing & ~sigma_cells, frontier)
    return SurfaceComponent(surface, mask, list(dict.fromkeys(gamma_cells)),
                            sigma_cells)


# ---------------------------------------------------------------------------
# Diagnostics used by tests and the CLI

def patch_vertices(surface: LevelSurface) -> np.ndarray:
    """All vertices of the cell pieces as one (m, dim) point cloud."""
    pieces, used = cell_pieces(surface)
    return pieces[used].reshape(-1, surface.dim)


def points_csv(surface: LevelSurface, sigma: SingularLocus,
               with_surface: bool = False) -> str:
    """Point-cloud dump: one row per point with a kind column
    (surface | sigma | sigma-degenerate)."""
    n = surface.dim - 2
    header = ["t", *(f"x{k}" for k in range(1, n + 1)), "u", "kind"]
    lines = [",".join(header)]
    if with_surface:
        lines += [",".join([*map(repr, p), "surface"])
                  for p in patch_vertices(surface).tolist()]
    lines += [",".join([*map(repr, p), "sigma-degenerate" if deg else "sigma"])
              for p, deg in zip(sigma.points.tolist(), sigma.degenerate)]
    return "\n".join(lines) + "\n"

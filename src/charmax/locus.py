"""Level-surface discretization and the singular locus.

The zero set of F is discretized over the computational box on a regular
grid: a cell "crosses" when F changes sign among its corner vertices, and
adjacency is shared-facet adjacency between crossing cells.  F and F_u
are evaluated by the implicit solution's form of the pair, tile by tile,
each tile on its own sparse axes, so that a subtree in fewer variables is
evaluated on fewer points and a tile's values are the whole grid's.  Each
vertex gets a sign code and each cell the OR of its corners' codes,
reduced one axis at a time, and from those one uint8 state code: not
crossing, excluded, crossing, or a sigma seed (F_u changes sign too).
``singular`` evaluates the whole grid as one tile; ``domain`` only the
tiles of TILE cells per axis that the initial set's flood reaches,
revealed as the flood asks for them.  The states are the surface's one
cell-shaped array: the flood also returns the sorted flat indices of the
cells it reached, each evaluated tile lists its seed cells, and masks of
the crossing, reached and excluded cells are derived only for readers
that ask for them.  For point-cloud dumps only, the surface is also given
as the zero of F on each cut edge of the crossing cells (the square's
sides in the plane case, the edges of the cube's six Kuhn tetrahedra in
the space case).

The singular locus is the subset of the surface where F_u vanishes too.
The seed cells start a damped Newton polish that runs all seeds in
lockstep on compile's array back end, on the implicit solution's
compiled forms; the stage compiles nothing.  The polished points,
thinned to one per cell diagonal, are sigma in every dimension: no
curve is traced through them.

The component of the initial set is a breadth-first flood fill over
cell adjacency with the singular cells removed, kept as sorted flat
indices like the singular cells.  The cells the seed-cut flood reached
are the component unless a cell of a polished sigma point is among
them; only then is a copy of the states flooded again.  The flood
expands a level of many cells in one numpy step and a level of a few
cells cell by cell, each reading one state per neighbour.  The flood
serves the surface grid only: the base-space mask is a projection of
the component, and point queries use no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .expr import evaluate_grid, output_rows, var_names
from .integrals import ImplicitSolution
from .problem import Box

NEWTON_TOL = 1e-12
NEWTON_MAXIT = 50
DEGENERATE_RATIO = 1e-6
MIN_RESOLUTION = 16
# flood expands a level of at least this many cells by one numpy step.  The
# cell-by-cell loop and the numpy step cost the same at about 18 cells a
# level in 3-D and 22 in 2-D; on the bundled problems' floods every value
# from 8 to 48 takes the same time
_LEVEL_CROSSOVER = 32
# cells per tile axis, by grid dimension, of the tiles extract_surface
# evaluates as the initial set's flood reaches them: of the sizes tried on
# the bundled problems, the fastest for their `domain` runs
TILE = {2: 128, 3: 16}
# a cell's state in flood, ordered so that a maximum merges a revealed block:
# not known yet (HIDDEN, or HELD once reached), not in the mask (NONE, or
# EXCLUDED for an invalid corner, or SEED), in the mask (OPEN), and REACHED
HIDDEN, HELD, NONE, EXCLUDED, OPEN, SEED, REACHED = range(7)


class ResolutionError(Exception):
    """The grid is too coarse to carry out the requested operation."""


@dataclass
class LevelSurface:
    box: Box
    resolution: int
    axes: tuple[np.ndarray, ...]       # vertex coordinates per axis
    values: np.ndarray | None          # F at vertices (whole grid only)
    state: np.ndarray                  # cell-shaped uint8 flood state codes
    seed_cells: np.ndarray             # (j, dim) sigma seed cells
    reached_flat: np.ndarray | None = None  # sorted flat, seed-cut flood

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
    def crossing(self) -> np.ndarray:       # mask of the crossing cells
        return self.state >= OPEN

    @property
    def reached(self) -> np.ndarray:        # mask of the seed-cut flood
        return self.state == REACHED

    @property
    def excluded_cells(self) -> np.ndarray:  # (k, dim), invalid vertices
        return cell_indices(self.state == EXCLUDED)

    @property
    def cells(self) -> np.ndarray:          # (k, dim) crossing cells, sorted
        return cell_indices(self.crossing)


@dataclass
class SingularLocus:
    points: np.ndarray                 # (m, dim) refined points
    degenerate: np.ndarray             # (m,) bool flags
    polylines: list                    # always []: perfbench's traced
                                       # observer still reads the field
    seed_cells: np.ndarray             # (j, dim) cells with F and F_u crossings
    dropped: int                       # Newton divergences


@dataclass
class SurfaceComponent:
    """Connected set of crossing cells reachable from the initial set
    without touching singular cells."""

    surface: LevelSurface
    cells_flat: np.ndarray             # sorted flat indices of its cells
    gamma_cells: list[tuple]
    sigma_flat: np.ndarray             # sorted flat indices, singular cells

    @property
    def cells(self) -> np.ndarray:          # (k, dim) its cells, sorted
        shape = self.surface.state.shape
        return np.transpose(np.unravel_index(self.cells_flat, shape))

    @property
    def mask(self) -> np.ndarray:           # mask of the component cells
        return cell_mask(self.cells_flat, self.surface.state.shape)

    @property
    def sigma_cells(self) -> np.ndarray:    # mask of the singular cells
        return cell_mask(self.sigma_flat, self.surface.state.shape)


# ---------------------------------------------------------------------------
# Surface extraction

def _sign_codes(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Per vertex, 1 when valid and >= 0, 2 when valid and < 0, 4 when
    invalid (a valid NaN gets 0)."""
    code = (values < 0.0).view(np.uint8) << 1
    code |= values >= 0.0
    code[~valid] = 4
    return code


def _cell_or(code: np.ndarray, dim: int) -> np.ndarray:
    """Per cell, the OR of its corner codes, one axis at a time over the
    last ``dim`` axes (a leading axis numbers tiles); an axis of length 1
    stands for codes that do not change along it, and stays."""
    for axis in range(code.ndim - dim, code.ndim):
        if code.shape[axis] > 1:
            at = (slice(None),) * axis
            code = code[at + (slice(None, -1),)] | code[at + (slice(1, None),)]
    return code


def _classify_cells(values: np.ndarray, valid: np.ndarray, dim: int):
    """Masks over cells: all corners valid, and both F signs present
    (a vertex value of exactly zero counts as positive), from the cells'
    OR of the vertex sign codes.  Along an axis where both arrays are
    broadcast (stride 0, as ``evaluate_grid`` returns an output that does
    not depend on that axis's variable) the codes are taken at one vertex."""
    lead = values.ndim - dim
    at = tuple(slice(None) if axis < lead or values.strides[axis]
               or valid.strides[axis] else slice(0, 1)
               for axis in range(values.ndim))
    code = _cell_or(_sign_codes(values[at], valid[at]), dim)
    code = np.broadcast_to(code, values.shape[:lead]
                           + tuple(k - 1 for k in values.shape[lead:]))
    return code == 3, code < 4


def _evaluate_tiles(F_and_Fu_rows, axes, origins: np.ndarray, size: int):
    """F and F_u, by the solution's array form ``F_and_Fu_rows``, at the
    vertices of the tiles of ``size`` cells per axis whose first cells are
    the rows of the (k, dim) ``origins``.  One ``evaluate_grid`` call, on
    sparse (k, 1, .., size + 1, .., 1) axes per tile, so that a subtree in
    fewer variables is evaluated on fewer points and a subtree F and F_u
    share once.  Returns F's (k, size + 1, ..) values and valid masks, and
    the tiles' (k, size, ..) masks of the crossing cells, of the cells with
    all corners valid, and of the seed cells: the crossing cells where F_u
    changes sign too, by the same rule."""
    k, dim = origins.shape
    ticks = np.arange(size + 1)
    coords = [ax[origins[:, a, None] + ticks].reshape(
                  (k,) + tuple(size + 1 if b == a else 1 for b in range(dim)))
              for a, ax in enumerate(axes)]
    (values, valid), F_u = evaluate_grid(
        F_and_Fu_rows, dict(zip(var_names(dim - 2), coords)))
    crossing, all_ok = _classify_cells(values, valid, dim)
    seeds = crossing & _classify_cells(*F_u, dim)[0]
    return values, valid, crossing, all_ok, seeds


def extract_surface(F_and_Fu_rows, box: Box, resolution: int,
                    gamma=None) -> LevelSurface:
    """Find the sign-crossing cells of F over the box, and among them the
    sigma seed cells, where F_u changes sign too.

    F and F_u = dF/du are evaluated tile by tile by ``_evaluate_tiles`` on
    the implicit solution's array form ``F_and_Fu_rows``, so the surface
    derives and compiles nothing.  Each tile's cells get one of flood's
    state codes: NONE, EXCLUDED (a vertex where F fails to evaluate), OPEN
    (crossing) or SEED.  Without ``gamma`` the whole grid is one tile, and
    the surface keeps F's vertex values (for ``patch_vertices``).  With the
    (m, dim) initial-set samples ``gamma`` the tiles have TILE cells per
    axis (a last tile that does not fit starts at ``resolution - TILE``),
    and ``flood`` evaluates those that the flood of the crossing cells
    from the samples' cells, cut at the seed cells, reaches; its REACHED
    cells' sorted flat indices are ``reached_flat``.  The surface keeps
    the states, the only cell-shaped array, and the seed cells, which each
    call lists from its tiles.
    """
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}")
    if box.n > 1:
        raise NotImplementedError("surface extraction is implemented for "
                                  "n in {0, 1}")
    dim = box.n + 2
    axes = tuple(np.linspace(lo, hi, resolution + 1) for lo, hi in box.ranges)
    size = resolution if gamma is None else min(TILE[dim], resolution)
    shape, tiles = (resolution,) * dim, (-(-resolution // size),) * dim
    seeds = []                     # the seed cells' flat indices, per call

    def codes(origins: np.ndarray):
        """F's vertex values and the cells' state codes on the tiles."""
        values, _, cross, all_ok, seed = _evaluate_tiles(
            F_and_Fu_rows, axes, origins, size)
        code = np.full(cross.shape, NONE, dtype=np.uint8)
        # NONE + invalid + 2 crossing + seed: NONE, EXCLUDED, OPEN or SEED
        for part in (~all_ok, cross, cross, seed):
            code += part
        tile, *at = np.unravel_index(np.flatnonzero(seed), seed.shape)
        seeds.append(np.ravel_multi_index(origins[tile].T + at, shape))
        return values, code

    def reveal(held: np.ndarray) -> list:
        """The first cell and the state codes of each tile of the (m, dim)
        held cells."""
        index = np.minimum(held // size, np.array(tiles) - 1)
        index = np.unique(np.ravel_multi_index(index.T, tiles))
        origins = np.minimum(np.transpose(np.unravel_index(index, tiles))
                             * size, resolution - size)
        return list(zip(origins.tolist(), codes(origins)[1]))

    if gamma is None:
        values, state = codes(np.zeros((1, dim), dtype=int))
        values, state, reached = values[0], state[0], None
    else:
        values = None
        state, reached = flood(shape, _cells_touching(axes, gamma)[0],
                               reveal=reveal)
    seeds = np.unique(np.concatenate(seeds))   # a cell of two tiles once
    return LevelSurface(box, resolution, axes, values, state,
                        np.transpose(np.unravel_index(seeds, shape)), reached)


# ---------------------------------------------------------------------------
# Grid cells

def cell_indices(mask: np.ndarray) -> np.ndarray:
    """``np.argwhere(mask)`` by one flat scan: the (k, ndim) indices of the
    True cells, lexicographically sorted."""
    return np.transpose(np.unravel_index(np.flatnonzero(mask), mask.shape))


def cell_mask(flat: np.ndarray, shape) -> np.ndarray:
    """The bool mask of the given shape that is True at the flat indices."""
    return np.bincount(flat, minlength=math.prod(shape)).reshape(shape) > 0


def among(cells: np.ndarray, flat: np.ndarray, shape) -> np.ndarray:
    """Per row of the (m, ndim) ``cells`` of a grid of ``shape``, whether
    the sorted flat indices ``flat`` hold it (its insertion points differ)."""
    at = np.ravel_multi_index(cells.T, shape)
    return np.searchsorted(flat, at) != np.searchsorted(flat, at, "right")


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


def flood(codes, seeds, reveal=None):
    """Cells of state code OPEN facet-connected to the seed cells among them.

    ``codes`` are the cells' uint8 codes NONE to OPEN, or with ``reveal``
    only the grid's shape.  Breadth-first from the seeds; returns the
    states (a view of the flood's own bytes), REACHED on the reached
    cells, and the REACHED cells' sorted flat indices.

    The search keeps one state byte per cell (HIDDEN to REACHED) of the
    grid padded by a rim of one cell: the rim is NONE, so that flat-index
    neighbours never wrap around an axis, and the interior is filled from
    ``codes``.  It runs one level (one distance from the seeds) at a time.
    A level of at least _LEVEL_CROSSOVER cells is expanded by one numpy
    step over the neighbours of all its cells, of which the OPEN cells,
    sorted and each once, join the next level; smaller levels run a
    cell-by-cell loop, where a numpy step costs more than it saves.

    With ``reveal``, the interior stays HIDDEN, and the search holds each
    HIDDEN cell it reaches.  When no other cell is left, it calls
    ``reveal`` with the (m, ndim) held cells, which returns (first cell,
    block) pairs, uint8 blocks of codes NONE to SEED that cover every held
    cell.  A block is merged by its maximum with the states, keeping the
    REACHED cells it overlaps, and the search resumes from the held cells
    that turned OPEN, one level for all.
    """
    shape = tuple(codes) if reveal is not None else codes.shape
    padded = tuple(k + 2 for k in shape)
    state = bytearray(math.prod(padded))
    view = np.frombuffer(state, dtype=np.uint8)
    grid = view.reshape(padded)
    for axis in range(len(padded)):
        at = (slice(None),) * axis
        grid[at + (0,)] = grid[at + (-1,)] = NONE
    interior = tuple(slice(1, -1) for _ in padded)
    if reveal is None:
        grid[interior] = codes
    # one byte per cell, so the byte strides are the flat-index strides
    offsets = [d for stride in grid.strides for d in (-stride, stride)]
    steps = np.array(offsets)
    seeds = np.asarray(seeds, dtype=np.intp).reshape(-1, len(padded)) + 1
    level, held = [], []
    for i in np.ravel_multi_index(seeds.T, padded).tolist():
        code = state[i]
        if code == OPEN:
            state[i] = REACHED
            level.append(i)
        elif code == HIDDEN:
            state[i] = HELD
            held.append(i)
    levels = [level]
    while len(level) or held:
        if not len(level):
            cells = np.transpose(np.unravel_index(held, padded)) - 1
            for first, block in reveal(cells):
                part = grid[tuple(slice(i + 1, i + 1 + k)
                                  for i, k in zip(first, block.shape))]
                np.maximum(part, block, out=part)
            held = np.asarray(held)
            held = held[view[held] == OPEN]
            view[held] = REACHED
            levels.append(held)
            level, held = held.tolist(), []
        if len(level) >= _LEVEL_CROSSOVER:
            near = (np.asarray(level)[:, None] + steps).ravel()
            code = view[near]
            enter = code == OPEN
            if reveal is not None:
                enter |= code == HIDDEN
            level = near[enter]
            level.sort()
            once = np.ones(len(level), dtype=bool)
            np.not_equal(level[1:], level[:-1], out=once[1:])
            level = level[once]
            if reveal is not None:
                hold = view[level] == HIDDEN
                view[level[hold]] = HELD
                held += level[hold].tolist()
                level = level[~hold]
            view[level] = REACHED
            if len(level) < _LEVEL_CROSSOVER:
                level = level.tolist()   # Python ints for the loop
        else:
            current, level = level, []
            for i in current:
                for d in offsets:
                    j = i + d
                    code = state[j]
                    if code == OPEN:
                        state[j] = REACHED
                        level.append(j)
                    elif code == HIDDEN:
                        state[j] = HELD
                        held.append(j)
        levels.append(level)
    # the reached cells (an empty list reads as float64)
    order = np.concatenate(levels, dtype=np.intp, casting="unsafe")
    order.sort()
    flat, scale = 0, 1      # less the rim, axis by axis from the last
    for size in reversed(padded):
        quot = order // size
        flat += (order - quot * size - 1) * scale
        order, scale = quot, scale * (size - 2)
    return grid[interior], flat


# ---------------------------------------------------------------------------
# Singular locus

def _rows(compiled, points: np.ndarray):
    """An array-compiled function at each row of ``points``: the (k, width)
    values, 0 on the rows where an output hit a domain violation or is not
    finite (the screen of ``evaluate_grid``), and the (k,) mask of the
    other rows."""
    with np.errstate(all="ignore"):
        outs = output_rows(compiled(*points.T), len(points))
    values = np.column_stack([v for v, _ in outs])
    bad = np.logical_or.reduce([b for _, b in outs])
    bad |= ~np.isfinite(values).all(axis=1)
    values[bad] = 0.0
    return values, ~bad


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


def _free_pairs(sol: ImplicitSolution, centers: np.ndarray) -> np.ndarray:
    """Per seed, the two coordinates the polish moves: all of them in the
    plane case; otherwise those of the largest 2 x 2 minor of the 2 x dim
    Jacobian of (F, F_u) at the cell centre, over the minors' norm, the
    first on ties in reverse lexicographic order (in 3-D the order of the
    cross product's components, the pair across the curve), or (t, x)
    where that norm is zero or not finite or the Jacobian fails (the rank
    check flags degeneracy later)."""
    k, dim = centers.shape
    free = np.tile([0, 1], (k, 1))
    if dim == 2:
        return free
    pairs = np.array(list(combinations(range(dim), 2))[::-1])
    J, ok = _rows(sol.jacobian_rows, centers)
    J = J.reshape(k, 2, dim)
    i, j = pairs.T
    with np.errstate(all="ignore"):     # an overflow fails the norm test
        minors = J[:, 0, i] * J[:, 1, j] - J[:, 0, j] * J[:, 1, i]
        norm = np.sqrt(_squared_norms(minors))
    ok &= (norm != 0.0) & np.isfinite(norm)
    free[ok] = pairs[np.argmax(np.abs(minors[ok] / norm[ok, None]), axis=1)]
    return free


def _polish(sol: ImplicitSolution, centers: np.ndarray, box: Box):
    """Damped Newton on (F, F_u) = 0 from every seed-cell centre at once,
    in each seed's free pair of coordinates, the others frozen at the
    centre.  Each round, on the rows still active: a row converges at
    NEWTON_TOL, the others take one stacked 2 x 2 solve, and the Newton
    step of a row is halved (Armijo, on |r|^2) until it is accepted.  A
    row fails where the residual or Jacobian does not evaluate, the
    Jacobian is singular, the step is not finite, the halving runs out,
    NEWTON_MAXIT runs out or the root lies outside the box.  Returns the
    (k, dim) points, NaN for failed seeds, and the (k,) mask of the seeds
    that converged."""
    k, dim = centers.shape
    free = _free_pairs(sol, centers)
    P = centers.astype(float)
    R, active = _rows(sol.F_and_Fu_rows, P)
    converged = np.zeros(k, dtype=bool)
    for _ in range(NEWTON_MAXIT):
        idx = np.flatnonzero(active)
        done = np.abs(R[idx]).max(axis=1) <= NEWTON_TOL
        converged[idx[done]] = True
        idx = idx[~done]
        active[:] = False            # a row stays by accepting a step
        if not len(idx):
            break
        J, ok = _rows(sol.jacobian_rows, P[idx])
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
            rc, good = _rows(sol.F_and_Fu_rows, cand)
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


def _degenerate(sol: ImplicitSolution, points: np.ndarray) -> np.ndarray:
    """Per point, whether the 2 x dim Jacobian of (F, F_u) fails to
    evaluate or is rank deficient relative to DEGENERATE_RATIO."""
    dim = points.shape[1]
    J, ok = _rows(sol.jacobian_rows, points)
    sv = np.linalg.svd(J[ok].reshape(-1, 2, dim), compute_uv=False)
    flags = ~ok
    flags[ok] = sv[:, -1] <= DEGENERATE_RATIO * np.maximum(sv[:, 0], 1e-300)
    return flags


def _deduplicate(points: np.ndarray, diag: float) -> np.ndarray:
    """The sorted points each more than ``diag`` from every earlier kept
    point: each kept point drops the later points within ``diag``.

    A norm is at least the size of its first coordinate, rounded too, so
    a kept point is tested only against the later points up to the first
    whose first-coordinate difference rounds to more than ``diag``.  That
    bound comes from ``np.searchsorted`` and is walked on where the sum
    it searched for rounded down."""
    x = points[:, 0]
    end = np.searchsorted(x, x + diag, side="right")
    while True:
        on = np.flatnonzero(end < len(x))
        on = on[x[end[on]] - x[on] <= diag]
        if not len(on):
            break
        end[on] += 1
    keep = np.ones(len(points), dtype=bool)
    for i, j in enumerate(end.tolist()):
        if keep[i] and j > i + 1:
            keep[i + 1:j] &= np.linalg.norm(points[i] - points[i + 1:j],
                                            axis=1) > diag
    return points[keep]


def extract_singular_locus(sol: ImplicitSolution,
                           surface: LevelSurface) -> SingularLocus:
    """Refine the set {F = 0, F_u = 0} from cells where both sign-change.

    The seeds are the surface's seed cells, the crossing cells where F_u
    changes sign too, on the tiles it evaluated.  All seeds are polished in
    lockstep by damped Newton on the square system from their cell centres
    (in the plane case in (t, u); otherwise in the pair of the largest
    2 x 2 minor of the Jacobian, in 3-D the two across the solution curve).
    Diverging seeds are dropped and counted.  The sorted polished points
    are thinned so that no two kept points lie within one cell diagonal,
    and each kept point is flagged where the rank check finds the
    Jacobian of (F, F_u) deficient.  The kept points are sigma in every
    dimension.  With no seeds, ``jacobian_rows`` is not compiled.
    """
    seed_cells = surface.seed_cells
    if not len(seed_cells):
        return SingularLocus(np.zeros((0, surface.dim)),
                             np.zeros(0, dtype=bool), [], seed_cells, 0)
    polished, ok = _polish(sol, cell_center(surface.axes, seed_cells),
                           surface.box)
    polished = sorted(polished[ok].tolist())
    dropped = len(ok) - len(polished)
    diag = surface.cell_diagonal
    points = _deduplicate(np.reshape(polished, (-1, surface.dim)), diag)
    return SingularLocus(points, _degenerate(sol, points), [], seed_cells,
                         dropped)


# ---------------------------------------------------------------------------
# Component of the initial set

def _cells_touching(axes, points):
    """The cells whose closed region holds a row of the (m, dim)
    ``points`` (a point on a vertex plane belongs to both neighbours):
    the (j, dim) cells, row by row and in lexicographic order within a
    row, and the (j,) row each belongs to."""
    points = np.asarray(points, dtype=float).reshape(-1, len(axes))
    lo = np.array([ax[0] for ax in axes])
    step = np.array([ax[1] - ax[0] for ax in axes])
    top = np.array([len(ax) - 2 for ax in axes])
    cell = cell_of(axes, points)
    frac = (points - lo) / step
    plane = np.round(frac)
    on = np.abs(frac - plane) < 1e-9
    low = np.where(on, np.clip(plane - 1, 0, top), cell).astype(int)
    high = np.where(on, np.clip(plane, 0, top), cell).astype(int)
    cells = low[:, None] + np.array(list(product((0, 1), repeat=len(axes))))
    row, corner = np.nonzero((cells <= high[:, None]).all(axis=2))
    return cells[row, corner], row


def split_component(surface: LevelSurface, sigma: SingularLocus,
                    gamma) -> SurfaceComponent:
    """Flood-fill the crossing cells from the initial-set cells, with the
    singular cells (sorted flat indices) removed: the sigma seed cells and
    the cells of the polished sigma points.  The flood from the initial
    set cut at the seed cells alone, ``reached_flat``, is the component
    unless a cell of a sigma point is REACHED, as the same flood with
    more cells removed outside it reaches the same cells; otherwise, and
    always without ``reached_flat``, a copy of the states with NONE in
    the singular cells is flooded."""
    shape = surface.state.shape
    on_sigma = cell_of(surface.axes, sigma.points)
    sigma_flat = np.union1d(np.ravel_multi_index(sigma.seed_cells.T, shape),
                            np.ravel_multi_index(on_sigma.T, shape))

    gamma = np.asarray(gamma, dtype=float).reshape(-1, surface.dim)
    cells, row = _cells_touching(surface.axes, gamma)
    crossing = surface.state[tuple(cells.T)] >= OPEN
    missing = np.setdiff1d(np.arange(len(gamma)), row[crossing])
    if len(missing):
        raise ResolutionError(
            f"initial-set sample {gamma[missing[0]].tolist()} lies in no "
            "crossing cell; increase the resolution")
    cells = cells[crossing]
    frontier = cells[~among(cells, sigma_flat, shape)]
    if not len(frontier):
        raise ResolutionError(
            "all initial-set cells are singular at this resolution")
    flat = surface.reached_flat
    if flat is None or (surface.state[tuple(on_sigma.T)] == REACHED).any():
        codes = np.clip(surface.state, NONE, OPEN)   # crossing cells OPEN
        codes.flat[sigma_flat] = NONE
        flat = flood(codes, frontier)[1]
    return SurfaceComponent(surface, flat,
                            list(dict.fromkeys(map(tuple, cells.tolist()))),
                            sigma_flat)


# ---------------------------------------------------------------------------
# Diagnostics used by tests and the CLI

def patch_vertices(surface: LevelSurface) -> np.ndarray:
    """The zero of F on each cut edge of the crossing cells, as one (m, dim)
    point cloud: the vertices of the linear pieces of the surface.

    The edges of a cell are the sides of the square in the plane case, and
    in the space case the cube's edges and the diagonals of its six Kuhn
    tetrahedra, which are the nonzero 0/1 offsets (Doi & Koide 1991;
    Allgower & Georg 1990, ch. 12).  Each edge runs from its lower end a to
    b and is cut where exactly one end is >= 0, the rule of
    ``_classify_cells``; its zero is ``a + s (b - a)`` with
    ``s = va / (va - vb)``.  An edge of several crossing cells gives one
    row; the rows are in (flat index of a, direction) order."""
    dim, shape = surface.dim, surface.values.shape
    offsets = np.array(list(product((0, 1), repeat=dim)))
    steps = offsets[1:] if dim == 3 else offsets[offsets.sum(axis=1) == 1]
    # the edges of a cell, each as its lower corner and its step
    corner, step = np.nonzero((offsets[:, None] + steps <= 1).all(axis=-1))
    lo = (np.ravel_multi_index(surface.cells.T, shape)[:, None]
          + np.ravel_multi_index(offsets[corner].T, shape))
    hi = lo + np.ravel_multi_index(steps[step].T, shape)
    values = surface.values.ravel()
    cut = (values[lo] >= 0.0) != (values[hi] >= 0.0)
    _, first = np.unique((lo * len(steps) + step)[cut], return_index=True)
    a, b = lo[cut][first], hi[cut][first]
    pa, pb = (np.column_stack([ax[i] for ax, i in
                               zip(surface.axes, np.unravel_index(v, shape))])
              for v in (a, b))
    va, vb = values[a], values[b]
    return pa + (va / (va - vb))[:, None] * (pb - pa)


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

import dataclasses
import json
import math
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from charmax import cli, locus, problem_path
from charmax.conslaw import ConservationLaw, envelope
from charmax.domain import MaximalDomain, maximal_domain
from charmax.expr import (EvalDomainError, diff, evaluate, evaluate_grid, parse,
                          var_names)
from charmax.expr import compile as compile_exprs
from charmax.integrals import implicit_solution_for_problem
from charmax.locus import (ResolutionError, _cells_touching, cell_center,
                           cell_indices, cell_of,
                           extract_singular_locus,
                           extract_surface, flood, patch_vertices,
                           split_component)
from charmax.problem import (Box, initial_set_samples, load_problem_bundle,
                             make_problem)
from test_cli import N0_FOLD_DATA, SQRT_DATA


def adjacency_components(surface):
    remaining = surface.crossing.copy()
    count = 0
    while remaining.any():
        count += 1
        remaining &= ~helpers.flood_bool(remaining,
                                         [np.argwhere(remaining)[0]])
    return count


def facet_neighbors(cell, shape):
    for axis in range(len(shape)):
        for step in (-1, 1):
            nb = list(cell)
            nb[axis] += step
            if 0 <= nb[axis] < shape[axis]:
                yield tuple(nb)


class TestExtractSurface:
    def test_plane_crossing_cells(self):
        F = parse("u", n=0)
        box = Box((-1.0, 1.0), (), (-1.0, 1.0))
        surf = extract_surface(helpers.pair_form(F, 0), box, 16)
        # u = 0 is the vertex plane between cell rows 7 and 8; with the
        # zero-counts-as-positive convention exactly row 7 straddles it
        assert {c[1] for c in surf.cells} == {7}
        assert len(surf.cells) == 16

    def test_reciprocal_two_branches_and_invalid_row(self):
        F = parse("t + 1/u - 1", n=0)
        box = Box((-2.0, 2.0), (), (-3.0, 3.0))
        # u = 0 lands on a vertex row
        surf = extract_surface(helpers.pair_form(F, 0), box, 64)
        assert len(surf.excluded_cells) == 2 * 64
        assert adjacency_components(surf) == 2
        # no crossing cell touches the invalid row
        bad_rows = {31, 32}
        assert all(c[1] not in bad_rows for c in surf.cells)
        # positive branch obeys t < 1
        tops = [surf.axes[0][c[0] + 1] for c in surf.cells
                if surf.axes[1][c[1]] >= 0]
        assert max(tops) <= 1.0 + 2 * surf.cell_size[0]

    def test_cap_surface_closed(self, pipelines):
        _, sol, surf, _, _, _ = pipelines("circular", 48)
        assert len(surf.cells) > 0
        # every crossing cell holds at least a triangle's worth of points
        held = Counter(map(tuple, _cells_touching(
            surf.axes, patch_vertices(surf))[0].tolist()))
        assert min(held[tuple(c)] for c in surf.cells.tolist()) >= 3

    def test_patch_linear_interp_bound(self, pipelines):
        _, sol, surf, _, _, _ = pipelines("circular", 48)
        names = var_names(1)
        grads = [diff(sol.F, v) for v in names]
        diag = surf.cell_diagonal
        points = patch_vertices(surf)
        rng = np.random.default_rng(11)
        for p in points[rng.choice(len(points), size=200, replace=False)]:
            centre = cell_center(surf.axes, cell_of(surf.axes, p))
            gmax = 0.0
            for q in (p, centre):
                b = dict(zip(names, (float(v) for v in q)))
                gmax = max(gmax, math.hypot(*(evaluate(g, b) for g in grads)))
            b = dict(zip(names, (float(v) for v in p)))
            assert abs(evaluate(sol.F, b)) <= 0.5 * diag * gmax + 1e-12

    def test_resolution_minimum(self):
        with pytest.raises(ValueError, match="16"):
            extract_surface(helpers.pair_form(parse("u", n=0), 0),
                            Box((-1, 1), (), (-1, 1)), 8)

    def test_crossing_cells_have_both_signs(self, pipelines):
        _, _, surf, _, _, _ = pipelines("burgers_ramp", 32)
        vals = helpers.vertex_values(surf)
        for cell in surf.cells[:: max(1, len(surf.cells) // 100)]:
            corners = vals[cell[0]:cell[0] + 2, cell[1]:cell[1] + 2,
                           cell[2]:cell[2] + 2]
            assert corners.min() < 0 <= corners.max()


def within(points, others, tol):
    """Per row of ``points``, whether a row of ``others`` lies within
    ``tol`` of it in the max norm.  Candidates are the rows whose
    projection on a fixed direction lies within the projected tolerance."""
    r = np.sqrt(np.arange(2.0, 2.0 + points.shape[1]))
    key = others @ r
    order = np.argsort(key)
    key = key[order]
    lo = np.searchsorted(key, points @ r - 2 * tol * r.sum())
    hi = np.searchsorted(key, points @ r + 2 * tol * r.sum(), side="right")
    found = np.zeros(len(points), dtype=bool)
    for k in range(int((hi - lo).max(initial=0))):
        near = others[order[np.minimum(lo + k, len(key) - 1)]]
        found |= (lo + k < hi) & (np.abs(near - points).max(axis=1) <= tol)
    return found


def assert_edge_zeros_match_references(surface):
    """The points byte for byte against the per-edge reference, and within
    1e-12 both ways of the distinct vertices of the cell pieces."""
    vertices = patch_vertices(surface)
    ref = helpers.patch_vertices_by_edges(surface)
    assert vertices.dtype == ref.dtype
    assert vertices.shape == ref.shape
    assert vertices.tobytes() == ref.tobytes()
    pieces = np.unique(helpers.cell_pieces_by_cells(surface), axis=0)
    assert within(vertices, pieces, 1e-12).all()
    assert within(pieces, vertices, 1e-12).all()
    return vertices


class TestCellPieces:
    """The vertices of the cell pieces, one zero per cut edge, against the
    per-edge reference byte for byte and the pieces of marching squares
    and tetrahedra within 1e-12."""

    @pytest.mark.parametrize("name,resolution", [
        ("ode_quadratic", 64), ("ode_quadratic", 1024),
        ("circular", 32), ("circular", 64),
        ("burgers_ramp", 32), ("burgers_ramp", 64),
        ("burgers_reciprocal", 32), ("burgers_reciprocal", 64)])
    def test_bundled_problems(self, name, resolution, solutions):
        b, _, sol = solutions(name)
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution)
        assert len(assert_edge_zeros_match_references(surface))

    @pytest.mark.parametrize("shape", [(23, 19), (9, 8, 7)])
    def test_random_grids_with_exact_zeros(self, shape):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            values = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e3],
                                                         size=shape)
            values[rng.random(shape) < 0.2] = 0.0
            values[rng.random(shape) < 0.05] = -0.0
            lows = rng.uniform(-2.0, 0.0, len(shape))
            highs = rng.uniform(0.1, 3.0, len(shape))
            surface = helpers.grid_surface(values, lows, highs)
            assert len(surface.cells)
            assert_edge_zeros_match_references(surface)

    @pytest.mark.parametrize("ring", [
        (1.0, -1.0, 2.0, -1.0),             # centre > 0, 00 positive
        (1.0, -2.0, 1.0, -1.0),             # centre < 0, 00 positive
        (1.0, -1.0, 1.0, -1.0),             # centre exactly 0
        (-1.0, 2.0, -1.0, 1.0),             # centre > 0, 00 negative
        (-2.0, 1.0, -1.0, 1.0),             # centre < 0, 00 negative
        (-1.0, 1.0, -1.0, 1.0),             # centre exactly 0, 00 negative
        # centre sum -5e-324, which divides by 4 to -0.0
        (5e-324, -1e-323, 5e-324, -5e-324),
    ])
    def test_saddle_squares(self, ring):
        """Ring values 00, 10, 11, 01: one zero on each side of the square
        [-1, 1]^2, whichever way the pieces inside would join."""
        v00, v10, v11, v01 = ring
        surface = helpers.grid_surface([[v00, v01], [v10, v11]])
        vertices = assert_edge_zeros_match_references(surface)

        def side(point):
            t, u = point
            return ("bottom" if u == -1.0 else "top" if u == 1.0
                    else "left" if t == -1.0 else "right")

        assert sorted(map(side, vertices.tolist())) == [
            "bottom", "left", "right", "top"]

    def test_every_tetrahedron_sign_pattern(self):
        """All 256 corner sign patterns of one cube, so each Kuhn
        tetrahedron meets each of its 16 patterns; positive corners are
        exact zeros in every other pattern."""
        rng = np.random.default_rng(7)
        seen = set()
        for pattern in range(256):
            signs = np.array([1.0 if pattern >> i & 1 else -1.0
                              for i in range(8)]).reshape(2, 2, 2)
            values = signs * rng.uniform(0.1, 2.0, (2, 2, 2))
            if pattern % 2:
                values[signs > 0] = 0.0
            surface = helpers.grid_surface(values)
            if pattern in (0, 255):
                assert len(surface.cells) == 0
            assert_edge_zeros_match_references(surface)
            for tet in helpers._cube_tets():
                seen.add(tuple(bool(signs[c] > 0) for c in tet))
        assert len(seen) == 16

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_crossing_cells(self, n):
        F = parse("u - 5", n=n)
        box = Box((-1.0, 1.0), ((-1.0, 1.0),) * n, (-1.0, 1.0))
        surface = extract_surface(helpers.pair_form(F, n), box, 16)
        assert len(surface.cells) == 0
        vertices = assert_edge_zeros_match_references(surface)
        assert vertices.shape == (0, n + 2)


class TestSingularLocus:
    def test_circular_sigma_on_closed_form_curve(self, pipelines):
        _, _, _, sigma, _, _ = pipelines("circular", 48)
        assert len(sigma.points) > 10
        assert np.abs(sigma.points[:, 2]).max() <= 1e-10
        resid = sigma.points[:, 1] ** 3 + sigma.points[:, 0] ** 2 - 1.0
        assert np.abs(resid).max() <= 1e-10

    def test_ramp_sigma_is_vertical_line(self, pipelines):
        _, _, _, sigma, _, _ = pipelines("burgers_ramp", 32)
        assert len(sigma.points) > 3
        assert np.abs(sigma.points[:, 0] - 0.5).max() <= 1e-10
        assert np.abs(sigma.points[:, 1]).max() <= 1e-10
        assert not sigma.degenerate.any()
        # the polished points span the u-range of the box
        us = sigma.points[:, 2]
        assert us.max() - us.min() > 4.0

    @pytest.mark.parametrize("resolution", [48, 64, 100, 128, 256])
    @pytest.mark.parametrize("name, h", [("burgers_reciprocal", "1/(x+1)"),
                                         ("burgers_ramp", "-2*x")])
    def test_points_cover_the_closed_form_envelope(self, name, h, resolution,
                                                   solutions):
        # the polished points of the tiles that `domain` evaluates stand
        # for the whole fold: each of 41 envelope points must lie within
        # one cell diagonal of one of them, projected to (t, x)
        b, _, sol = solutions(name)
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution,
                                  sol.gamma_samples)
        projected = extract_singular_locus(sol, surface).points[:, :2]
        law = ConservationLaw.from_parts(parse("u", n=1), parse(h, n=1))
        env = envelope(law, b.data.interval, 41)
        assert len(env.t) == 41
        for t, x in zip(env.t, env.x):
            d = np.linalg.norm(projected - [t, x], axis=1).min()
            assert d <= surface.cell_diagonal, (t, x, d)

    def test_reciprocal_sigma_matches_fold(self, pipelines):
        _, _, _, sigma, _, _ = pipelines("burgers_reciprocal", 48)
        pts = sigma.points
        assert len(pts) > 10
        assert np.abs(pts[:, 0] - (pts[:, 1] + 1) ** 2 / 4).max() <= 1e-8
        assert np.abs(pts[:, 2] - 2.0 / (pts[:, 1] + 1)).max() <= 1e-8

    def test_sigma_residuals_and_box(self, pipelines):
        b, sol, _, sigma, _, _ = pipelines("burgers_reciprocal", 48)
        names = var_names(1)
        Fu = diff(sol.F, "u")
        lo, hi = b.problem.box.lows(), b.problem.box.highs()
        for p in sigma.points:
            bind = dict(zip(names, (float(v) for v in p)))
            assert abs(evaluate(sol.F, bind)) <= 1e-10
            assert abs(evaluate(Fu, bind)) <= 1e-10
            assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)

    # the sigma stage runs on the solution's (F, F_u) and its derivatives
    # on the array back end
    @pytest.mark.parametrize("form", ["F_and_Fu_rows", "jacobian_rows"])
    def test_evaluator_faults_are_not_dropped_seeds(self, form, solutions):
        # a fault of the evaluator itself is not a domain violation at a
        # seed: it must reach the caller
        b, _, sol = solutions("burgers_reciprocal")
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, 32)

        def evaluator(*values):
            raise TypeError("faulty evaluator")

        faulty_sol = dataclasses.replace(sol, **{form: evaluator})
        with pytest.raises(TypeError, match="faulty evaluator"):
            extract_singular_locus(faulty_sol, surface)

    def test_ode_sigma_empty(self, pipelines):
        _, _, _, sigma, _, _ = pipelines("ode_quadratic", 512)
        assert len(sigma.points) == 0
        assert len(sigma.seed_cells) == 0

    def test_fold_test_across_projection(self, pipelines):
        _, sol, surf, sigma, _, _ = pipelines("circular", 48)
        step = 2 * surf.cell_diagonal
        checked = 0
        for p in sigma.points[:: max(1, len(sigma.points) // 12)]:
            # displacement normal to the fold projection in the (t, x) plane
            normal = np.array([2 * p[0], 3 * p[1] ** 2])
            nn = np.linalg.norm(normal)
            if nn < 1e-9:
                continue
            normal = normal / nn
            d_out = helpers.fold_discriminant(sol.F, p, step * normal)
            d_in = helpers.fold_discriminant(sol.F, p, -step * normal)
            assert d_out * d_in < 0
            checked += 1
        assert checked >= 5


class TestSplitComponent:
    def test_ode_component_stops_before_one(self, pipelines):
        b, _, surf, sigma, comp, _ = pipelines("ode_quadratic", 512)
        # positive-u branch only, t below 1
        assert all(surf.axes[1][c[1]] >= 0 for c in comp.cells)
        tmax = max(surf.axes[0][c[0] + 1] for c in comp.cells)
        assert tmax <= 1.0 + surf.cell_size[0]

    def test_constant_solution_single_component(self):
        problem, data = make_problem(
            1, "1", ["u"], "0", "2",
            Box((-1.0, 1.0), ((-1.0, 1.0),), (-3.0, 3.0)))
        _, sol = implicit_solution_for_problem(problem, data)
        surf = extract_surface(sol.F_and_Fu_rows, problem.box, 16)
        sigma = extract_singular_locus(sol, surf)
        assert len(sigma.points) == 0
        gamma = initial_set_samples(data, 9)
        comp = split_component(surf, sigma, gamma)
        assert np.array_equal(comp.mask, surf.crossing)

    def test_reciprocal_component_is_minus_branch(self, pipelines):
        b, _, surf, sigma, comp, _ = pipelines("burgers_reciprocal", 48)
        du = surf.cell_size[2]

        def u_minus(t, x):
            disc = (x + 1.0) ** 2 - 4.0 * t
            if disc < 0:
                return None
            if abs(t) < 1e-9:
                return 1.0 / (x + 1.0)
            return (x + 1.0 - math.sqrt(disc)) / (2.0 * t)

        checked = 0
        for cell in comp.cells[:: max(1, len(comp.cells) // 300)]:
            it, ix, iu = (int(v) for v in cell)
            footprint = [(surf.axes[0][it + a], surf.axes[1][ix + b])
                         for a in (0, 1) for b in (0, 1)]
            # only judge cells whose footprint is far from the fold, where
            # the two branches are well separated and the sheet is tame
            seps = []
            for t, x in footprint:
                disc = (x + 1.0) ** 2 - 4.0 * t
                if disc <= 0:
                    break
                seps.append(math.sqrt(disc) / max(abs(t), 1e-9))
            else:
                if min(seps) < 6.0 * du:
                    continue
                corners = [u_minus(t, x) for t, x in footprint]
                u_lo, u_hi = surf.axes[2][iu], surf.axes[2][iu + 1]
                assert min(corners) <= u_hi + du
                assert max(corners) >= u_lo - du
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("name,resolution", [("ode_quadratic", 512),
                                                 ("circular", 48),
                                                 ("burgers_ramp", 48),
                                                 ("burgers_reciprocal", 48)])
    def test_sigma_mask_matches_scalar_cell_of(self, name, resolution,
                                               pipelines):
        _, _, surf, sigma, comp, _ = pipelines(name, resolution)
        cells = {tuple(c) for c in np.argwhere(comp.sigma_cells).tolist()}
        assert cells == helpers.sigma_cells_oracle(surf, sigma)
        assert not (comp.mask & comp.sigma_cells).any()

    def test_gamma_off_surface_raises(self, pipelines):
        _, _, surf, sigma, _, _ = pipelines("burgers_ramp", 32)
        with pytest.raises(ResolutionError, match="no crossing cell"):
            split_component(surf, sigma, np.array([[0.9, 0.9, 2.9]]))


class TestRefinement:
    @pytest.mark.parametrize("name,coarse", [("circular", 24),
                                             ("burgers_ramp", 24)])
    def test_doubling_keeps_interior_cells(self, name, coarse, pipelines):
        _, _, surf1, _, comp1, _ = pipelines(name, coarse)
        _, _, surf2, _, comp2, _ = pipelines(name, 2 * coarse)
        sigma_adjacent = set()
        for cell in np.argwhere(comp1.sigma_cells).tolist():
            for dt in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    for du in (-1, 0, 1):
                        sigma_adjacent.add((cell[0] + dt, cell[1] + dx,
                                            cell[2] + du))
        missing = 0
        interior = 0
        for cell in comp1.cells:
            cell = tuple(int(v) for v in cell)
            if cell in sigma_adjacent:
                continue
            # interior coarse cells: all facet neighbors also in component
            if any(surf1.crossing[nb] and not comp1.mask[nb]
                   for nb in facet_neighbors(cell, comp1.mask.shape)):
                continue
            interior += 1
            children = [
                (2 * cell[0] + a, 2 * cell[1] + b, 2 * cell[2] + c)
                for a in (0, 1) for b in (0, 1) for c in (0, 1)]
            if not any(comp2.mask[ch] for ch in children):
                missing += 1
        assert interior > 0
        assert missing == 0


def flood_mask(kind, shape, seed):
    """A mask for the flood tests: random, one cell, all True, all False,
    a one-cell-wide serpentine in the first two axes, or a ball."""
    rng = np.random.default_rng(seed)
    mask = np.zeros(shape, dtype=bool)
    if kind == "random":
        mask = rng.random(shape) < rng.uniform(0.5, 0.95)
    elif kind == "one":
        mask[tuple(rng.integers(0, shape))] = True
    elif kind == "full":
        mask[...] = True
    elif kind == "serpentine":
        # even rows open, odd rows open at alternate ends
        at = (slice(None), slice(None)) + (0,) * (len(shape) - 2)
        plane = mask[at] if len(shape) > 1 else mask[:, None]
        plane[::2] = True
        plane[1::4, -1] = plane[3::4, 0] = True
    elif kind == "ball":
        centre = rng.uniform(0, shape)
        grid = np.indices(shape) - centre.reshape((-1,) + (1,) * len(shape))
        radius = rng.uniform(0.25, 1.0) * max(shape)
        mask = (grid ** 2).sum(axis=0) <= radius ** 2
    return mask


def flood_seeds(mask, count, seed):
    """``count`` seeds in any order: cells of the mask, repeated ones, and
    cells off the mask, the grid's one-cell rim included."""
    rng = np.random.default_rng(seed)
    inside = np.argwhere(mask)
    seeds = []
    for _ in range(count):
        pick = rng.integers(3)
        if pick == 0 and len(inside):
            seeds.append(inside[rng.integers(len(inside))])
        elif pick == 1 and seeds:
            seeds.append(seeds[rng.integers(len(seeds))])
        else:
            seeds.append(rng.integers(-1, np.add(mask.shape, 1)))
    return [tuple(int(i) for i in c) for c in seeds]


def block_reveal(mask, size, revealed):
    """A ``reveal`` for flood that makes ``mask`` known in blocks of
    ``size`` cells per axis (fewer on a shorter axis, the last block of an
    axis ending at its edge), as extract_surface's tiles; the first cell of
    each block it returns is appended to ``revealed``."""
    shape = np.array(mask.shape)
    size = np.minimum(size, shape)
    last = -(-shape // size) - 1

    def reveal(cells):
        assert len(cells) and mask.ndim == cells.shape[1]
        firsts = np.minimum(np.minimum(cells // size, last) * size,
                            shape - size)
        blocks = []
        for first in dict.fromkeys(map(tuple, firsts.tolist())):
            revealed.append(first)
            blocks.append((first,
                           helpers.mask_codes(mask[block_at(first, size)])))
        return blocks

    return reveal


def block_at(first, size):
    """The block of ``size[a]`` cells along each axis a from ``first``."""
    return tuple(slice(i, i + k) for i, k in zip(first, size))


def check_reveal(mask, seeds, size):
    """flood with ``block_reveal`` against the flood of the known mask:
    REACHED on the same cells, each revealed block's codes on its other
    cells, HIDDEN on the cells of no block, and every block asked for
    once.  Returns the first cells of the blocks."""
    revealed = []
    got, reached = flood(mask.shape, seeds,
                         reveal=block_reveal(mask, size, revealed))
    want = np.zeros(mask.shape, dtype=np.uint8)
    size = np.minimum(size, mask.shape)
    for first in revealed:
        at = block_at(first, size)
        want[at] = helpers.mask_codes(mask[at])
    want[helpers.flood_bool(mask, seeds)] = locus.REACHED
    assert got.dtype == np.uint8 and np.array_equal(got, want)
    assert _same_bytes(reached, np.flatnonzero(want == locus.REACHED))
    assert len(revealed) == len(set(revealed))
    return revealed


def check_flood(mask, seeds):
    """flood of a mask's codes, revealed as one block, against the
    one-queue reference helpers.flood_by_queue: the same states and the
    same flat indices; with no seed in the grid, nothing is revealed and
    every state is HIDDEN.  Returns the reference's parents dict."""
    codes = helpers.mask_codes(mask)
    got, flat = flood(mask.shape, seeds, helpers.one_block(codes))
    want, want_flat = helpers.flood_by_queue(codes, seeds)
    if not any(all(0 <= i < k for i, k in zip(seed, mask.shape))
               for seed in seeds):
        want[...] = locus.HIDDEN
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert _same_bytes(flat, want_flat)
    return helpers.flood_by_queue(codes, seeds, parents=True)


def level_sizes(parent) -> list:
    """Cells per distance from the seeds, from a parents dict."""
    depth = {}
    for cell, up in parent.items():
        depth[cell] = 0 if up is None else depth[up] + 1
    return np.bincount(list(depth.values())).tolist()


class TestFlood:
    def test_far_end_not_reached_from_index_zero(self):
        reach = helpers.flood_bool
        line = np.array([True, False, False, True])
        assert reach(line, [(0,)]).tolist() == [True, False, False, False]
        plane = np.zeros((4, 5), dtype=bool)
        plane[0, 0] = plane[3, 0] = True   # ends of axis 0
        plane[1, 4] = plane[2, 0] = True   # adjacent in flat (row-major) order
        assert np.argwhere(reach(plane, [(0, 0)])).tolist() == [[0, 0]]
        assert np.argwhere(reach(plane, [(1, 4)])).tolist() == [[1, 4]]
        cube = np.zeros((3, 3, 3), dtype=bool)
        cube[0, 1, 1] = cube[2, 1, 1] = True
        cube[1, 1, 2] = cube[1, 2, 0] = True
        assert np.argwhere(reach(cube, [(0, 1, 1)])).tolist() == [[0, 1, 1]]
        assert np.argwhere(reach(cube, [(1, 1, 2)])).tolist() == [[1, 1, 2]]

    def test_disconnected_seeds(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, :2] = mask[4, 3:] = mask[2, 2] = True
        expected = mask.copy()
        expected[2, 2] = False
        assert np.array_equal(helpers.flood_bool(mask, [(0, 1), (4, 4)]),
                              expected)
        assert not helpers.flood_bool(mask, [(1, 1)]).any()  # off the mask

    @given(dim=st.integers(1, 3),
           kind=st.sampled_from(["random", "one", "full", "empty",
                                 "serpentine", "ball"]),
           seed=st.integers(0, 2**32 - 1), count=st.integers(0, 48))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_queue(self, dim, kind, seed, count):
        rng = np.random.default_rng(seed)
        top = {1: 90, 2: 64, 3: 16}[dim]
        shape = tuple(int(v) for v in rng.integers(1, top + 1, dim))
        mask = flood_mask(kind, shape, seed)
        check_flood(mask, flood_seeds(mask, count, seed))

    def test_levels_cross_the_crossover_both_ways(self):
        # a disc seeded at its centre grows levels past the crossover and
        # shrinks them below it at its rim; a one-cell-wide tail follows
        mask = np.zeros((45, 45), dtype=bool)
        grid = np.indices(mask.shape) - 20
        mask[(grid ** 2).sum(axis=0) <= 18 ** 2] = True
        mask[20, 38:] = True
        mask[21:, 44] = True
        sizes = level_sizes(check_flood(mask, [(20, 20)]))
        big = [k for k, n in enumerate(sizes) if n >= locus._LEVEL_CROSSOVER]
        assert big and sizes[0] < locus._LEVEL_CROSSOVER
        assert len(sizes) > big[-1] + 10          # small levels after them
        # many seeds: the seed level itself is large
        seeds = [(i,) for i in range(199, 0, -3)]
        assert len(seeds) >= locus._LEVEL_CROSSOVER
        check_flood(np.ones(200, dtype=bool), seeds)

    def test_no_cell_reached(self):
        mask = np.zeros((3, 4), dtype=bool)
        assert not helpers.flood_bool(mask, [(1, 1), (-1, 4)]).any()
        state, flat = flood(mask.shape, [],
                            helpers.one_block(helpers.mask_codes(mask)))
        assert flat.dtype == np.intp and not len(flat)
        assert (state == locus.HIDDEN).all()

    @given(dim=st.integers(1, 3),
           kind=st.sampled_from(["random", "one", "full", "empty",
                                 "serpentine", "ball"]),
           seed=st.integers(0, 2**32 - 1), count=st.integers(0, 48),
           size=st.integers(1, 9))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_reveal_matches_the_known_mask(self, dim, kind, seed, count,
                                           size):
        rng = np.random.default_rng(seed)
        top = {1: 90, 2: 64, 3: 16}[dim]
        shape = tuple(int(v) for v in rng.integers(1, top + 1, dim))
        mask = flood_mask(kind, shape, seed)
        check_reveal(mask, flood_seeds(mask, count, seed), size)

    @pytest.mark.parametrize("size", [5, 8, 16])
    def test_shell_above_the_crossover_with_reveal(self, size):
        # a spherical shell of a 40^3 grid, seeded at one cell: its levels
        # grow past the crossover, and blocks of ``size`` cells hold the
        # search at every block face it reaches
        grid = np.indices((40, 40, 40)) - 19.5
        radius = np.sqrt((grid ** 2).sum(axis=0))
        mask = (radius >= 14.0) & (radius <= 17.0)
        seed = [tuple(int(i) for i in np.argwhere(mask)[0])]
        sizes = level_sizes(check_flood(mask, seed))
        assert max(sizes) >= 4 * locus._LEVEL_CROSSOVER
        assert len(check_reveal(mask, seed, size)) > 8
        assert (helpers.flood_bool(mask, seed) == mask).all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_block_over_reached_cells_keeps_them(self, dim):
        # two branches from the first row: one runs to the last row, the
        # other stops short of it and meets the first only in the first
        # row.  The last block (rows 1 to 16) re-covers both after the
        # search reached them; a block written over the states instead of
        # merged would reopen the short branch, which no cell the search
        # still expands would reach again
        mask = np.zeros((17, 3) + (1,) * (dim - 2), dtype=bool)
        mask[0] = mask[:, 0] = mask[:11, 2] = True
        got = check_reveal(mask, [(0,) * dim], 16)
        assert got == [(0,) * dim, (1,) + (0,) * (dim - 1)]
        assert helpers.flood_bool(mask, [(0,) * dim]).sum() == 17 + 2 + 10


class TestCellOf:
    def test_array_of_points_matches_scalar_calls(self):
        axes = (np.linspace(-1.0, 2.0, 13), np.linspace(0.0, 1.0, 9),
                np.linspace(-3.0, 3.0, 17))
        rng = np.random.default_rng(5)
        points = rng.uniform([-1.5, -0.2, -3.5], [2.5, 1.2, 3.5], (200, 3))
        points[:20, 0] = axes[0][rng.integers(0, 13, 20)]  # on vertex planes
        cells = cell_of(axes, points)
        assert cells.shape == (200, 3)
        assert [tuple(c) for c in cells.tolist()] == [cell_of(axes, p)
                                                     for p in points]
        assert cell_of(axes, points[:0]).shape == (0, 3)

    def test_cells_touching_match_the_point_loop(self):
        axes = (np.linspace(-1.0, 2.0, 13), np.linspace(0.0, 1.0, 9),
                np.linspace(-3.0, 3.0, 17))
        rng = np.random.default_rng(6)
        points = rng.uniform([-1.5, -0.2, -3.5], [2.5, 1.2, 3.5], (300, 3))
        for a, ax in enumerate(axes):     # on vertex planes, edges included
            on = rng.random(300) < 0.4
            points[on, a] = ax[rng.integers(0, len(ax), on.sum())]
        points[:2] = [ax[0] for ax in axes], [ax[-1] for ax in axes]
        cells, row = _cells_touching(axes, points)
        assert [(r, tuple(c)) for r, c in zip(row.tolist(),
                                              cells.tolist())] == [
            (r, c) for r, p in enumerate(points)
            for c in helpers.cells_touching_point_by_point(axes, p)]
        assert (np.bincount(row, minlength=300) > 1).sum() > 100

    def test_off_grid_without_clamp(self):
        # cell_of clamps; the tests' mask lookup puts off-grid points,
        # the last vertex included, in no cell
        axes = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
        everywhere = MaximalDomain(4, axes, np.ones((4, 4), bool), [])
        assert cell_of(axes, [0.3, 1.0]) == (1, 3)
        assert not helpers.contains_cell(everywhere, [0.3, 1.0])
        assert not helpers.contains_cell(everywhere, [-0.1, 0.5])
        assert cell_of(axes, [0.0, 0.99]) == (0, 3)
        assert helpers.contains_cell(everywhere, [0.0, 0.99])
        with pytest.raises(ValueError, match="NaN"):
            cell_of(axes, [math.nan, 0.5])
        with pytest.raises(ValueError, match="NaN"):
            helpers.contains_cell(everywhere, [math.nan, 0.5])


class TestDimensionLimit:
    def test_n2_extraction_not_implemented(self):
        problem, _ = make_problem(
            2, "1", ["u", "u^2"], "0", "x1 + x2",
            Box((-1.0, 1.0), ((-1.0, 1.0), (-1.0, 1.0)), (-3.0, 3.0)),
            s_range=((-0.1, 0.1), (-0.1, 0.1)))
        with pytest.raises(NotImplementedError):
            extract_surface(helpers.pair_form(parse("u - x1 - x2", n=2), 2),
                            problem.box, 16)


# Burgers-type laws u_t + a(u) u_x = 0 whose sigma polish drops seeds
EXP_SIN_DATA = {
    "n": 1, "alpha": "1", "a": ["exp(u)"], "b": "0", "h": "sin(x)",
    "s_range": [-0.1, 0.1],
    "box": {"t": [-0.5, 1.5], "x": [[-2.0, 2.0]], "u": [-1.3, 1.3]},
}
CUBE_GAUSS_DATA = {
    "n": 1, "alpha": "1", "a": ["u^3/3"], "b": "0", "h": "exp(-x^2)",
    "s_range": [-0.1, 0.1],
    "box": {"t": [-0.5, 3.0], "x": [[-2.0, 3.0]], "u": [-0.2, 1.2]},
}
SIGMA_PROBLEMS = {"sqrt": SQRT_DATA, "n0_fold": N0_FOLD_DATA,
                  "exp_sin": EXP_SIN_DATA, "cube_gauss": CUBE_GAUSS_DATA}
SIGMA_CASES = (
    [(name, r) for name in ("circular", "burgers_ramp", "burgers_reciprocal")
     for r in (24, 48, 128)]
    + [(name, r) for name in ("ode_quadratic", "n0_fold") for r in (64, 1024)]
    + [(name, r) for name in ("sqrt", "exp_sin", "cube_gauss")
       for r in (24, 48, 128)])


@pytest.fixture(scope="module")
def sigma_problem(tmp_path_factory, solutions):
    """(bundle, solution) of a bundled problem or of SIGMA_PROBLEMS."""
    cache = {}

    def get(name):
        if name not in SIGMA_PROBLEMS:
            b, _, sol = solutions(name)
            return b, sol
        if name not in cache:
            path = tmp_path_factory.mktemp("sigma") / f"{name}.json"
            path.write_text(json.dumps(SIGMA_PROBLEMS[name]))
            b = load_problem_bundle(path)
            _, sol = implicit_solution_for_problem(b.problem, b.data, b.rho,
                                                   b.f)
            cache[name] = b, sol
        return cache[name]

    return get


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes())


class StubForms:
    """Hand-written (F, F_u) and Jacobian on (t, x, u): the seed's label
    round(x) picks the behaviour.  Where the Jacobian has no x column the
    tangent is along x, so x stays frozen at the label."""

    CENTRES = np.array([[1.6, 0.0, 0.5],
                        *([0.6, k, 0.5] for k in range(1, 10))])
    # label 0 converges through Armijo halving (Newton on atan overshoots
    # from 1.5 away); 8 (zero tangent, a root at the centre) and 9
    # (non-finite tangent, polished in (t, x)) converge too
    CONVERGES = [True] + [False] * 7 + [True, True]

    @staticmethod
    def values(t, x, u):
        label, s = round(x), t - 0.1
        if label == 0:
            return math.atan(s), u - 0.2
        if label == 1:                      # no residual at the start
            raise EvalDomainError("stub residual")
        if label in (2, 3, 4):
            return s + s * s, u - 0.2
        if label in (5, 6):
            return s, u - 0.2
        if label == 7:                      # the root t = 5 is off the box
            return t - 5.0, u - 0.2
        if label == 8:
            return t - 0.6, u - 0.5
        return s, x - 9.05

    @staticmethod
    def derivatives(t, x, u):
        label, s = round(x), t - 0.1
        at_centre = t == 0.6
        if label == 0:
            return 1 / (1 + s * s), 0.0, 0.0, 0.0, 0.0, 1.0
        if label in (2, 3, 4) and at_centre:
            return 1 + 2 * s, 0.0, 0.0, 0.0, 0.0, 1.0
        if label == 2:                      # no Jacobian after one step
            raise EvalDomainError("stub Jacobian")
        if label == 3:                      # exactly singular in (t, u)
            return 1.0, 0.0, 1.0, 1.0, 0.0, 1.0
        if label == 4:                      # the step overflows
            return 5e-324, 0.0, 0.0, 0.0, 0.0, 1.0
        if label == 5:                      # uphill: Armijo runs out
            return -1.0, 0.0, 0.0, 0.0, 0.0, -1.0
        if label == 6:                      # r shrinks by 0.7 a step
            return 1 / 0.3, 0.0, 0.0, 0.0, 0.0, 1 / 0.3
        if label == 8:
            return (0.0,) * 6
        if label == 9:
            return 1.0, 0.0, 1e300, 0.0, 1.0, 1e300
        return 1.0, 0.0, 0.0, 0.0, 0.0, 1.0


STUB_BOX = Box((-2.0, 2.0), ((-1.0, 10.0),), (-1.0, 1.0))


@pytest.fixture
def stub_solution(solutions):
    """An n = 1 solution whose array forms of (F, F_u) and its Jacobian
    are StubForms', evaluated one row at a time."""
    _, _, sol = solutions("burgers_reciprocal")
    return dataclasses.replace(
        sol, F_and_Fu_rows=helpers.rows_by_row(StubForms.values, 2),
        jacobian_rows=helpers.rows_by_row(StubForms.derivatives, 6))


def non_finite_jacobian_rows(t, x, u):
    """A hand-written array form of the Jacobian on (t, x, u):
    [[e, 0, 0], [0, 1, 0]] with e = inf where x > 1, NaN where x < -1 and
    1 elsewhere, each output with no domain violation, as compile gives
    an overflow."""
    entry = np.where(x > 1.0, np.inf, np.where(x < -1.0, np.nan, 1.0))
    zero, one = np.zeros_like(t), np.ones_like(t)
    return [(v, np.False_) for v in (entry, zero, zero, zero, one, zero)]


class TestFreePairs:
    """locus._free_pairs against np.cross's rule, on hand-made Jacobian
    rows with ties, zero rows, non-finite entries and minors that
    overflow (inf - inf is NaN)."""

    @staticmethod
    def jacobian_rows(rng, count, dim):
        J = rng.choice([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0], (count, 2 * dim))
        J[rng.random(J.shape) < 0.02] = np.nan
        J[rng.random(J.shape) < 0.02] = 1e300
        J[::10] = 0.0
        return J

    def test_matches_the_cross_product_rule(self, solutions):
        table = self.jacobian_rows(np.random.default_rng(61), 400, 3)
        _, _, sol = solutions("burgers_reciprocal")
        stub = dataclasses.replace(sol, jacobian_rows=helpers.rows_by_row(
            lambda t, x, u: table[round(x)], 6))
        centres = np.array([[0.0, k, 0.0] for k in range(len(table))])
        got = locus._free_pairs(stub, centres)
        with np.errstate(all="ignore"):
            assert got.tolist() == [helpers.free_pair_by_cross(stub, c)
                                    for c in centres]
            # the cases are all there: ties, and the (t, x) fallback
            T = np.abs(np.cross(table[:, :3], table[:, 3:]))
        top = T == T.max(axis=1, keepdims=True)
        assert np.count_nonzero(top.sum(axis=1) >= 2) > 20
        assert np.count_nonzero(~np.isfinite(T).all(axis=1)) > 20

    def test_four_dimensions_take_the_largest_minor(self):
        J = self.jacobian_rows(np.random.default_rng(62), 200, 4)
        stub = types.SimpleNamespace(
            jacobian_rows=lambda *columns: [(c, np.False_) for c in J.T])
        got = locus._free_pairs(stub, np.zeros((len(J), 4)))
        pairs = [(2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1)]
        for row, pair in zip(J.reshape(-1, 2, 4), got.tolist()):
            with np.errstate(all="ignore"):
                minors = [abs(row[0, i] * row[1, j] - row[0, j] * row[1, i])
                          for i, j in pairs]
                norm = math.sqrt(sum(m * m for m in minors))
            if np.isfinite(row).all() and 0.0 < norm < math.inf:
                assert pair == list(pairs[minors.index(max(minors))]), row
            else:
                assert pair == [0, 1], row


class TestSigmaStage:
    @pytest.mark.parametrize("name, resolution", SIGMA_CASES)
    def test_matches_the_seed_by_seed_reference(self, name, resolution,
                                                sigma_problem):
        b, sol = sigma_problem(name)
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution)
        got = extract_singular_locus(sol, surface)
        want = helpers.singular_locus_by_seed(sol, surface)
        for field in ("points", "degenerate", "seed_cells"):
            assert _same_bytes(getattr(got, field), getattr(want, field)), field
        assert got.dropped == want.dropped
        mask = split_component(surface, got, sol.gamma_samples).mask
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locus, "flood", helpers.flood_by_queue_revealed)
            want_mask = split_component(surface, want,
                                        sol.gamma_samples).mask
        assert _same_bytes(mask, want_mask)
        if name == "exp_sin":
            assert got.dropped == 2
        elif name == "cube_gauss":
            assert 8 <= got.dropped <= 11
        elif (name, resolution) == ("burgers_reciprocal", 128):
            assert (len(got.seed_cells), len(got.points), got.dropped) == (
                1463, 80, 2)

    @pytest.mark.parametrize("name, resolution", SIGMA_CASES)
    def test_array_rows_match_the_scalar_rows(self, name, resolution,
                                              sigma_problem):
        # numpy's power, exp and log may round differently from libm in
        # the last bit, so the polished points may move by an ulp or so
        b, sol = sigma_problem(name)
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution)
        got = extract_singular_locus(sol, surface)
        want = helpers.singular_locus_by_scalar_rows(sol, surface)
        assert _same_bytes(got.seed_cells, want.seed_cells)
        assert got.dropped == want.dropped
        assert _same_bytes(got.degenerate, want.degenerate)
        assert got.points.shape == want.points.shape
        assert np.abs(got.points - want.points).max(initial=0.0) <= 2e-15
        masks = [split_component(surface, s, sol.gamma_samples).mask
                 for s in (got, want)]
        assert _same_bytes(*masks)

    @pytest.mark.parametrize("text", ["2*t + sqrt(u)*x", "x - t/(u - 1)"])
    def test_rows_match_the_scalar_loop(self, text):
        # + - * / and sqrt round alike on both back ends.  At u = 0 and
        # -0.0 only F_u fails, at u = 1 or -1 F fails too, and some
        # derivatives are constants (0-d on the array back end)
        F = parse(text, n=1)
        F_u, names = diff(F, "u"), var_names(1)
        points = np.random.default_rng(37).uniform(0.5, 2.0, (24, 3))
        points[:4, 2] = -1.0, 0.0, -0.0, 1.0
        for exprs in ([F, F_u], [diff(e, v) for e in (F, F_u) for v in names]):
            compiled = compile_exprs(exprs, names, arrays=True)
            (got, ok), (want, want_ok) = (
                locus._rows(compiled, points),
                helpers.evaluate_rows(compile_exprs(exprs, names), points,
                                      len(exprs)))
            assert _same_bytes(got, want) and _same_bytes(ok, want_ok)
            assert ok.any() and not ok.all()
            empty = locus._rows(compiled, points[:0])
            assert empty[0].shape == (0, want.shape[1])
            assert empty[1].shape == (0,)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_solve_rows_match_one_solve_per_row(self, dim):
        rng = np.random.default_rng(31 + dim)
        J = rng.standard_normal((12, dim, dim))
        b = rng.standard_normal((12, dim))
        J[3] = 0.0                                  # all zero
        J[5, :, 1] = 0.0                            # a zero column
        J[8, 1] = 2.0 * J[8, 0]                     # a doubled row
        want = np.full(b.shape, np.nan)
        singular = []
        for i in range(len(J)):
            try:
                want[i] = np.linalg.solve(J[i], b[i])
            except np.linalg.LinAlgError:
                singular.append(i)
        assert singular == [3, 5, 8]
        assert _same_bytes(locus._solve_rows(J, b), want)
        regular = [i for i in range(len(J)) if i not in singular]
        assert _same_bytes(locus._solve_rows(J[regular], b[regular]),
                           want[regular])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_exit_in_one_batch(self, stub_solution):
        stub, centres = stub_solution, StubForms.CENTRES
        points, ok = locus._polish(stub, centres, STUB_BOX)
        assert ok.tolist() == StubForms.CONVERGES
        want_points, want_ok = helpers.polish_seed_by_seed(stub, centres,
                                                           STUB_BOX)
        assert _same_bytes(ok, want_ok)
        assert _same_bytes(points, want_points)
        assert np.abs(points[0] - [0.1, 0.0, 0.2]).max() <= 1e-12
        assert points[8].tolist() == centres[8].tolist()
        assert np.abs(points[9] - [0.1, 9.05, 0.5]).max() <= 1e-12
        solo, solo_ok = locus._polish(stub, centres[:1], STUB_BOX)
        assert solo_ok.tolist() == [True]
        assert _same_bytes(solo[0], points[0])

    def test_degenerate_flags_match_one_svd_per_point(self, stub_solution):
        stub = stub_solution
        points = StubForms.CENTRES + [0.1, 0.0, 0.0]   # off-centre
        flags = locus._degenerate(stub, points)
        assert _same_bytes(flags, helpers.degenerate_point_by_point(stub,
                                                                     points))
        assert flags.any() and not flags.all()
        assert locus._degenerate(stub, points[:0]).shape == (0,)

    def test_rows_with_non_finite_outputs_are_not_ok(self):
        # exp(exp(10)) overflows to inf with no domain violation
        F = parse("exp(exp(u))", n=0)
        compiled = compile_exprs([F, diff(F, "u")], var_names(0), arrays=True)
        values, ok = locus._rows(compiled, np.array([[0.0, 1.0], [0.0, 10.0]]))
        assert ok.tolist() == [True, False]
        assert values[1].tolist() == [0.0, 0.0]

    def test_degenerate_flags_non_finite_jacobians(self, solutions):
        # an inf entry must not pass as full rank, nor a NaN one stop the
        # stacked SVD with LinAlgError
        points = np.array([[0.0, 0.0, 0.5], [0.0, 2.0, 0.5],
                           [0.0, -2.0, 0.5], [0.0, 0.5, 0.5]])
        _, _, sol = solutions("burgers_reciprocal")
        flags = locus._degenerate(dataclasses.replace(
            sol, jacobian_rows=non_finite_jacobian_rows), points)
        assert flags.tolist() == [False, True, True, False]

    def test_squared_norms_equal_dot(self):
        rng = np.random.default_rng(23)
        for dim in (2, 3):
            v = rng.standard_normal((20000, dim)) * np.exp(
                rng.uniform(-20.0, 20.0, (20000, 1)))
            want = np.array([np.dot(r, r) for r in v])
            assert _same_bytes(locus._squared_norms(v), want)

    def test_cell_centres_of_an_array_match_one_cell_at_a_time(self):
        axes = (np.linspace(-1.0, 2.0, 13), np.linspace(0.0, 0.7, 9),
                np.linspace(-3.0, 3.1, 17))
        rng = np.random.default_rng(29)
        cells = rng.integers(0, [12, 8, 16], (100, 3))
        centres = cell_center(axes, cells)
        assert _same_bytes(centres, np.array([cell_center(axes, c)
                                              for c in cells.tolist()]))
        assert _same_bytes(centres[0], np.array(
            [0.5 * (ax[i] + ax[i + 1]) for ax, i in zip(axes, cells[0])]))
        assert cell_center(axes, cells[:0]).shape == (0, 3)

    def test_no_crossing_cells_no_seeds(self):
        # F = u - 10 has no zero in the surface's box
        problem, data = make_problem(
            1, "1", ["u"], "0", "10",
            Box((0.0, 1.0), ((-1.0, 1.0),), (9.0, 11.0)))
        _, sol = implicit_solution_for_problem(problem, data)
        surface = extract_surface(sol.F_and_Fu_rows,
                                  Box((0.0, 1.0), ((0.0, 1.0),), (-1.0, 1.0)),
                                  16)
        sigma = extract_singular_locus(sol, surface)
        assert sigma.seed_cells.shape == (0, 3)
        assert sigma.points.shape == (0, 3) and sigma.dropped == 0


# vertex values that sit on the sign rule's edges: signed zeros, NaN (marked
# valid or not), the tiniest subnormals
EDGE_VALUES = np.array([0.0, -0.0, math.nan, 5e-324, -5e-324, 1.0, -1.0,
                        math.inf, -math.inf])


class TestCellReductions:
    @given(shape=st.lists(st.integers(2, 5), min_size=2, max_size=3),
           seed=st.integers(0, 2**32 - 1),
           sign=st.sampled_from([None, 1.0, -1.0]),
           invalid=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_classification_matches_the_corner_loop(self, shape, seed, sign,
                                                    invalid):
        rng = np.random.default_rng(seed)
        values = np.where(rng.random(shape) < 0.5,
                          rng.choice(EDGE_VALUES, shape),
                          rng.standard_normal(shape))
        if sign is not None:                # one-sign grid, zeros >= 0
            values = np.where(values == 0.0, sign, sign * np.abs(values))
        valid = rng.random(shape) >= invalid
        got = locus._classify_cells(values, valid, len(shape))
        want = helpers.classify_cells_by_corners(values, valid, len(shape))
        assert _same_bytes(got[0], want[0]) and _same_bytes(got[1], want[1])
        if sign is not None:
            assert not got[0].any()

    @given(shape=st.lists(st.integers(2, 5), min_size=2, max_size=4),
           seed=st.integers(0, 2**32 - 1), lead=st.integers(0, 1),
           invalid=st.sampled_from([0.0, 0.2]))
    @settings(max_examples=200, deadline=None)
    def test_broadcast_axes_match_the_corner_loop(self, shape, seed, lead,
                                                  invalid):
        # evaluate_grid returns an output that does not depend on a variable
        # as a view of stride 0 along its axis; the validity may still
        # change there, or be broadcast along other axes
        rng = np.random.default_rng(seed)
        dim = len(shape) - lead
        kept, kept_ok = (rng.random(len(shape)) < 0.5 for _ in range(2))
        values = rng.standard_normal(np.where(kept, shape, 1))
        valid = rng.random(np.where(kept_ok, shape, 1)) >= invalid
        values, valid = (np.broadcast_to(a, shape) for a in (values, valid))
        got = locus._classify_cells(values, valid, dim)
        for k, ref in enumerate(zip(*(
                helpers.classify_cells_by_corners(v, ok, dim)
                for v, ok in zip(values.reshape((-1,) + values.shape[lead:]),
                                 valid.reshape((-1,) + valid.shape[lead:]))))):
            want = np.reshape(ref, got[k].shape)
            assert _same_bytes(np.ascontiguousarray(got[k]), want)

    def test_classification_of_the_smallest_grids(self):
        for dim in (2, 3):
            for corners in ([0.0] * 2 ** dim, [-0.0] * 2 ** dim,
                            [0.0, -1.0] + [1.0] * (2 ** dim - 2),
                            [-0.0, -1.0] + [-1.0] * (2 ** dim - 2),
                            [math.nan, -1.0] + [1.0] * (2 ** dim - 2)):
                values = np.reshape(corners, (2,) * dim)
                for valid in (np.ones((2,) * dim, dtype=bool),
                              np.arange(2 ** dim).reshape((2,) * dim) != 3):
                    got = locus._classify_cells(values, valid, dim)
                    want = helpers.classify_cells_by_corners(values, valid,
                                                             dim)
                    assert _same_bytes(got[0], want[0])
                    assert _same_bytes(got[1], want[1])

    @given(shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           seed=st.integers(0, 2**32 - 1),
           density=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_cell_indices_equal_argwhere(self, shape, seed, density):
        mask = np.random.default_rng(seed).random(shape) < density
        got = cell_indices(mask)
        assert _same_bytes(got, np.argwhere(mask))
        assert got.dtype == np.intp and got.shape == (mask.sum(), len(shape))

    def test_cell_indices_of_an_empty_mask(self):
        for shape in ((4,), (3, 5), (2, 3, 4)):
            got = cell_indices(np.zeros(shape, dtype=bool))
            assert got.shape == (0, len(shape)) and got.dtype == np.intp

    @pytest.mark.parametrize("dim", [2, 3])
    def test_deduplication_at_the_diagonal(self, dim):
        diag = 0.1 * math.sqrt(dim)
        inside, outside = np.nextafter(diag, 0.0), np.nextafter(diag, 1.0)
        points = np.zeros((4, dim))
        points[1:, 0] = inside, diag, outside
        # |p0 - p| is |p[0]| exactly, so the three sit one ulp apart
        assert np.linalg.norm(points[0] - points[1:], axis=1).tolist() == [
            inside, diag, outside]
        got = locus._deduplicate(points, diag)
        assert _same_bytes(got, helpers.deduplicate_point_by_point(points,
                                                                   diag))
        assert got.tolist() == [points[0].tolist(), points[3].tolist()]
        # a dropped point drops nothing: p2 would drop p3, but p1 drops p2
        chain = np.zeros((3, dim))
        chain[1:, 0] = 0.75 * diag, 1.5 * diag
        assert _same_bytes(locus._deduplicate(chain, diag), chain[[0, 2]])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("offset", [0.0, -0.05, 1e6])
    def test_deduplication_bounds(self, dim, offset):
        # first coordinates diag, diag +- 1 ulp and 2 diag after a start
        # (exactly so at offset 0, rounded at 1e6) and exact duplicates
        diag = 0.1
        gaps = [np.nextafter(diag, 0.0), diag, np.nextafter(diag, 1.0),
                2.0 * diag]
        rows = [[offset + dx, 10.0 * k + dy]
                for k, gap in enumerate(gaps)
                for dx in (0.0, gap, gap) for dy in (0.0, 1e-9, 0.5 * diag)]
        points = np.zeros((len(rows), dim))
        points[:, :2] = rows
        points = np.array(sorted(points.tolist()))
        got = locus._deduplicate(points, diag)
        assert _same_bytes(got, helpers.deduplicate_point_by_point(points,
                                                                   diag))
        assert len(np.unique(got, axis=0)) == len(got)
        assert (got[:, 0] > offset).any() and len(got) < len(points) - 12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_deduplication_bound_that_rounds_short(self, dim):
        # -0.05 + diag rounds down: the next point lies past the searched
        # bound but exactly diag away, so it is dropped
        diag = 0.1
        points = np.zeros((2, dim))
        points[:, 0] = -0.05, np.nextafter(-0.05 + diag, 1.0)
        assert points[1, 0] > points[0, 0] + diag
        assert np.linalg.norm(points[1] - points[0]) == diag
        got = locus._deduplicate(points, diag)
        assert _same_bytes(got, points[:1])
        assert _same_bytes(got, helpers.deduplicate_point_by_point(points,
                                                                   diag))

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           count=st.integers(0, 60))
    @settings(max_examples=200, deadline=None)
    def test_deduplication_matches_the_point_loop(self, seed, dim, count):
        rng = np.random.default_rng(seed)
        diag = 0.1
        # points on a lattice of diag / 2, some an ulp off, so that many
        # distances sit on the diagonal or right next to it
        points = 0.05 * rng.integers(0, 6, (count, dim))
        nudge = rng.random((count, dim)) < 0.2
        points[nudge] = np.nextafter(points[nudge], rng.choice(
            [-1.0, 1.0], nudge.sum()))
        points = np.array(sorted(points.tolist())).reshape(-1, dim)
        assert _same_bytes(locus._deduplicate(points, diag),
                           helpers.deduplicate_point_by_point(points, diag))

    @pytest.mark.parametrize("name, resolution", [
        (name, r) for name in ("circular", "burgers_ramp", "burgers_reciprocal",
                               "sqrt", "exp_sin") for r in (24, 48)]
        + [("ode_quadratic", 64), ("n0_fold", 64)])
    def test_seeds_match_the_unique_corner_rule(self, name, resolution,
                                                sigma_problem):
        b, sol = sigma_problem(name)
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution)
        got = surface.seed_cells
        assert _same_bytes(got, helpers.seed_cells_by_unique(
            diff(sol.F, "u"), surface))
        assert len(got) or name == "ode_quadratic"


class TestPairForm:
    """extract_surface evaluates F and F_u by one evaluate_grid call of the
    solution's (F, F_u) form: the surface is the one of F and F_u
    evaluated as two trees, byte for byte, on tiles and on the whole
    grid."""

    @pytest.mark.parametrize("a, h", helpers.GENERATED_LAWS)
    def test_generated_laws_match_the_two_trees(self, a, h):
        problem, _, sol = helpers.generated_law(a, h)
        for resolution, gamma in ((17, sol.gamma_samples),
                                  (64, sol.gamma_samples), (48, None)):
            got = extract_surface(sol.F_and_Fu_rows, problem.box, resolution,
                                  gamma)
            want = helpers.surface_by_trees(sol.F, problem.box, resolution,
                                            gamma)
            for field in ("state", "seed_cells", "reached_flat"):
                g, w = getattr(got, field), getattr(want, field)
                assert (g is None and w is None) or _same_bytes(g, w), (
                    resolution, field)
            assert _same_bytes(helpers.vertex_values(got),
                               helpers.vertex_values(want)), resolution


class TestTiles:
    """extract_surface with the initial samples evaluates only the tiles
    that the flood from them reaches.  On each of those tiles it finds
    what the whole grid finds, bit for bit: numpy's SIMD and strided loops
    may round an element differently, and this would show it."""

    @pytest.mark.parametrize("name, resolution", [
        (name, r) for name in ("circular", "burgers_ramp", "burgers_reciprocal")
        for r in (128, 100)] + [("ode_quadratic", 1024), ("ode_quadratic", 300)])
    def test_tiles_match_the_whole_grid(self, name, resolution, solutions):
        b, _, sol = solutions(name)
        evaluate_tiles, calls = locus._evaluate_tiles, []

        def recording(*args):
            calls.append((*args[2:], evaluate_tiles(*args)))
            return calls[-1][-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locus, "_evaluate_tiles", recording)
            tiled = extract_surface(sol.F_and_Fu_rows, b.problem.box,
                                    resolution, sol.gamma_samples)
        full = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution)
        grids = np.meshgrid(*full.axes, indexing="ij", sparse=True)
        ((values, valid),) = evaluate_grid(sol.F, dict(zip(var_names(sol.n),
                                                           grids)))
        seeds = np.zeros_like(full.crossing)
        seeds[tuple(helpers.seed_cells_by_unique(sol.F_u, full).T)] = True
        excluded = np.zeros_like(full.crossing)
        excluded[tuple(full.excluded_cells.T)] = True
        size = min(locus.TILE[full.dim], resolution)
        covered = np.zeros_like(full.crossing)
        origins = np.vstack([origins for origins, *_ in calls])
        for origins, tile, (v, ok, crossing, all_ok, seed) in calls:
            assert tile == size
            for k, first in enumerate(origins.tolist()):
                vertices = tuple(slice(i, i + size + 1) for i in first)
                cells = tuple(slice(i, i + size) for i in first)
                assert _same_bytes(v[k], values[vertices])
                assert _same_bytes(ok[k], valid[vertices])
                assert _same_bytes(crossing[k], full.crossing[cells])
                assert _same_bytes(~all_ok[k], excluded[cells])
                assert _same_bytes(seed[k], seeds[cells])
                covered[cells] = True
        assert _same_bytes(tiled.crossing, full.crossing & covered)
        assert _same_bytes(tiled.seed_cells, cell_indices(seeds & covered))
        assert _same_bytes(tiled.excluded_cells,
                           cell_indices(excluded & covered))
        assert not (tiled.reached & ~covered).any()
        assert covered.mean() < 0.5
        # the tiles are distinct, and a resolution TILE does not divide
        # clamps the last tile of an axis to end at the grid's edge
        assert len(np.unique(origins, axis=0)) == len(origins)
        assert (origins % size != 0).any() == (resolution % size != 0)


class TestSweep:
    """extract_surface without initial samples evaluates every tile, one
    slab along the first axis at a time: its states and seed cells are the
    whole grid's, evaluated as one array and classified by
    _classify_cells, byte for byte."""

    @pytest.mark.parametrize("name, resolution", [
        (name, r) for name in helpers.EXAMPLES for r in (64, 100, 128)]
        + [("ode_quadratic", 256), ("ode_quadratic", 1024)])
    def test_slabs_match_the_whole_grid(self, name, resolution, solutions):
        b, _, sol = solutions(name)
        got = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution)
        state, seed_cells = helpers.surface_by_whole_grid(
            sol.F_and_Fu_rows, b.problem.box, resolution)
        assert _same_bytes(got.state, state)
        assert _same_bytes(got.seed_cells, seed_cells)
        assert got.reached_flat is None


class TestTiledDomain:
    """`charmax domain`'s grid pipeline on the tiles that the initial
    set's flood reaches against the same pipeline on the whole grid: the
    same errors, or the same mask, summary numbers and window points, byte
    for byte, and fold points within 1e-12 (seed cells left out of the
    tiles may change which seed of a sigma point is polished)."""

    @pytest.mark.parametrize("a, h", helpers.GENERATED_LAWS)
    def test_generated_laws(self, a, h):
        problem, _, sol = helpers.generated_law(a, h)
        tiled = helpers.domain_on_tiles(problem, sol, 48, True)
        helpers.assert_same_domain(
            tiled, helpers.domain_on_tiles(problem, sol, 48, False))
        assert helpers.window_off_the_faces(sol, problem.box, tiled) == []

    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    @pytest.mark.parametrize("resolution", [16, 17, 100])
    def test_bundled_problems(self, name, resolution, solutions):
        b, _, sol = solutions(name)
        helpers.assert_same_domain(
            helpers.domain_on_tiles(b.problem, sol, resolution, True),
            helpers.domain_on_tiles(b.problem, sol, resolution, False))

    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    def test_bundled_problems_flood_once(self, name, solutions):
        # no sigma point of a bundled problem lies in the
        # seed-cut flood, so that flood is the component
        b, _, sol = solutions(name)
        resolution = 1024 if sol.n == 0 else 128
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, resolution,
                                  sol.gamma_samples)
        sigma = extract_singular_locus(sol, surface)

        def second_flood(*args, **kwargs):
            raise AssertionError("split_component flooded again")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locus, "flood", second_flood)
            component = split_component(surface, sigma, sol.gamma_samples)
        assert component.cells_flat is surface.reached_flat

    def test_a_sigma_cut_in_the_flood_floods_again(self, solutions):
        b, _, sol = solutions("circular")
        gamma = sol.gamma_samples
        tiled, full = (extract_surface(sol.F_and_Fu_rows, b.problem.box, 32,
                                       samples)
                       for samples in (gamma, None))
        # stub sigma points at the centres of the reached cells of one
        # t-row that holds no initial-set cell cut the flood in two
        cells = cell_indices(tiled.reached)
        row = cells[cells[:, 0] == cell_of(tiled.axes, gamma[0])[0] + 8]
        stub = cell_center(tiled.axes, row)
        floods = []

        def counting(*args, **kwargs):
            floods.append(args)
            return flood(*args, **kwargs)

        masks = []
        for surface in (tiled, full):
            sigma = extract_singular_locus(sol, surface)
            sigma = dataclasses.replace(
                sigma, points=np.vstack([sigma.points, stub]),
                degenerate=np.append(sigma.degenerate, [False] * len(stub)))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(locus, "flood", counting)
                masks.append(split_component(surface, sigma, gamma).mask)
        assert len(floods) == 2
        assert _same_bytes(*masks)
        assert len(row) and (tiled.reached & ~masks[0]).sum() > len(row)


class TestCellState:
    """The flood's state codes are the one cell-shaped array from the
    surface through the projection: the component and the singular cells
    are sorted flat indices, and the masks are computed only for readers
    that ask for them."""

    def test_component_and_projection_allocate_no_cell_mask(self, solutions):
        b, _, sol = solutions("circular")
        surface = extract_surface(sol.F_and_Fu_rows, b.problem.box, 128,
                                  sol.gamma_samples)
        sigma = extract_singular_locus(sol, surface)
        tracemalloc.start()
        try:
            component = split_component(surface, sigma, sol.gamma_samples)
            maximal_domain(sol, component, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 ** 3            # one bool mask of the cells
        shape = surface.state.shape
        for obj, want in ((surface, ["state"]), (component, [])):
            held = [f.name for f in dataclasses.fields(obj)
                    if np.shape(getattr(obj, f.name)) == shape]
            assert held == want
        assert _same_bytes(component.mask, surface.reached)
        assert _same_bytes(component.cells, cell_indices(surface.reached))

    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    def test_domain_scans_no_states(self, name, tmp_path):
        # the states the flood returns, and every part of them, log each
        # numpy operation on them with its size.  A `domain` run only looks
        # up a few cells in them: the tiles list their own seed cells, and
        # the component and the projection read flat index lists
        seen, full = [], []

        class Logged(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                seen.extend((ufunc.__name__, x.size) for x in inputs
                            if isinstance(x, Logged))
                inputs = [np.asarray(x) for x in inputs]
                if "out" in kwargs:
                    kwargs["out"] = tuple(map(np.asarray, kwargs["out"]))
                return getattr(ufunc, method)(*inputs, **kwargs)

            def __array_function__(self, func, types, args, kwargs):
                seen.append((func.__name__, self.size))
                return super().__array_function__(func, types, args, kwargs)

        def logging_flood(*args, **kwargs):
            state, reached = flood(*args, **kwargs)
            full.append(state.size)
            return state.view(Logged), reached

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(locus, "flood", logging_flood)
            assert cli.main(["domain", "--problem",
                             str(problem_path(name)),
                             "--out", str(tmp_path)]) == 0
        assert len(full) == 1 and seen
        assert max(size for _, size in seen) < full[0] // 1000

import json
import math

import numpy as np
import pytest

import helpers
from charmax import locus
from charmax.domain import MaximalDomain
from charmax.expr import EvalDomainError, diff, evaluate, parse, var_names
from charmax.integrals import implicit_solution_for_problem
from charmax.locus import (_TETS3, ResolutionError, cell_center, cell_of,
                           cell_pieces, extract_singular_locus,
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
        remaining &= ~flood(remaining, [np.argwhere(remaining)[0]])
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
        surf = extract_surface(F, box, 16)
        # u = 0 is the vertex plane between cell rows 7 and 8; with the
        # zero-counts-as-positive convention exactly row 7 straddles it
        assert {c[1] for c in surf.cells} == {7}
        assert len(surf.cells) == 16

    def test_reciprocal_two_branches_and_invalid_row(self):
        F = parse("t + 1/u - 1", n=0)
        box = Box((-2.0, 2.0), (), (-3.0, 3.0))
        surf = extract_surface(F, box, 64)  # u = 0 lands on a vertex row
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
        # every crossing cell has a patch with at least one triangle
        pieces, used = cell_pieces(surf)
        assert pieces.shape == (len(surf.cells), 12, 3, 3)
        assert used.any(axis=1).all()

    def test_patch_linear_interp_bound(self, pipelines):
        _, sol, surf, _, _, _ = pipelines("circular", 48)
        names = var_names(1)
        grads = [diff(sol.F, v) for v in names]
        diag = surf.cell_diagonal
        rng = np.random.default_rng(11)
        idx = rng.choice(len(surf.cells), size=200, replace=False)
        pieces, used = cell_pieces(surf)
        for i in idx:
            vertices = pieces[i][used[i]].reshape(-1, 3)
            corners = cell_center(surf.axes, surf.cells[i])
            gmax = 0.0
            for p in list(vertices) + [corners]:
                b = dict(zip(names, (float(v) for v in p)))
                gmax = max(gmax, math.hypot(*(evaluate(g, b) for g in grads)))
            for p in vertices:
                b = dict(zip(names, (float(v) for v in p)))
                assert abs(evaluate(sol.F, b)) <= 0.5 * diag * gmax + 1e-12

    def test_resolution_minimum(self):
        with pytest.raises(ValueError, match="16"):
            extract_surface(parse("u", n=0), Box((-1, 1), (), (-1, 1)), 8)

    def test_crossing_cells_have_both_signs(self, pipelines):
        _, _, surf, _, _, _ = pipelines("burgers_ramp", 32)
        vals = surf.values
        for cell in surf.cells[:: max(1, len(surf.cells) // 100)]:
            corners = vals[cell[0]:cell[0] + 2, cell[1]:cell[1] + 2,
                           cell[2]:cell[2] + 2]
            assert corners.min() < 0 <= corners.max()


def assert_pieces_match_reference(surface):
    pieces, used = cell_pieces(surface)
    ref_pieces, ref_used, ref_vertices = helpers.cell_pieces_by_cells(surface)
    assert pieces.dtype == ref_pieces.dtype
    assert pieces.shape == ref_pieces.shape
    assert pieces.tobytes() == ref_pieces.tobytes()
    assert np.array_equal(used, ref_used)
    vertices = patch_vertices(surface)
    assert vertices.shape == ref_vertices.shape
    assert vertices.tobytes() == ref_vertices.tobytes()
    return pieces, used


class TestCellPieces:
    """The case-table pieces against the cell-by-cell reference, byte for
    byte."""

    @pytest.mark.parametrize("name,resolution", [
        ("ode_quadratic", 64), ("ode_quadratic", 1024),
        ("circular", 32), ("circular", 64),
        ("burgers_ramp", 32), ("burgers_ramp", 64),
        ("burgers_reciprocal", 32), ("burgers_reciprocal", 64)])
    def test_bundled_problems(self, name, resolution, solutions):
        b, _, sol = solutions(name)
        surface = extract_surface(sol.F, b.problem.box, resolution)
        _, used = assert_pieces_match_reference(surface)
        assert used.any()

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
            assert_pieces_match_reference(surface)

    @pytest.mark.parametrize("ring,joined", [
        ((1.0, -1.0, 2.0, -1.0), True),     # centre > 0, 00 positive
        ((1.0, -2.0, 1.0, -1.0), False),    # centre < 0, 00 positive
        ((1.0, -1.0, 1.0, -1.0), True),     # centre exactly 0
        ((-1.0, 2.0, -1.0, 1.0), False),    # centre > 0, 00 negative
        ((-2.0, 1.0, -1.0, 1.0), True),     # centre < 0, 00 negative
        ((-1.0, 1.0, -1.0, 1.0), False),    # centre exactly 0, 00 negative
        # centre sum -5e-324, which divides by 4 to -0.0
        ((5e-324, -1e-323, 5e-324, -5e-324), True),
    ])
    def test_saddle_squares(self, ring, joined):
        """Ring values 00, 10, 11, 01; ``joined`` when corners 00 and 11
        connect through the centre, so each segment cuts off 10 or 01."""
        v00, v10, v11, v01 = ring
        surface = helpers.grid_surface([[v00, v01], [v10, v11]])
        pieces, used = assert_pieces_match_reference(surface)
        assert used.tolist() == [[True, True]]
        # name the cut ring edge of each endpoint on the square [-1, 1]^2
        def side(point):
            t, u = point
            return ("bottom" if u == -1.0 else "top" if u == 1.0
                    else "left" if t == -1.0 else "right")

        cuts = {frozenset(map(side, seg.tolist())) for seg in pieces[0]}
        if joined:
            assert cuts == {frozenset({"bottom", "right"}),
                            frozenset({"top", "left"})}
        else:
            assert cuts == {frozenset({"left", "bottom"}),
                            frozenset({"right", "top"})}

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
            assert_pieces_match_reference(surface)
            for tet in _TETS3:
                seen.add(tuple(bool(signs[c] > 0) for c in tet))
        assert len(seen) == 16

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_crossing_cells(self, n):
        F = parse("u - 5", n=n)
        box = Box((-1.0, 1.0), ((-1.0, 1.0),) * n, (-1.0, 1.0))
        surface = extract_surface(F, box, 16)
        assert len(surface.cells) == 0
        pieces, used = assert_pieces_match_reference(surface)
        assert pieces.shape == (0, 2 if n == 0 else 12, n + 2, n + 2)
        assert patch_vertices(surface).shape == (0, n + 2)


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
        # the traced polyline spans the u-range of the box
        assert len(sigma.polylines) == 1
        us = sigma.polylines[0][:, 2]
        assert us.max() - us.min() > 4.0

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

    # the sigma system compiles (F, F_u), then its derivatives
    @pytest.mark.parametrize("faulty", [0, 1])
    def test_evaluator_faults_are_not_dropped_seeds(self, faulty, solutions,
                                                    monkeypatch):
        # a fault of the evaluator itself is not a domain violation at a
        # seed: it must reach the caller
        b, _, sol = solutions("burgers_reciprocal")
        surface = extract_surface(sol.F, b.problem.box, 32)
        compile_exprs = locus.compile_exprs
        calls = []

        def compile_with_fault(exprs, names):
            calls.append(exprs)
            if len(calls) - 1 != faulty:
                return compile_exprs(exprs, names)

            def evaluator(*values):
                raise TypeError("faulty evaluator")
            return evaluator

        monkeypatch.setattr(locus, "compile_exprs", compile_with_fault)
        with pytest.raises(TypeError, match="faulty evaluator"):
            extract_singular_locus(sol.F, surface)

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
        F = parse("u - 2", n=1)
        surf = extract_surface(F, problem.box, 16)
        sigma = extract_singular_locus(F, surf)
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


def queue_bfs_path(mask, src, dst):
    """Reference: FIFO breadth-first search with per-cell neighbour order
    axis by axis, lower side first; the cells from dst back to src."""
    prev = {src: None}
    queue = [src]
    head = 0
    while head < len(queue):
        cell = queue[head]
        head += 1
        if cell == dst:
            break
        for nb in facet_neighbors(cell, mask.shape):
            if nb not in prev and mask[nb]:
                prev[nb] = cell
                queue.append(nb)
    if dst not in prev:
        return None
    path = [dst]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path


def flood_path(mask, src, dst):
    parent = flood(mask, [src], parents=True)
    if dst not in parent:
        return None
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


class TestFlood:
    def test_far_end_not_reached_from_index_zero(self):
        line = np.array([True, False, False, True])
        assert flood(line, [(0,)]).tolist() == [True, False, False, False]
        plane = np.zeros((4, 5), dtype=bool)
        plane[0, 0] = plane[3, 0] = True   # ends of axis 0
        plane[1, 4] = plane[2, 0] = True   # adjacent in flat (row-major) order
        assert np.argwhere(flood(plane, [(0, 0)])).tolist() == [[0, 0]]
        assert np.argwhere(flood(plane, [(1, 4)])).tolist() == [[1, 4]]
        cube = np.zeros((3, 3, 3), dtype=bool)
        cube[0, 1, 1] = cube[2, 1, 1] = True
        cube[1, 1, 2] = cube[1, 2, 0] = True
        assert np.argwhere(flood(cube, [(0, 1, 1)])).tolist() == [[0, 1, 1]]
        assert np.argwhere(flood(cube, [(1, 1, 2)])).tolist() == [[1, 1, 2]]

    def test_disconnected_seeds(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, :2] = mask[4, 3:] = mask[2, 2] = True
        expected = mask.copy()
        expected[2, 2] = False
        assert np.array_equal(flood(mask, [(0, 1), (4, 4)]), expected)
        assert not flood(mask, [(1, 1)]).any()  # seed outside the mask

    @pytest.mark.parametrize("shape", [(12, 15), (6, 7, 5)])
    def test_parents_give_the_queue_bfs_path(self, shape):
        rng = np.random.default_rng(3)
        compared = 0
        for _ in range(20):
            mask = rng.random(shape) < 0.65
            cells = [tuple(int(i) for i in c) for c in np.argwhere(mask)]
            src, dst = (cells[i] for i in rng.choice(len(cells), 2))
            want = queue_bfs_path(mask, src, dst)
            assert flood_path(mask, src, dst) == want
            compared += want is not None
        assert compared >= 10


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

    def test_off_grid_without_clamp(self):
        # cell_of clamps; the tests' mask lookup puts off-grid points,
        # the last vertex included, in no cell
        axes = (np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 5))
        everywhere = MaximalDomain(4, axes, np.ones((4, 4), bool), [], [])
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
            extract_surface(parse("u - x1 - x2", n=2), problem.box, 16)


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


class StubSigmaSystem(locus._SigmaSystem):
    """Hand-written (F, F_u) and Jacobian on (t, x, u): the seed's label
    round(x) picks the behaviour.  Where the Jacobian has no x column the
    tangent is along x, so x stays frozen at the label."""

    n = 1
    CENTRES = np.array([[1.6, 0.0, 0.5],
                        *([0.6, k, 0.5] for k in range(1, 10))])
    # label 0 converges through Armijo halving (Newton on atan overshoots
    # from 1.5 away); 8 (zero tangent, a root at the centre) and 9
    # (non-finite tangent, polished in (t, x)) converge too
    CONVERGES = [True] + [False] * 7 + [True, True]

    def __init__(self):
        pass

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


class TestSigmaStage:
    @pytest.mark.parametrize("name, resolution", SIGMA_CASES)
    def test_matches_the_seed_by_seed_reference(self, name, resolution,
                                                sigma_problem):
        b, sol = sigma_problem(name)
        surface = extract_surface(sol.F, b.problem.box, resolution)
        got = extract_singular_locus(sol.F, surface)
        want = helpers.singular_locus_by_seed(sol.F, surface)
        for field in ("points", "degenerate", "seed_cells"):
            assert _same_bytes(getattr(got, field), getattr(want, field)), field
        assert len(got.polylines) == len(want.polylines)
        assert all(map(_same_bytes, got.polylines, want.polylines))
        assert got.dropped == want.dropped
        if name == "exp_sin":
            assert got.dropped == 2
        elif name == "cube_gauss":
            assert 8 <= got.dropped <= 11
        elif (name, resolution) == ("burgers_reciprocal", 128):
            assert (len(got.seed_cells), len(got.points), got.dropped) == (
                1463, 80, 2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_every_exit_in_one_batch(self):
        stub, centres = StubSigmaSystem(), StubSigmaSystem.CENTRES
        points, ok = locus._polish(stub, centres, STUB_BOX)
        assert ok.tolist() == StubSigmaSystem.CONVERGES
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

    def test_degenerate_flags_match_one_svd_per_point(self):
        stub = StubSigmaSystem()
        points = StubSigmaSystem.CENTRES + [0.1, 0.0, 0.0]   # off-centre
        flags = locus._degenerate(stub, points)
        assert _same_bytes(flags, helpers.degenerate_point_by_point(stub,
                                                                     points))
        assert flags.any() and not flags.all()
        assert locus._degenerate(stub, points[:0]).shape == (0,)

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
        F = parse("u - 10", n=1)
        surface = extract_surface(F, Box((0.0, 1.0), ((0.0, 1.0),),
                                         (-1.0, 1.0)), 16)
        sigma = extract_singular_locus(F, surface)
        assert sigma.seed_cells.shape == (0, 3)
        assert sigma.points.shape == (0, 3) and sigma.dropped == 0

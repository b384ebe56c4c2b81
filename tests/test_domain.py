import dataclasses
import json
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from test_cli import N0_FOLD_DATA, SQRT_DATA
from charmax import domain, integrals, problem_path
from charmax.cli import main
from charmax.domain import (CORRECTOR_MAXIT, MAX_MARCH_STEPS, SOLVE_TOL,
                            BoundaryPolyline, MaximalDomain,
                            PathLeftWindowError, ProjectionError,
                            _staircase, contains, maximal_domain)
from charmax.expr import diff, evaluate, parse, var_names
from charmax.expr import compile as compile_exprs
from charmax.integrals import _newton_u, implicit_solution_for_problem
from charmax.locus import (SurfaceComponent, cell_center, cell_indices,
                           extract_singular_locus, extract_surface, flood,
                           split_component)
from charmax.problem import Box, load_problem_bundle, make_problem


# u' = 1/(2u), u(0) = 1: F = u^2 - t - 1 folds at (t, u) = (-1, 0); the
# problem of N0_FOLD_DATA, as (rho, f, problem, data)
N0_FOLD_PROBLEM = ("u^2 - t", "y1 - 1", *make_problem(
    0, "1", [], "1/(2*u)", "1", Box((-1.5, 1.0), (), (-0.7, 1.5))))


def n0_fold_domain(resolution):
    """(sigma, domain) of N0_FOLD_PROBLEM on the whole grid."""
    rho, f, problem, data = N0_FOLD_PROBLEM
    _, sol = implicit_solution_for_problem(
        problem, data, (parse(rho, n=0),),
        parse(f, n=0, allowed_variables=["y1"]))
    surface = extract_surface(sol.F, problem.box, resolution)
    sigma = extract_singular_locus(sol, surface)
    return sigma, maximal_domain(
        sol, split_component(surface, sigma, sol.gamma_samples), sigma)


class TestMaximalDomain:
    def test_ode_mask_is_halfline_up_to_window(self, pipelines):
        b, _, surf, _, comp, dom = pipelines("ode_quadratic", 512)
        dt = dom.axes[0][1] - dom.axes[0][0]
        masked_t = dom.axes[0][:-1][dom.mask]
        # window-limited extent: the branch leaves u <= 10 at t = 1 - 1/10
        window_limit = 1.0 - 1.0 / 10.0
        assert abs((masked_t.max() + dt) - window_limit) <= 2 * dt
        # contiguous from the low end of the box
        assert masked_t.min() == dom.axes[0][0]
        assert np.all(np.diff(np.nonzero(dom.mask)[0]) == 1)

    def test_circular_mask_matches_closed_form(self, pipelines):
        b, _, surf, _, comp, dom = pipelines("circular", 48)
        diag = math.hypot(*(ax[1] - ax[0] for ax in dom.axes))
        wrong = 0
        total = 0
        for it in range(dom.mask.shape[0]):
            for ix in range(dom.mask.shape[1]):
                t = 0.5 * (dom.axes[0][it] + dom.axes[0][it + 1])
                x = 0.5 * (dom.axes[1][ix] + dom.axes[1][ix + 1])
                g = 1.0 - t * t - x ** 3
                grad = math.hypot(2 * t, 3 * x * x)
                if abs(g) <= 1.5 * diag * max(grad, 1e-9):
                    continue  # boundary band at this resolution
                total += 1
                if dom.mask[it, ix] != (g > 0):
                    wrong += 1
        assert total > 500
        assert wrong == 0

    def test_ramp_mask_pinches_at_half(self, pipelines):
        b, _, surf, _, comp, dom = pipelines("burgers_ramp", 48)
        dt = dom.axes[0][1] - dom.axes[0][0]
        top_edges = dom.axes[0][1:][dom.mask.any(axis=1)]
        assert abs(top_edges.max() - 0.5) <= dt
        # nothing beyond the singular time
        assert top_edges.max() <= 0.5 + dt

    def test_gamma_base_cells_masked(self, pipelines):
        _, _, _, _, comp, dom = pipelines("circular", 48)
        for base in dict.fromkeys(c[:-1] for c in comp.gamma_cells):
            assert dom.mask[base]

    @pytest.mark.parametrize("name,resolution", [
        ("ode_quadratic", 512), ("ode_quadratic", 1024),
        ("circular", 32), ("circular", 48),
        ("burgers_ramp", 32), ("burgers_ramp", 48),
        ("burgers_reciprocal", 32), ("burgers_reciprocal", 48)])
    def test_mask_is_reached_from_the_initial_set(self, name, resolution,
                                                  pipelines):
        """The projection of a facet-connected component is facet-connected:
        every masked base cell is reached from the initial-set base cells."""
        comp, dom = pipelines(name, resolution)[-2:]
        base_cells = list(dict.fromkeys(c[:-1] for c in comp.gamma_cells))
        assert np.array_equal(flood(dom.mask, base_cells), dom.mask)

    def test_two_branch_projection_rejected(self, pipelines):
        _, _, surf, _, comp, _ = pipelines("circular", 48)
        top = surf.crossing.shape[-1] - 1
        # a u-gap over one base cell; then runs at the column's first and
        # last u cell
        for low, high in [(4, 8), (0, top)]:
            mask = np.zeros_like(surf.crossing)
            mask[3, 3, [low, high]] = True
            fake = SurfaceComponent(surf, np.flatnonzero(mask),
                                    [(3, 3, low)], np.zeros(0, dtype=int))
            with pytest.raises(ProjectionError, match=r"two u-branches "
                               r"onto base cell \(3, 3\)"):
                helpers.hand_domain(fake)

    def test_boundary_has_fold_and_window_parts(self, pipelines):
        _, _, _, _, _, dom = pipelines("circular", 48)
        kinds = {b.kind for b in dom.boundary}
        assert "fold" in kinds and "window" in kinds
        fold = [b for b in dom.boundary if b.kind == "fold"]
        for line in fold:
            resid = 1.0 - line.points[:, 0] ** 2 - line.points[:, 1] ** 3
            assert np.abs(resid).max() <= 1e-8

    @pytest.mark.parametrize("name,resolution", [
        ("ode_quadratic", 512), ("circular", 48), ("burgers_ramp", 48),
        ("burgers_reciprocal", 48), ("n0_fold", 1024)])
    def test_boundary_lies_on_the_fold_and_the_box_faces(self, name,
                                                         resolution,
                                                         pipelines):
        # window points on a t- or x-face, or where the closed-form u is
        # on a u-face; fold points on the closed-form fold
        if name == "n0_fold":            # u = sqrt(1 + t), fold at t = -1
            problem, dom = N0_FOLD_PROBLEM[2], n0_fold_domain(resolution)[1]
            true_u = lambda q: math.sqrt(1.0 + q[0])  # noqa: E731
            margin = lambda q: 1.0 + q[0]             # noqa: E731
        else:
            b, _, _, _, _, dom = pipelines(name, resolution)
            problem = b.problem
            true_u = lambda q: helpers.true_u(name, q)  # noqa: E731
            margin = lambda q: helpers.true_inside(name, q)  # noqa: E731

        def on_u_face(q, end):
            try:
                return abs(true_u(q) - end) <= 1e-10
            except ZeroDivisionError:
                # the ramp's fold (1/2, 0), where u (1 - 2t) = -2x holds
                # for every u: a grid vertex at resolution 48
                return name == "burgers_ramp" and q == [0.5, 0.0]

        kinds = [line.kind for line in dom.boundary]
        assert kinds.count("window") == 1 and kinds[-1] == "window"
        assert helpers.off_the_faces(dom.boundary[-1].points, problem.box,
                                     on_u_face) == []
        for line in dom.boundary[:-1]:
            assert line.kind == "fold"
            assert max(abs(margin(q)) for q in line.points) <= 1e-8

    @pytest.mark.parametrize("name, count", [
        ("ode_quadratic", 0), ("circular", 114), ("burgers_ramp", 63),
        ("burgers_reciprocal", 80)])
    def test_fold_is_the_sigma_points(self, name, count, solutions):
        # at `domain`'s default resolution every sigma point of a bundled
        # problem bounds its component: the fold entry is all of them,
        # projected, in their sorted order, and no polyline is traced
        b, _, sol = solutions(name)
        dom, sigma = helpers.domain_on_tiles(
            b.problem, sol, 1024 if sol.n == 0 else 128, True)
        assert len(sigma.points) == count and sigma.polylines == []
        folds = [line.points.tobytes() for line in dom.boundary
                 if line.kind == "fold"]
        assert folds == ([sigma.points[:, :-1].tobytes()] if count else [])

    def test_n0_fold_is_a_fold_boundary_point(self):
        sigma, dom = n0_fold_domain(1024)
        assert sigma.polylines == []
        lines = {kind: [b.points.tolist() for b in dom.boundary
                        if b.kind == kind] for kind in ("fold", "window")}
        ((fold,),) = lines["fold"]
        assert abs(fold[0] + 1.0) <= 1e-8
        assert [[1.0]] in lines["window"]

    def test_ode_window_is_the_box_start_and_the_u_window(self,
                                                          pipelines):
        # u = 1/(1 - t) leaves the box at t = -5 and through u = 10 at
        # t = 0.9, the one point of each face
        _, _, _, _, _, dom = pipelines("ode_quadratic", 512)
        (window,) = [b for b in dom.boundary if b.kind == "window"]
        assert window.points[0].tolist() == [-5.0]
        assert abs(window.points[1, 0] - 0.9) <= 1e-12
        assert window.points.shape == (2, 1)


def hand_window(mask, F):
    """The window points of maximal_domain over a hand-made mask on the
    integer grid, with F given as text."""
    dom = helpers.hand_domain(helpers.hand_component(mask), F)
    assert [b.kind for b in dom.boundary] == ["window"]
    return dom.boundary[0].points.tolist()


class TestProjectionOfHandMadeMasks:
    def test_u_gap_names_the_first_bad_base_cell(self):
        mask = np.zeros((4, 5, 6), dtype=bool)
        mask[1, 1, 0:3] = True          # one run of three cells
        mask[1, 2, 2] = True
        mask[3, 0, [0, 5]] = True       # two gapped columns; (2, 3) comes
        mask[2, 3, [1, 4]] = True       # first in lexicographic order
        comp = helpers.hand_component(mask, gamma_cells=[(1, 1, 0)])
        assert helpers.projection_by_cells(comp)[1] == (2, 3)
        with pytest.raises(ProjectionError,
                           match=r"two u-branches onto base cell \(2, 3\);"):
            helpers.hand_domain(comp)
        mask[2:] = False
        dom = helpers.hand_domain(helpers.hand_component(
            mask, gamma_cells=[(1, 1, 0)]))
        assert np.argwhere(dom.mask).tolist() == [[1, 1], [1, 2]]

    @given(dim=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_u_runs_match_the_dense_count(self, dim, seed):
        # a column is empty, full, one run from u = 0, to the top u cell or
        # between, or, at a rate drawn per mask, up to three random runs,
        # which may touch either end and make two or more
        rng = np.random.default_rng(seed)
        shape = tuple(int(k) for k in rng.integers(1, 7, dim - 1)) + (
            int(rng.integers(1, 12)),)
        top = shape[-1]
        several = rng.choice([0.0, 0.05, 0.5])
        mask = np.zeros(shape, dtype=bool)
        for column in np.ndindex(shape[:-1]):
            if rng.random() < several:
                for lo, hi in np.sort(rng.integers(0, top, (3, 2))):
                    mask[column][lo:hi + 1] = True
            else:
                lo, hi = np.sort(rng.integers(0, top, 2)) + (0, 1)
                start, stop = [(0, 0), (0, top), (0, hi), (lo, top),
                               (lo, hi)][rng.integers(5)]
                mask[column][start:stop] = True
        if not mask.any():
            mask.flat[rng.integers(mask.size)] = True
        runs = helpers.u_runs_by_shifted_masks(mask)
        comp = helpers.hand_component(mask)
        if (runs > 1).any():
            base = tuple(np.argwhere(runs > 1)[0].tolist())
            with pytest.raises(ProjectionError) as err:
                helpers.hand_domain(comp)
            assert str(err.value) == (
                f"component projects two u-branches onto base cell {base}; "
                "resolution too coarse to separate sheets")
        else:
            got = helpers.hand_domain(comp).mask
            assert got.dtype == bool and got.shape == runs.shape
            assert np.array_equal(got, runs > 0)

    @pytest.mark.parametrize("shape", [(7,), (4, 5), (4, 5, 6)])
    def test_beside_is_the_or_of_the_shifted_masks(self, shape):
        rng = np.random.default_rng(31)
        every_cell = np.argwhere(np.ones(shape, dtype=bool))
        for density in (0.0, 0.1, 0.5, 1.0):
            mask = rng.random(shape) < density
            shifted = np.zeros(shape, dtype=bool)
            for axis in range(len(shape)):
                for step in (-1, 1):
                    shifted |= helpers.shifted(mask, axis, step)
            assert np.array_equal(
                domain._beside(every_cell, np.flatnonzero(mask), shape),
                shifted[tuple(every_cell.T)])
        assert domain._beside(every_cell[:0], np.flatnonzero(mask),
                              shape).shape == (0,)

    def test_once_is_unique_of_sorted_values(self):
        rng = np.random.default_rng(32)
        for size in (0, 1, 2, 50):
            values = np.sort(rng.integers(0, 10, size))
            assert np.array_equal(domain._once(values), np.unique(values))

    @pytest.mark.parametrize("name,resolution", [("ode_quadratic", 512),
                                                 ("circular", 48),
                                                 ("burgers_ramp", 48),
                                                 ("burgers_reciprocal", 48)])
    def test_matches_the_cell_by_cell_reference(self, name, resolution,
                                                pipelines):
        _, sol, _, sigma, comp, dom = pipelines(name, resolution)
        mask, split = helpers.projection_by_cells(comp)
        assert split is None
        assert np.array_equal(dom.mask, mask)
        lines = {kind: [b.points for b in dom.boundary if b.kind == kind]
                 for kind in ("fold", "window")}
        (window,) = lines["window"]
        want = helpers.window_points_by_cells(sol.F, comp)
        assert window.shape == want.shape
        assert np.abs(window - want).max() <= 1e-12
        assert [line.tolist() for line in lines["fold"]] == (
            helpers.fold_lines_by_points(comp, sigma))

    def test_window_points_are_the_zeros_on_the_box_faces(self):
        # the line u = 0.3 + t/4 crosses the t = 0 face at u = 0.3 and
        # leaves through the u = 2 face at t = 6.8; it cuts no other face
        # edge of the cells it passes
        mask = np.zeros((8, 2), dtype=bool)
        mask[[0, 1, 2, 2, 3, 4, 5, 6], [0, 0, 0, 1, 1, 1, 1, 1]] = True
        for _ in range(2):
            (start,), (end,) = hand_window(mask, "u - 0.3 - t/4")
            assert start == 0.0 and abs(end - 6.8) <= 1e-14
            # a face cell past the exit adds nothing
            mask[7, 1] = True

    def test_window_points_on_the_faces_of_a_space_grid(self):
        # u = 1/2 over the four low cells of a 2 x 2 x 2 grid: the vertical
        # edges on the base's rim, each once, in flat-index order
        mask = np.zeros((2, 2, 2), dtype=bool)
        mask[..., 0] = True
        assert hand_window(mask, "u - 1/2") == [
            [0.0, 0.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [1.0, 2.0],
            [2.0, 0.0], [2.0, 1.0], [2.0, 2.0]]
        # x = 1/2 + u/4 over all eight cells: the x-edges from x = 0 on the
        # t-faces (u = 0, 1, 2) and on the u-faces (t = 0, 1, 2), each once
        mask[...] = True
        assert hand_window(mask, "x - 1/2 - u/4") == [
            [0.0, 0.5], [0.0, 0.75], [0.0, 1.0], [1.0, 0.5], [1.0, 1.0],
            [2.0, 0.5], [2.0, 0.75], [2.0, 1.0]]

    def test_no_window_point_without_a_face_cell(self):
        # a component bounded by folds on every side touches no box face
        mask = np.zeros((4, 4), dtype=bool)
        mask[[1, 2], 1] = True
        assert hand_window(mask, "u - 3/2") == []

    def test_no_window_point_at_a_pole_or_where_F_fails(self):
        mask = np.ones((4, 2), dtype=bool)
        # F changes sign across its pole u = sqrt(1/5) on the t = 0 and
        # t = 4 faces, and has no zero there: the bracket closes on the
        # pole, where no float makes u^2 - 1/5 vanish
        assert hand_window(mask, "1/(u*u - 0.2)") == []
        # F is undefined where (u - 1/5)(u - 4/5) < 0, inside the edges
        # from u = 0 to u = 1 where it changes sign
        assert hand_window(mask, "u - 1/2 + 0 * sqrt((u - 1/5)*(u - 4/5))"
                           ) == []
        assert hand_window(mask, "u - 1/2") == [[0.0], [4.0]]

    def test_fold_keeps_the_sigma_points_joined_to_the_component(self):
        # component cells in u-cell 0 of base cells (0..2, 0); singular
        # cells (3, 0), (4, 0) beside and after them, and (6, 0) apart
        mask = np.zeros((8, 1, 2), dtype=bool)
        mask[:3, 0, 0] = True
        sigma_cells = np.zeros_like(mask)
        sigma_cells[[3, 4, 6], 0, 0] = True
        comp = helpers.hand_component(mask, sigma_cells)
        points = [[4.5, 0.5, 0.5], [6.5, 0.5, 0.5], [3.5, 0.5, 0.5]]
        # one fold line, in the points' order, of those joined to it
        dom = helpers.hand_domain(comp, points=points)
        assert [(b.kind, b.points.tolist()) for b in dom.boundary] == [
            ("fold", [[4.5, 0.5], [3.5, 0.5]]), ("window", [])]
        dom = helpers.hand_domain(comp, points=points[::-1])
        assert [(b.kind, b.points.tolist()) for b in dom.boundary] == [
            ("fold", [[3.5, 0.5], [4.5, 0.5]]), ("window", [])]
        # no sigma point joined to it, or none at all: no fold line
        for apart in (points[1:2], None):
            dom = helpers.hand_domain(comp, points=apart)
            assert [(b.kind, b.points.tolist()) for b in dom.boundary] == [
                ("window", [])]


class TestContains:
    def test_ode_inside(self, solutions):
        b, _, sol = solutions("ode_quadratic")
        v = contains(b.problem, b.data, sol, [0.9])
        assert v.kind == "inside"
        assert abs(v.u - 10.0) <= 1e-8

    def test_ode_outside(self, solutions):
        b, _, sol = solutions("ode_quadratic")
        assert contains(b.problem, b.data, sol, [1.1]).kind == "outside"

    def test_circular_inside_value(self, solutions):
        b, _, sol = solutions("circular")
        v = contains(b.problem, b.data, sol, [0.5, 0.5])
        assert v.kind == "inside"
        assert abs(v.u - math.sqrt(0.625)) <= 1e-8

    def test_reciprocal_examples(self, solutions):
        b, _, sol = solutions("burgers_reciprocal")
        v = contains(b.problem, b.data, sol, [0.5, 1.0])
        assert v.kind == "inside"
        assert abs(v.u - (2.0 - math.sqrt(2.0))) <= 1e-8
        assert contains(b.problem, b.data, sol, [2.0, 1.0]).kind == "outside"

    def test_query_outside_base_face_rejected(self, solutions):
        b, _, sol = solutions("circular")
        with pytest.raises(ValueError, match="outside the .t, x. face"):
            contains(b.problem, b.data, sol, [5.0, 0.0])

    @pytest.mark.parametrize("name, q", [
        ("ode_quadratic", [[0.5]]), ("ode_quadratic", [0.5, 0.3]),
        ("circular", [[0.5, 0.5]]), ("circular", [[0.5], [0.5]]),
        ("circular", 0.5)])
    def test_query_of_another_shape_rejected(self, name, q, solutions):
        # a nested query used to pass the count check and fail in the
        # march with a TypeError
        b, _, sol = solutions(name)
        with pytest.raises(ValueError, match=r"^query point must have "
                           f"{b.problem.n + 1} coordinates$"):
            contains(b.problem, b.data, sol, q)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_base_point_rejected(self, s, solutions):
        # a NaN base point used to give a path of length NaN, which no
        # step marched, and the answer "inside nan"
        b, _, sol = solutions("burgers_reciprocal")
        with pytest.raises(ValueError, match=r"^base point .* is not finite"):
            contains(b.problem, b.data, sol, [0.5, 1.0], base_point=s)

    @pytest.mark.parametrize("s", [0.3, math.nan])
    def test_base_point_rejected_for_n_zero(self, s, solutions):
        # an n = 0 path starts at t = 0: a base point used to be ignored,
        # finite or not, and the answer was "inside 2.0"
        b, _, sol = solutions("ode_quadratic")
        with pytest.raises(ValueError, match=r"^base_point is for n = 1 only"):
            contains(b.problem, b.data, sol, [0.5], base_point=s)
        assert str(contains(b.problem, b.data, sol, [0.5])) == "inside 2.0"

    def test_boundary_verdict_on_the_curve(self, solutions):
        b, _, sol = solutions("circular")
        v = contains(b.problem, b.data, sol, [0.0, 1.0])  # 1 - t^2 - x^3 = 0
        assert v.kind in ("boundary", "outside")

    def test_agreement_with_mask(self, pipelines):
        b, sol, surf, _, comp, dom = pipelines("circular", 48)
        rng = np.random.default_rng(7)
        diag = math.hypot(*(ax[1] - ax[0] for ax in dom.axes))
        (tlo, thi), ((xlo, xhi),) = b.problem.box.t, b.problem.box.x
        agreements = 0
        for _ in range(500):
            q = [rng.uniform(tlo, thi), rng.uniform(xlo, xhi)]
            g = 1.0 - q[0] ** 2 - q[1] ** 3
            grad = math.hypot(2 * q[0], 3 * q[1] ** 2)
            if abs(g) <= 1.5 * diag * max(grad, 1e-9):
                continue  # discretization band around the boundary
            v = contains(b.problem, b.data, sol, q)
            masked = helpers.contains_cell(dom, q)
            assert (v.kind == "inside") == masked
            agreements += 1
        assert agreements > 300

    def test_path_independence_small(self, solutions):
        b, _, sol = solutions("burgers_reciprocal")
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.uniform(0.0, 1.5)
            t = rng.uniform(0.0, 0.8) * (x + 1.0) ** 2 / 4.0
            us = [contains(b.problem, b.data, sol, [t, x], base_point=s).u
                  for s in (-0.1, 0.0, 0.1)]
            assert max(us) - min(us) <= 1e-8

    def test_pde_residual_at_inside_points(self, solutions):
        for name in ("circular", "burgers_reciprocal"):
            b, _, sol = solutions(name)
            problem = b.problem
            names = var_names(1)
            F_t, F_x, F_u = sol.gradient
            rng = np.random.default_rng(21)
            count = 0
            while count < 200:
                (tlo, thi), ((xlo, xhi),) = problem.box.t, problem.box.x
                q = [rng.uniform(tlo, thi), rng.uniform(xlo, xhi)]
                if helpers.true_inside(name, q) < 0.05:
                    continue
                v = contains(problem, b.data, sol, q)
                if v.kind != "inside":
                    continue
                count += 1
                bind = dict(zip(names, [q[0], q[1], v.u]))
                fu = evaluate(F_u, bind)
                u_t = -evaluate(F_t, bind) / fu
                u_x = -evaluate(F_x, bind) / fu
                resid = (evaluate(problem.alpha, bind) * u_t
                         + evaluate(problem.a[0], bind) * u_x
                         - evaluate(problem.b, bind))
                assert abs(resid) <= 1e-8 * (1.0 + abs(u_t) + abs(u_x))


# Burgers with h = sqrt(x + 1): F = u - sqrt(x - u*t + 1) fails to
# evaluate on part of the box, so Newton meets domain violations there
SQRT_PROBLEM = dict(n=1, alpha="1", a=["u"], b="0", h="sqrt(x + 1)",
                    box=Box((-0.5, 1.0), ((-2.0, 1.0),), (0.05, 2.0)))
# blow-ups whose track margin is not the quadratic one of the bundled
# problems: u' = u^3, u(0) = 1, u = 1 / sqrt(1 - 2t) up to t = 1/2, with
# rho and f as a problem file gives them; and Burgers with h = -x/2,
# u = -x / (2 - t) up to t = 2
CUBIC_PROBLEM = dict(n=0, alpha="1", a=[], b="u^3", h="1",
                     box=Box((-1.0, 1.0), (), (-10.0, 10.0)))
CUBIC_INTEGRAL = ("t + 1/(2*u^2)", "y1 - 1/2")
SLOPE_PROBLEM = dict(n=1, alpha="1", a=["u"], b="0", h="-x/2",
                     box=Box((-0.5, 3.0), ((-1.0, 1.0),), (-3.0, 3.0)))


def compiled_case(name, solutions):
    """(problem, data, solution) of a bundled problem or, for "sqrt",
    "cubic" and "slope", of SQRT_PROBLEM, CUBIC_PROBLEM and
    SLOPE_PROBLEM."""
    if name == "cubic":
        problem, data = make_problem(**CUBIC_PROBLEM)
        rho, f = CUBIC_INTEGRAL
        return problem, data, implicit_solution_for_problem(
            problem, data, (parse(rho, n=0),),
            parse(f, n=0, allowed_variables=["y1"]))[1]
    if name in ("sqrt", "slope"):
        problem, data = make_problem(
            **(SQRT_PROBLEM if name == "sqrt" else SLOPE_PROBLEM))
        return problem, data, implicit_solution_for_problem(problem,
                                                            data)[1]
    b, _, sol = solutions(name)
    return b.problem, b.data, sol


class TestCompiledQuery:
    """The compiled evaluation against the tree walk it replaces."""

    @pytest.mark.parametrize("name", [*helpers.EXAMPLES, "sqrt"])
    def test_corrector_matches_tree_newton(self, name, solutions):
        problem, _, sol = compiled_case(name, solutions)
        names = var_names(sol.n)
        rng = np.random.default_rng(11)
        lows, highs = problem.box.lows(), problem.box.highs()
        failures = 0
        for _ in range(200):
            draw = lows + rng.random(len(lows)) * (highs - lows)
            *point, u = draw.tolist()
            got = _newton_u(sol.F, sol.F_and_Fu, point, u, SOLVE_TOL,
                            CORRECTOR_MAXIT)
            expect = helpers.newton_u_by_tree(
                sol.F, sol.F_u, dict(zip(names, [*point, u])), u, SOLVE_TOL,
                CORRECTOR_MAXIT)
            assert repr(got) == repr(expect)
            failures += got[1] is None
        if name == "sqrt":
            assert failures > 0  # the domain-violation branches ran

    def test_F_u_failing_where_F_does_not(self):
        # F = t sqrt(u) + u at t = 0: one Newton step from u = 1 lands on
        # u = 0, where F = 0 but F_u = t (1 / (2 sqrt(u))) + 1 divides by 0
        F = parse("t*sqrt(u) + u", n=0)
        F_u = diff(F, "u")
        F_and_Fu = compile_exprs([F, F_u], ("t", "u"))
        # ok reports F = 0 there only when that step is the last iteration
        for maxit, ok in ((CORRECTOR_MAXIT, False), (1, True)):
            got = _newton_u(F, F_and_Fu, [0.0], 1.0, SOLVE_TOL, maxit)
            expect = helpers.newton_u_by_tree(F, F_u, {"t": 0.0}, 1.0,
                                              SOLVE_TOL, maxit)
            assert repr(got) == repr(expect) == repr((0.0, None, ok))

    @pytest.mark.parametrize("name, q, f_u", [
        ("ode_quadratic", [0.9], -0.01),    # F_u = -1/u^2, u = 10
        ("circular", [0.5, 0.5], 2 * math.sqrt(0.625)),    # F_u = 2u
        # F_u = 1 - t / (x - ut + 1)^2, u = 2 - sqrt(2)
        ("burgers_reciprocal", [0.5, 1.0],
         1.0 - 0.5 / (2.0 - 0.5 * (2.0 - math.sqrt(2.0))) ** 2)])
    def test_inside_verdict_carries_F_u(self, name, q, f_u, solutions):
        b, _, sol = solutions(name)
        v = contains(b.problem, b.data, sol, q)
        assert v.kind == "inside"
        assert abs(v.f_u - f_u) <= 1e-8 * abs(f_u)

    @pytest.mark.parametrize("name", [*helpers.EXAMPLES, "sqrt"])
    def test_flow_check_draws_match_tree_newton(self, name, solutions):
        problem, _, sol = compiled_case(name, solutions)
        names = var_names(sol.n)
        rng = np.random.default_rng(integrals._RNG_SEED)
        lows, highs = problem.box.lows(), problem.box.highs()
        for _ in range(300):
            draw = lows + rng.random(len(lows)) * (highs - lows)
            *point, u = draw.tolist()
            args = (integrals.FLOW_NEWTON_TOL, integrals.FLOW_NEWTON_MAXIT,
                    integrals.FLOW_NEWTON_MAX_STEP)
            got = _newton_u(sol.F, sol.F_and_Fu, point, u, *args)
            expect = helpers.newton_u_by_tree(
                sol.F, sol.F_u, dict(zip(names, [*point, u])), u, *args)
            assert repr(got) == repr(expect)

    # on sqrt about one query in four creeps toward where F is undefined;
    # MAX_MARCH_STEPS bounds what each costs on the tree walk
    @pytest.mark.parametrize("name, count",
                             [*((name, 100) for name in helpers.EXAMPLES),
                              ("sqrt", 30)])
    def test_contains_matches_a_run_on_evaluate(self, name, count,
                                                solutions):
        problem, data, sol = compiled_case(name, solutions)
        names = var_names(sol.n)
        by_tree = dataclasses.replace(
            sol, F_and_Fu=helpers.compile_by_tree([sol.F, sol.F_u], names),
            grad_values=helpers.compile_by_tree(sol.gradient, names),
            fold_values=helpers.compile_by_tree(
                [sol.F, *sol.gradient, *(diff(sol.F_u, v) for v in names)],
                names),
            Fu_value=helpers.compile_by_tree([sol.F_u], names))
        rng = np.random.default_rng(12)
        face = problem.box.ranges[:problem.n + 1]
        lows = np.array([lo for lo, _ in face])
        highs = np.array([hi for _, hi in face])
        def verdict(solution, q):
            try:
                v = contains(problem, data, solution, q)
            except Exception as err:  # compared, not handled
                return type(err).__name__, str(err)
            return v.kind, repr(v.u), repr(v.f_u), repr(v.at)

        kinds = set()
        for _ in range(count):
            q = lows + rng.random(len(face)) * (highs - lows)
            got = verdict(sol, q)
            assert got == verdict(by_tree, q)
            kinds.add(got[0])
        # both verdicts, and on sqrt a path that leaves F's domain
        assert kinds >= ({"inside", "PathLeftWindowError"} if name == "sqrt"
                         else {"inside", "outside"})


def counting_corrector(monkeypatch, budget=math.inf):
    """Count domain._corrector calls in the returned one-element list;
    past ``budget`` calls since it was last zeroed, raise
    PathLeftWindowError instead."""
    calls = [0]
    corrector = domain._corrector

    def counted(*args):
        calls[0] += 1
        if calls[0] > budget:
            raise PathLeftWindowError(f"more than {budget} corrector calls")
        return corrector(*args)

    monkeypatch.setattr(domain, "_corrector", counted)
    return calls


def face_points(problem, rng, count):
    """``count`` uniform points of the (t, x) face of the problem's box."""
    face = problem.box.ranges[:problem.n + 1]
    lows = np.array([lo for lo, _ in face])
    highs = np.array([hi for _, hi in face])
    return [lows + rng.random(len(face)) * (highs - lows)
            for _ in range(count)]


def path_start(data, q):
    """The start (0, s*) of the straight path of ``contains`` to q."""
    return [0.0, *([min(max(q[1], data.interval[0]), data.interval[1])]
                   if len(q) > 1 else [])]


def assert_same_verdicts(got, expect, lengths):
    """Verdicts (None for PathLeftWindowError) of two marches over paths
    of the given lengths: the same kinds, inside verdicts equal by repr
    (of u, f_u and the floats of at), and outside and boundary ones placed
    within 1e-9 of the path length.  Returns the kinds."""
    kinds = [v.kind if v else "PathLeftWindowError" for v in got]
    assert kinds == [v.kind if v else "PathLeftWindowError"
                     for v in expect]
    for kind, v, ref, length in zip(kinds, got, expect, lengths):
        if kind == "inside":
            assert [repr(v.u), repr(v.f_u), *map(repr, map(float, v.at))] == [
                repr(ref.u), repr(ref.f_u), *map(repr, map(float, ref.at))]
        elif kind in ("outside", "boundary"):
            shift = max(abs(a - b) for a, b in zip(v.at, ref.at))
            assert shift <= 1e-9 * length
    return kinds


class TestMarch:
    """The march locates the onset by a turning-point solve, a margin
    search or step halving, and ends."""

    # the reference re-bisects the failing step of an outside verdict 60
    # times; its queries that creep toward where F is undefined (sqrt only)
    # make thousands of corrector calls before PathLeftWindowError, so they
    # are cut there after 2,000.  The last point of each bundled
    # problem but the ODE lies on the fold, within the final step.
    @pytest.mark.parametrize("name, count, last", [
        ("ode_quadratic", 200, None),
        ("circular", 200, [0.0, 1.0]),
        ("burgers_ramp", 200, [0.5, 0.0]),
        ("burgers_reciprocal", 200, [0.25, 0.0]),
        ("sqrt", 60, None)])
    def test_matches_the_bisection_reference(self, name, count, last,
                                             solutions, monkeypatch):
        problem, data, sol = compiled_case(name, solutions)
        rng = np.random.default_rng(31)
        face = problem.box.ranges[:problem.n + 1]
        lows = np.array([lo for lo, _ in face])
        highs = np.array([hi for _, hi in face])

        def verdict(q):
            try:
                return contains(problem, data, sol, q)
            except PathLeftWindowError:
                return None

        points = face_points(problem, rng, count) + (
            [np.array(last)] if last else [])
        got = [verdict(q) for q in points]
        calls = counting_corrector(monkeypatch, budget=2 * MAX_MARCH_STEPS)
        monkeypatch.setattr(domain, "_march", helpers.march_with_bisection)
        expect = []
        for q in points:
            calls[0] = 0
            expect.append(verdict(q))

        kinds = assert_same_verdicts(
            got, expect, [math.dist(path_start(data, q), q) for q in points])
        assert set(kinds) >= ({"inside", "outside", "PathLeftWindowError"}
                              if name == "sqrt" else {"inside", "outside"})
        assert (kinds[-1] == "boundary") == (last is not None)

    # the march without the turning-point solve and the margin search; it
    # bounds the steps as the march does, so creeping sqrt queries end
    # alike
    @pytest.mark.parametrize("name, count", [
        *((name, 200) for name in helpers.EXAMPLES), ("sqrt", 150),
        ("cubic", 150), ("slope", 150)])
    def test_matches_the_halving_reference(self, name, count, solutions,
                                           monkeypatch):
        problem, data, sol = compiled_case(name, solutions)
        points = face_points(problem, np.random.default_rng(41), count)

        def verdicts():
            out = []
            for q in points:
                try:
                    out.append(contains(problem, data, sol, q))
                except PathLeftWindowError:
                    out.append(None)
            return out

        got = verdicts()
        monkeypatch.setattr(domain, "_march", helpers.march_by_halving)
        kinds = assert_same_verdicts(
            got, verdicts(),
            [math.dist(path_start(data, q), q) for q in points])
        assert set(kinds) >= {"inside", "outside"}

    def test_matches_the_halving_reference_on_staircases(self, pipelines,
                                                         monkeypatch):
        # mask paths from the initial set to the centres of masked cells,
        # then on by 1 in t, and back: a fold is crossed on the last of
        # many legs, or on the leg before it
        b, sol, _, _, _, dom = pipelines("circular", 48)
        rng = np.random.default_rng(43)
        start = [0.0, 0.0]
        paths = []
        for cell in rng.permutation(cell_indices(dom.mask))[:40]:
            goal = cell_center(dom.axes, tuple(cell))
            waypoints = _staircase(dom, start, goal)
            beyond = goal + np.array([1.0, 0.0])
            paths += [waypoints + [beyond], waypoints + [beyond, goal]]
        u0 = evaluate(b.data.h, {"x1": start[1]})

        calls = counting_corrector(monkeypatch)
        spent = []

        def verdicts(march):
            out = []
            for waypoints in paths:
                calls[0] = 0
                try:
                    out.append(march(sol, waypoints, u0))
                except PathLeftWindowError:
                    out.append(None)
                spent.append(calls[0])
            return out

        got = verdicts(domain._march)
        lengths = [sum(math.dist(p, q) for p, q in zip(w, w[1:]))
                   for w in paths]
        kinds = assert_same_verdicts(got, verdicts(helpers.march_by_halving),
                                     lengths)
        outside = [i for i, kind in enumerate(kinds) if kind == "outside"]
        # with the fold on the last leg and on the one before it, reached
        # by the solve on most of them
        assert {i % 2 for i in outside} == {0, 1}
        assert len(outside) >= 10
        assert np.mean([spent[i] for i in outside]) <= 20

    # three steps cross a straight path (1/4, 0.35 and the rest of it)
    # where all three are accepted
    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    def test_inside_verdicts_take_few_corrector_calls(self, name, solutions,
                                                      monkeypatch):
        problem, data, sol = compiled_case(name, solutions)
        calls = counting_corrector(monkeypatch)
        spent = []
        for q in face_points(problem, np.random.default_rng(47), 200):
            calls[0] = 0
            if contains(problem, data, sol, q).kind == "inside":
                spent.append(calls[0])
        assert len(spent) >= 50
        assert np.mean(spent) <= 4

    # halving alone spends 65-70 corrector calls on an outside verdict;
    # the turning-point solve ends circular's and burgers_reciprocal's
    # folds, the margin search the blow-ups of the other two.  Points
    # drawn and the mean calls allowed: ode_quadratic's outside is the
    # last seventh of its face
    OUTSIDE_CALLS = {"circular": (200, 20), "burgers_reciprocal": (200, 20),
                     "burgers_ramp": (200, 25), "ode_quadratic": (500, 35)}

    @pytest.mark.parametrize("name", ["circular", "burgers_reciprocal",
                                      "burgers_ramp", "ode_quadratic"])
    def test_outside_verdicts_take_few_corrector_calls(self, name, solutions,
                                                       monkeypatch):
        problem, data, sol = compiled_case(name, solutions)
        count, bound = self.OUTSIDE_CALLS[name]
        calls = counting_corrector(monkeypatch)
        spent = []
        for q in face_points(problem, np.random.default_rng(47), count):
            calls[0] = 0
            if contains(problem, data, sol, q).kind == "outside":
                spent.append(calls[0])
        assert len(spent) >= 50
        assert np.mean(spent) <= bound

    # the references share the march's step rule, so they cannot tell a
    # long step that lands on another sheet (circular's lower root, say);
    # the closed form can
    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    def test_inside_u_matches_the_closed_form(self, name, solutions):
        problem, data, sol = compiled_case(name, solutions)
        inside = 0
        for q in face_points(problem, np.random.default_rng(51), 400):
            if helpers.true_inside(name, q) < 0.05:
                continue
            v = contains(problem, data, sol, q)
            if v.kind != "inside":
                # only where the straight path from the initial set
                # leaves the domain: contains tries no other route then
                start = np.array(path_start(data, q))
                assert min(helpers.true_inside(name, start + lam * (q - start))
                           for lam in np.linspace(0.0, 1.0, 65)) < 0.0
                continue
            inside += 1
            expect = helpers.true_u(name, q)
            assert abs(v.u - expect) <= 1e-8 * max(1.0, abs(v.u))
        assert inside >= 100

    @pytest.mark.parametrize("peak", [1.02, 1.05])
    def test_a_path_past_the_fold_and_back_answers_outside(self, peak,
                                                           solutions):
        # along x = 0, circular's branch u = sqrt(1 - t^2) ends at t = 1;
        # a step over the waypoint at the peak would land back at t = 0.9
        # on the branch and answer "inside"
        b, _, sol = solutions("circular")
        u0 = evaluate(b.data.h, {"x1": 0.0})
        v = domain._march(sol, [(0.0, 0.0), (0.9, 0.0), (peak, 0.0),
                                (0.9, 0.0)], u0)
        assert v.kind == "outside"
        assert abs(v.at[0] - 1.0) <= 1e-6 and v.at[1] == 0.0

    # u_t + u^2 u_x = 0 with u = 1/(x + 3) at t = 0 keeps u > 0.  On a
    # long step near the end of each of these paths, the corrector from
    # the last accepted u finds a root of F = u - 1/(x - u^2 t + 3) with
    # u < 0 and F_u > 0, while the branch itself folds before the end
    @pytest.mark.parametrize("q", [[0.7861064148813539, -1.8656576987781426],
                                   [0.8936563311955092, -1.735670013103701],
                                   [0.6223364126218673, -1.6532747075418288]])
    def test_a_long_step_does_not_land_on_another_sheet(self, q,
                                                        monkeypatch):
        problem, data = make_problem(
            1, "1", ["u^2"], "0", "1/(x+3)",
            Box((-0.5, 1.0), ((-2.0, 2.0),), (-3.0, 3.0)))
        _, sol = implicit_solution_for_problem(problem, data)
        assert contains(problem, data, sol, q).kind == "outside"
        monkeypatch.setattr(domain, "_on_branch", lambda *args: True)
        v = contains(problem, data, sol, q)
        assert v.kind == "inside" and v.u < 0.0

    def test_faded_root_on_another_branch_does_not_end_the_march(
            self, solutions, monkeypatch):
        # the march toward this inside point fails a step at about
        # (1.345, 1.324) with a root of small F_u; the margin search
        # from there settles on an onset with healthy F_u at its good
        # end, so the march goes back to halving its step
        problem, data, sol = compiled_case("burgers_reciprocal", solutions)
        q = [1.7410952826497295, 1.684021239152389]
        faded_onset = domain._faded_onset
        searched = []

        def counted(*args):
            searched.append(faded_onset(*args))
            return searched[-1]

        monkeypatch.setattr(domain, "_faded_onset", counted)
        got = contains(problem, data, sol, q)
        assert searched == [None]
        monkeypatch.setattr(domain, "_march", helpers.march_by_halving)
        expect = contains(problem, data, sol, q)
        assert assert_same_verdicts([got], [expect], [math.dist(
            path_start(data, q), q)]) == ["inside"]

    def test_margin_search_steps_over_a_stretch_without_root(self,
                                                            monkeypatch):
        # along at(s) = (s,): F_u = 0.5 - s up to s = 0.7, no root from
        # there to 0.9, and a root of another branch, F_u = -0.1, beyond.
        # A trial without a root is a bad end, so the search finds the
        # onset where 0.5 - s meets the singular threshold
        def f_u(s):
            return 0.5 - s if s < 0.7 else None if s < 0.9 else -0.1

        trials = []

        def corrector(sol, point, u):
            trials.append(f_u(point[0]))
            return u, trials[-1], trials[-1] is not None

        monkeypatch.setattr(domain, "_corrector", corrector)
        sol = types.SimpleNamespace(grad_values=lambda s, u: (0.0, f_u(s)))
        m_bad = -0.1 - domain._singular_threshold((0.0, -0.1))
        v = domain._faded_onset(sol, lambda s: (s,), 1.0, 0.0, 1.0, m_bad,
                                1.0, 0.5, (0.0, 0.5), 1.0)
        # 0.5 - s = SINGULAR_FACTOR (1 + |0.5 - s|) there
        onset = 0.5 - domain.SINGULAR_FACTOR / (1.0 - domain.SINGULAR_FACTOR)
        assert v.kind == "outside"
        assert abs(v.at[0] - onset) <= 2 * domain.MIN_FRACTION
        assert None in trials

    def test_turning_point_on_circular(self, solutions):
        # along x = 0, F = t^2 + u^2 - 1 folds at t = 1, u = 0
        _, _, sol = solutions("circular")
        s_star, f_u = domain._turning_point(
            sol, lambda s: (s, 0.0), (1.0, 0.0), 0.9, 1.1, math.sqrt(0.19),
            1.0, 1e-12)
        assert abs(s_star - 1.0) <= 1e-12
        # checked where F_u = 2u sits between the two thresholds, near
        # their geometric mean (grad F is (2t, 0, 2u): 1 + |grad F| is
        # about 3 there)
        threshold = domain.SINGULAR_FACTOR * 3.0
        assert 10 * threshold < f_u < 100 * threshold

    def test_turning_point_check_bounds_F_u(self, solutions, monkeypatch):
        # the check must find |F_u| within the relaxed threshold; with
        # that threshold pulled down to the singular one, no check can
        _, _, sol = solutions("circular")
        monkeypatch.setattr(domain, "_relaxed_threshold",
                            domain._singular_threshold)
        assert domain._turning_point(
            sol, lambda s: (s, 0.0), (1.0, 0.0), 0.9, 1.1, math.sqrt(0.19),
            1.0, 1e-12) is None

    def test_leg_direction_of_the_leg_on_from_a_point(self):
        # a march step never spans two legs, so the leg that runs on from
        # its start holds it; from a waypoint, that is the next leg
        pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 2.0)]
        legs = [1.0, 2.0]
        assert domain._leg_direction(pts, legs, 0.0) == (1.0, 0.0)
        assert domain._leg_direction(pts, legs, 0.2) == (1.0, 0.0)
        assert domain._leg_direction(pts, legs, 1.0) == (0.0, 1.0)
        assert domain._leg_direction(pts, legs, 3.0) is None

    def test_blow_ups_are_told_apart_cheaply(self, solutions, monkeypatch):
        # ode_quadratic's outside verdicts are blow-ups, u = 1 / (1 - t):
        # Newton in u mostly runs off to where F_u = -1/u^2 vanishes,
        # which ends the solves of a march before one starts
        b, _, sol = solutions("ode_quadratic")
        turning_point = domain._turning_point
        solved = []

        def counted(*args):
            solved.append(turning_point(*args))
            return solved[-1]

        monkeypatch.setattr(domain, "_turning_point", counted)
        kinds = [contains(b.problem, b.data, sol, q).kind for q in
                 face_points(b.problem, np.random.default_rng(53), 200)]
        assert kinds.count("outside") >= 20
        assert set(solved) == {domain.BLOW_UP}
        assert len(solved) <= kinds.count("outside") / 2

    def test_turning_point_leaves_blow_ups_and_degenerate_folds(self,
                                                               solutions):
        # ode_quadratic: u = 1 / (1 - t) runs off to infinity at t = 1,
        # and Newton on (F, F_u) chases it, |ds| shrinking by 2/3
        _, _, sol = solutions("ode_quadratic")
        assert domain._turning_point(sol, lambda s: (s,), (1.0,), 0.9, 1.1,
                                     10.0, -1.0, 1e-12) is domain.BLOW_UP
        # burgers_ramp: F = u (1 - 2t) + 2x is linear in u, F_uu = 0
        _, _, sol = solutions("burgers_ramp")
        assert domain._turning_point(
            sol, lambda s: (s, 0.1), (1.0, 0.0), 0.4, 0.6, -1.0, 1.0,
            1e-12) is None

    def test_creeping_query_ends_within_the_bound(self, solutions,
                                                  monkeypatch):
        # step halving alone creeps toward x = -1, where F stops being
        # defined, for MAX_MARCH_STEPS steps (about 84,000 corrector calls
        # without that bound); bracketing the edge ends it
        problem, data, sol = compiled_case("sqrt", solutions)
        calls = counting_corrector(monkeypatch)
        with pytest.raises(PathLeftWindowError,
                           match=r"edge of F's domain at \[0\.7\d*, "
                                 r"-0\.99999\d*\] with healthy"):
            contains(problem, data, sol, [0.859, -1.152])
        assert calls[0] < 100

    def test_creeping_queries_end_early(self, solutions, monkeypatch):
        # about one sqrt query in four lies at x < -1, t > 0, which no
        # characteristic reaches: its branch ends where F is undefined
        problem, data, sol = compiled_case("sqrt", solutions)
        calls = counting_corrector(monkeypatch)
        ended = []
        for q in face_points(problem, np.random.default_rng(12), 150):
            unreached = q[1] < -1.0 and q[0] > 0.0
            calls[0] = 0
            try:
                contains(problem, data, sol, q)
            except PathLeftWindowError:
                ended.append(calls[0])
                assert unreached
            else:
                assert not unreached
        assert len(ended) >= 25
        assert max(ended) < 100

    # on circular's fold F = t^2 + u^2 - 1 + x^3 is u^2 there: F_u = 0
    FOLD = (0.6, 0.64 ** (1.0 / 3.0))

    def test_zero_length_path_is_judged_at_its_end(self, solutions):
        b, _, sol = solutions("circular")
        v = domain._march(sol, [self.FOLD, self.FOLD], 0.0)
        assert (v.kind, v.u, v.f_u, v.at) == ("boundary", None, 0.0,
                                              self.FOLD)
        start = (0.0, 0.05)
        u0 = evaluate(b.data.h, {"x1": 0.05})
        v = domain._march(sol, [start, start], u0)
        assert (v.kind, v.u, v.at) == ("inside", u0, start)
        assert v.f_u == 2.0 * u0

    @pytest.mark.parametrize("goal", [(0.9, FOLD[1]), (0.0, 0.0)])
    def test_onset_before_any_accepted_step(self, goal, solutions,
                                            monkeypatch):
        # Newton from u = 0 meets F_u = 0 at once, toward the outside
        # (t up) as toward the inside, so no step is ever accepted
        b, _, sol = solutions("circular")
        calls = counting_corrector(monkeypatch)
        v = domain._march(sol, [self.FOLD, goal], 0.0)
        assert (v.kind, v.u, v.f_u) == ("outside", None, 0.0)
        assert math.dist(v.at, self.FOLD) <= (
            2 * domain.MIN_FRACTION * math.dist(self.FOLD, goal))
        # one corrector call per step size, INITIAL_FRACTION halved down
        # to MIN_FRACTION of the path
        assert calls[0] == 1 + math.ceil(
            math.log2(domain.INITIAL_FRACTION / domain.MIN_FRACTION))

    def test_healthy_F_u_where_F_is_undefined(self):
        # F = u - (1 + sqrt(x)^2) has F_u = 1 everywhere, and no value at
        # x < 0, which the path from s* = 0.05 to x = -0.5 crosses
        problem, data = make_problem(
            1, "1", ["0"], "0", "1 + sqrt(x)^2",
            Box((-0.5, 1.0), ((-1.0, 1.0),), (0.0, 3.0)),
            s_range=((0.05, 0.5),))
        _, sol = implicit_solution_for_problem(problem, data)
        with pytest.raises(PathLeftWindowError,
                           match=r"with healthy F_u = 1\.000e\+00"):
            contains(problem, data, sol, [0.5, -0.5])

    def test_halving_tail_with_healthy_F_u(self, monkeypatch):
        # the problem above with no edge search: step halving runs out at
        # the edge of F's domain, x = 0, with F_u still 1
        problem, data = make_problem(
            1, "1", ["0"], "0", "1 + sqrt(x)^2",
            Box((-0.5, 1.0), ((-1.0, 1.0),), (0.0, 3.0)),
            s_range=((0.05, 0.5),))
        _, sol = implicit_solution_for_problem(problem, data)
        monkeypatch.setattr(domain, "_domain_edge", lambda *args: None)
        with pytest.raises(PathLeftWindowError,
                           match=r"^corrector diverged at \[0\.04545\d*, "
                                 r"-1\.84\d*e-13\] with healthy "
                                 r"F_u = 1\.000e\+00"):
            contains(problem, data, sol, [0.5, -0.5])

    def test_max_march_steps_ends_the_march(self, solutions, monkeypatch,
                                            capsys):
        b, _, sol = solutions("burgers_reciprocal")
        monkeypatch.setattr(domain, "MAX_MARCH_STEPS", 2)
        message = (r"path not ended after 2 steps, at \[0\.3, 0\.64\] "
                   r"\(0\.6 of it\)")
        with pytest.raises(PathLeftWindowError, match=f"^{message}"):
            contains(b.problem, b.data, sol, [0.5, 1.0])
        assert main(["query", "--problem",
                     str(problem_path("burgers_reciprocal")), "--t", "0.5",
                     "--x", "1.0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(f"^error: {message}", err[0])

    def test_staircase_retry_after_a_straight_path_fails(self, pipelines,
                                                         monkeypatch):
        b, sol, _, _, _, dom = pipelines("circular", 48)
        q = [0.5, 0.5]
        straight = contains(b.problem, b.data, sol, q)
        march = domain._march
        legs = []

        def fail_straight(sol, waypoints, u0):
            legs.append(len(waypoints) - 1)
            if len(legs) == 1:
                raise PathLeftWindowError("straight path cut")
            return march(sol, waypoints, u0)

        monkeypatch.setattr(domain, "_march", fail_straight)
        with pytest.raises(PathLeftWindowError, match="straight path cut"):
            contains(b.problem, b.data, sol, q)
        legs.clear()
        v = contains(b.problem, b.data, sol, q, domain=dom)
        assert legs[0] == 1 and legs[1] > 1
        assert v.kind == "inside"
        assert abs(v.u - straight.u) <= 1e-8
        assert v.at == tuple(q)
        # no staircase reaches the masked-off corner: the error stands
        legs.clear()
        with pytest.raises(PathLeftWindowError, match="straight path cut"):
            contains(b.problem, b.data, sol, [1.39, 1.39], domain=dom)
        assert legs == [1]

    def test_path_points_are_floats(self, solutions):
        b, _, sol = solutions("burgers_reciprocal")
        for q in ([0.5, 1.0], [2.0, 1.0]):
            v = contains(b.problem, b.data, sol, q)
            assert type(v.at) is tuple
            assert all(type(c) is float for c in v.at)


def same_as_the_reference(monkeypatch, problem, data, sol, points,
                          **kwargs):
    """contains and helpers.ref_contains, the query kept verbatim, at each
    point: the same verdict kind and the same u, F_u and place by repr, or
    the same exception type and message, after the same number of
    corrector calls.  Returns the kinds, exception names included."""
    calls = {}
    for module, name in ((domain, "_corrector"), (helpers, "ref_corrector")):
        def counted(*args, corrector=getattr(module, name), name=name):
            calls[name] += 1
            return corrector(*args)

        monkeypatch.setattr(module, name, counted)
    kinds = []
    for q in points:
        runs = []
        for query, name in ((contains, "_corrector"),
                            (helpers.ref_contains, "ref_corrector")):
            calls[name] = 0
            try:
                v = query(problem, data, sol, q, **kwargs)
                got = (v.kind, repr(v.u), repr(v.f_u), repr(v.at))
            except Exception as err:  # compared, not handled
                got = (type(err).__name__, str(err))
            runs.append((got, calls[name]))
        assert runs[0] == runs[1], q
        kinds.append(runs[0][0][0])
    return kinds


def cli_problem(tmp_path, doc):
    """(problem, data, solution) of a problem file's document."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    b = load_problem_bundle(path)
    return b.problem, b.data, implicit_solution_for_problem(
        b.problem, b.data, b.rho, b.f)[1]


class TestQueryReference:
    """The query against the one it replaced, kept verbatim in helpers:
    its per-step bookkeeping was cut, every rounding kept."""

    @pytest.mark.parametrize("name", helpers.EXAMPLES)
    def test_bundled_problems(self, name, solutions, monkeypatch):
        b, _, sol = solutions(name)
        points = face_points(b.problem, np.random.default_rng(27), 400)
        kinds = same_as_the_reference(monkeypatch, b.problem, b.data, sol,
                                      points)
        assert {"inside", "outside"} <= set(kinds)

    def test_base_points(self, solutions, monkeypatch):
        b, _, sol = solutions("burgers_reciprocal")
        rng = np.random.default_rng(28)
        lo, hi = b.data.interval
        for s in lo - 0.5 + rng.random(10) * (hi - lo + 1.0):
            points = face_points(b.problem, rng, 20)
            same_as_the_reference(monkeypatch, b.problem, b.data, sol,
                                  points, base_point=s)

    @pytest.mark.parametrize("a, h", helpers.GENERATED_LAWS)
    def test_generated_laws(self, a, h, monkeypatch):
        problem, data, sol = helpers.generated_law(a, h)
        points = face_points(problem, np.random.default_rng(29), 25)
        same_as_the_reference(monkeypatch, problem, data, sol, points)

    # the partly undefined F of sqrt, with queries that creep toward where
    # it is undefined, and the n = 0 fold of u' = 1/(2u)
    @pytest.mark.parametrize("doc, kind", [
        (SQRT_DATA, "PathLeftWindowError"), (N0_FOLD_DATA, "outside")])
    def test_problems_of_the_cli(self, doc, kind, tmp_path, monkeypatch):
        problem, data, sol = cli_problem(tmp_path, doc)
        points = face_points(problem, np.random.default_rng(30), 400)
        kinds = same_as_the_reference(monkeypatch, problem, data, sol,
                                      points)
        assert {"inside", kind} <= set(kinds)

    def test_a_staircase_retry(self, pipelines, monkeypatch):
        # both queries lose their straight path, so every verdict comes
        # from a march along the mask's staircase, or none reaches q
        b, sol, _, _, _, dom = pipelines("circular", 48)
        for module, name in ((domain, "_march"), (helpers, "ref_march")):
            def cut(sol, waypoints, u0, march=getattr(module, name)):
                if len(waypoints) == 2:
                    raise PathLeftWindowError("straight path cut")
                return march(sol, waypoints, u0)

            monkeypatch.setattr(module, name, cut)
        points = [[0.5, 0.5], *face_points(b.problem,
                                           np.random.default_rng(31), 30)]
        kinds = same_as_the_reference(monkeypatch, b.problem, b.data, sol,
                                      points, domain=dom)
        assert kinds[0] == "inside"
        assert {"outside", "PathLeftWindowError"} <= set(kinds)


class TestStaircase:
    def test_path_through_mask(self, pipelines):
        _, _, _, _, _, dom = pipelines("circular", 48)
        start = np.array([0.0, 0.0])
        goal = np.array([1.2, -1.2])
        waypoints = _staircase(dom, start, goal)
        assert waypoints is not None
        assert np.allclose(waypoints[0], start)
        assert np.allclose(waypoints[-1], goal)
        for w in waypoints[1:-1]:
            assert helpers.contains_cell(dom, w)

    def test_unreachable_returns_none(self, pipelines):
        _, _, _, _, _, dom = pipelines("circular", 48)
        assert _staircase(dom, np.array([0.0, 0.0]),
                          np.array([1.39, 1.39])) is None


class TestDump:
    def test_json_roundtrip_fields(self, pipelines):
        _, _, _, _, _, dom = pipelines("burgers_ramp", 48)
        doc = json.loads(dom.to_json())
        assert set(doc) == {"resolution", "mask", "boundary"}
        nmasked = sum(run[1] for row in doc["mask"]["rows"] for run in row)
        assert nmasked == int(np.count_nonzero(dom.mask))

    @pytest.mark.parametrize("shape", [(1,), (7,), (40,), (1, 1), (5, 1),
                                       (1, 9), (12, 17), (30, 64)])
    def test_mask_runs_match_the_cell_loop(self, shape):
        # random masks of every density, with an empty and a full row
        rng = np.random.default_rng(2020)
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            mask = rng.random(shape) < density
            if mask.ndim == 2 and shape[0] > 2:
                mask[0] = False
                mask[-1] = True
            axes = tuple(np.linspace(0.0, 1.0, k + 1) for k in shape)
            line = BoundaryPolyline("window", rng.random((3, len(shape))))
            doc = json.loads(MaximalDomain(8, axes, mask, [line]).to_json())
            assert doc["mask"]["rows"] == helpers.mask_runs_by_cells(mask)
            assert doc["boundary"] == [[float(c) for c in p]
                                       for p in line.points]

"""Norm, dilations, homogeneous planes, cones and graph extraction."""

import itertools
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scan_index import blowup_map

from parabgmt import geometry
from parabgmt.geometry import (
    CONE_BAND,
    Cone,
    ConeViolationError,
    DimensionMismatchError,
    GraphSamples,
    HomPlane,
    ParaPoint,
    blowup_rows,
    complement_plane,
    cone_gap_rows,
    cone_membership,
    dist_rows,
    dist_to_plane_rows,
    graph_cone_check,
    graph_extract,
    pair_blocks,
    para_norm,
    para_norm_rows,
    plane_distance,
    project,
    project_rows,
    sample_planes,
)

coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
small_coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
scale = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)


def point_strategy(n):
    return st.tuples(
        st.lists(small_coord, min_size=n, max_size=n), small_coord
    ).map(lambda xt: ParaPoint(np.array(xt[0]), xt[1]))


any_point = st.integers(1, 3).flatmap(point_strategy)


# ---------------------------------------------------------------------------
# Norm and metric


class TestNorm:
    def test_handpicked_values(self):
        assert para_norm(ParaPoint([3.0, 4.0], -25.0)) == pytest.approx(math.sqrt(50.0), abs=1e-15)
        assert para_norm(ParaPoint([0.0], 0.0)) == 0.0
        assert para_norm(ParaPoint([0.0], 4.0)) == 2.0
        assert para_norm(ParaPoint([0.0], -4.0)) == 2.0
        # time counts once, not squared
        assert para_norm(ParaPoint([1.0], 1e-8)) == pytest.approx(
            math.sqrt(1.0 + 1e-8), rel=1e-15
        )

    def test_rows_match_scalar(self):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((50, 4))
        rows = para_norm_rows(coords)
        for row, value in zip(coords, rows):
            assert para_norm(ParaPoint(row[:-1], row[-1])) == pytest.approx(value, rel=1e-15)

    @given(any_point)
    def test_split(self, p):
        assert para_norm(p) == pytest.approx(
            math.sqrt(float(p.x @ p.x) + abs(p.t)), rel=1e-12, abs=1e-12
        )

    @given(any_point, scale)
    def test_homogeneity(self, p, r):
        dilated = ParaPoint(r * p.x, r * r * p.t)
        assert para_norm(dilated) == pytest.approx(r * para_norm(p), rel=1e-12, abs=1e-12)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(point_strategy(n), point_strategy(n))))
    def test_triangle_inequality(self, pq):
        p, q = pq
        assert para_norm(p + q) <= para_norm(p) + para_norm(q) + 1e-9


class TestMetric:
    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dist_rows(ParaPoint([1.0], 0.0).coords(), ParaPoint([1.0, 0.0], 0.0))

    def test_dist_rows_both_metrics(self):
        coords = np.array([[1.0, 0.0], [0.0, 0.25], [3.0, -4.0]])
        d_par = dist_rows(coords, ParaPoint([0.0], 0.0))
        d_euc = dist_rows(coords, np.zeros(2), metric="euclidean")
        assert d_par == pytest.approx([1.0, 0.5, math.sqrt(13.0)])
        assert d_euc == pytest.approx([1.0, 0.25, 5.0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
    def test_dist_rows_broadcasts_a_stack_of_points(self, n, metric):
        pts = np.random.default_rng(n).standard_normal((7, n + 1))
        got = dist_rows(pts, pts[:4, None], metric)
        want = np.stack([dist_rows(pts, p, metric) for p in pts[:4]])
        assert got.shape == (4, 7)
        np.testing.assert_array_equal(got, want)
        assert dist_rows(pts[0], pts[1], metric) == want[1, 0]

    def test_dist_rows_refuses_rows_of_another_length(self):
        with pytest.raises(DimensionMismatchError):
            dist_rows(np.zeros((3, 3)), np.zeros(4))


def einsum_dist_rows(coords, p, metric="parabolic"):
    """dist_rows as one einsum over the (..., n) block of spatial
    differences: the formula the column form must reproduce bit for bit."""
    coords = np.asarray(coords, dtype=float)
    pc = np.asarray(p, dtype=float)
    dx = coords[..., :-1] - pc[..., :-1]
    dt = coords[..., -1] - pc[..., -1]
    d2 = np.einsum("...i,...i->...", dx, dx)
    return np.sqrt(d2 + np.abs(dt)) if metric == "parabolic" else np.sqrt(d2 + dt * dt)


def wide_floats(rng, shape):
    """Standard normal floats, whose sums of squares show the adding
    order in their last bits, with a third of the entries replaced by
    floats of exponents spread over 1e-170..1e170, so some squares
    underflow to subnormals or zero and some overflow, plus signed
    zeros."""
    x = rng.standard_normal(shape)
    wide = rng.random(shape) < 1 / 3
    x[wide] = (rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-170, 170, shape))[wide]
    x[rng.random(shape) < 0.05] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    # near 1e-160 the squares fall into the subnormals
    sub = rng.random(shape) < 0.1
    x[sub] = rng.uniform(-1e-160, 1e-160, shape)[sub]
    return x


def einsum_squares(block):
    return np.einsum("...i,...i->...", block, block)


class TestSumSquares:
    """_sum_squares over columns has the bits of einsum over the block."""

    # k <= 7 takes the even/odd column sums, k >= 8 einsum's own order
    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("shape", [(300,), (3, 200)])
    def test_matches_einsum(self, k, shape):
        rng = np.random.default_rng(k)
        block = wide_floats(rng, (*shape, k))
        with np.errstate(over="ignore", under="ignore"):
            got = geometry._sum_squares([block[..., j] for j in range(k)])
            assert bits_equal(got, einsum_squares(block))

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("shape", [(300,), (3, 200)])
    def test_out_buffer_matches_einsum(self, k, shape):
        # the sum is written into out, whatever out held before
        rng = np.random.default_rng(300 + k)
        block = wide_floats(rng, (*shape, k))
        out = np.full(shape, np.nan)
        with np.errstate(over="ignore", under="ignore"):
            got = geometry._sum_squares([block[..., j] for j in range(k)], out=out)
            assert got is out
            assert bits_equal(out, einsum_squares(block))
            # columns of one row each, broadcast to out, as the k = 0
            # projection's +0.0 columns are
            geometry._sum_squares([block[0, ..., j] for j in range(k)], out=out)
            assert bits_equal(out, np.broadcast_to(einsum_squares(block[0]), shape))

    @pytest.mark.parametrize("k", range(1, 13))
    @pytest.mark.parametrize("none", ["even", "odd", "all", "random"])
    def test_none_columns_are_positive_zeros(self, k, none):
        # a None column has the bits of a +0.0 column in einsum's block,
        # with and without out
        rng = np.random.default_rng(600 + k)
        block = wide_floats(rng, (3, 200, k))
        skip = {"even": np.arange(k) % 2 == 0, "odd": np.arange(k) % 2 == 1,
                "all": np.ones(k, bool), "random": rng.random(k) < 0.5}[none]
        cols = [None if skip[j] else block[..., j] for j in range(k)]
        block[..., skip] = 0.0
        want = einsum_squares(block)
        out = np.full(want.shape, np.nan)
        with np.errstate(over="ignore", under="ignore"):
            got = geometry._sum_squares(cols)
            assert geometry._sum_squares(cols, out=out) is out
        assert bits_equal(out, want)
        if skip.all():  # no column to take a shape from
            assert np.shape(got) == () and bits_equal(np.broadcast_to(got, want.shape), want)
        else:
            assert bits_equal(got, want)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_einsum_on_broadcast_differences(self, k):
        # a (K, 1, k) stack against (N, k) rows, as dist_rows takes them
        rng = np.random.default_rng(100 + k)
        a, b = wide_floats(rng, (5, 1, k)), wide_floats(rng, (40, k))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            got = geometry._sum_squares([a[..., j] - b[..., j] for j in range(k)])
            assert bits_equal(got, einsum_squares(a - b))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_einsum_on_one_row(self, k):
        row = wide_floats(np.random.default_rng(200 + k), (k,))
        with np.errstate(over="ignore", under="ignore"):
            got = np.float64(geometry._sum_squares([row[..., j] for j in range(k)]))
            assert got.view(np.uint64) == np.float64(einsum_squares(row)).view(np.uint64)

    def test_left_to_right_order_differs_at_three_columns(self):
        # b^2 = 1 and a^2 = c^2 = 1.125 * 2^-53, just over half an ulp of
        # 1: einsum adds a^2 + c^2 first and rounds once, to 1 + 2^-52;
        # a left-to-right sum rounds up twice, to 1 + 2^-51
        a = 3.0 * 2.0**-28
        cols = [np.array([a]), np.array([1.0]), np.array([a])]
        left_to_right = (a * a + 1.0) + a * a
        want = einsum_squares(np.array([[a, 1.0, a]]))
        assert want[0] == 1.0 + 2.0**-52 and left_to_right == 1.0 + 2.0**-51
        assert bits_equal(geometry._sum_squares(cols), want)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
    def test_dist_rows_matches_the_einsum_formula(self, n, metric):
        rng = np.random.default_rng(300 + n)
        pts = rng.standard_normal((500, n + 1)) * 10.0 ** rng.uniform(-80, 80, (500, n + 1))
        pts[:50] = wide_floats(rng, (50, n + 1))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for p in (pts[7], pts[:6, None], ParaPoint(pts[3, :-1], pts[3, -1])):
                pc = p.coords() if isinstance(p, ParaPoint) else p
                assert bits_equal(dist_rows(pts, p, metric), einsum_dist_rows(pts, pc, metric))
            one = dist_rows(pts[0], pts[1], metric)
            assert np.float64(one).view(np.uint64) == np.float64(
                einsum_dist_rows(pts[0], pts[1], metric)).view(np.uint64)


def reference_projection(basis, x):
    """The horizontal projection of one row x in plain Python floats:
    xi_j = sum_c B[j, c] x_c, then px_c = sum_j xi_j B[j, c], each sum
    in ascending index order from +0.0, the order _project_cols states."""
    basis = basis.tolist()
    xi = []
    for row in basis:
        acc = 0.0
        for b, v in zip(row, x):
            acc += b * v
        xi.append(acc)
    px = []
    for c in range(len(x)):
        acc = 0.0
        for row, v in zip(basis, xi):
            acc += v * row[c]
        px.append(acc)
    return px


def reference_sum_squares(vals):
    """_sum_squares of up to 7 floats: even-indexed squares, odd-indexed
    squares, then even + odd."""
    even = vals[0] * vals[0]
    for v in vals[2::2]:
        even += v * v
    if len(vals) == 1:
        return even
    odd = vals[1] * vals[1]
    for v in vals[3::2]:
        odd += v * v
    return even + odd


def reference_parts(V, q):
    """(P_V q, P_{V perp} q, ||P_{V perp} q||) of one row, in Python floats."""
    x, t = q[:-1].tolist(), float(q[-1])
    px = reference_projection(V.horiz_basis, x)
    perp = [a - b for a, b in zip(x, px)]
    if V.includes_t_axis:
        return px + [t], perp + [0.0], math.sqrt(reference_sum_squares(perp))
    return px + [0.0], perp + [t], math.sqrt(reference_sum_squares(perp) + abs(t))


def kernel_planes(rng, n):
    """Random frames of both families, and axis planes spanned by negated
    axes, whose bases hold -1.0 and -0.0."""
    planes = [random_plane(rng, n, f) for f in ("horizontal", "vertical") for _ in range(6)]
    planes.append(HomPlane(n, -np.eye(n)[: n // 2 + 1], False))
    if n > 1:
        planes.append(HomPlane(n, -np.eye(n)[1:], True))
    return planes


class TestProjectCols:
    """project_rows and dist_to_planes_rows through the column kernel: the
    bits of the stated adding order, whatever the rows around a row."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_python_reference(self, n):
        rng = np.random.default_rng(400 + n)
        planes = kernel_planes(rng, n)
        X = wide_floats(rng, (60, n + 1))
        X[:4] = np.where(rng.random((4, n + 1)) < 0.5, -0.0, 0.0)  # signed zeros only
        with np.errstate(over="ignore", under="ignore"):
            dist = geometry.dist_to_planes_rows(planes, X)
            for V, drow in zip(planes, dist):
                onto, comp = project_rows(V, X), project_rows(V, X, "complement")
                want = [reference_parts(V, q) for q in X]
                assert bits_equal(onto, np.array([w[0] for w in want]))
                assert bits_equal(comp, np.array([w[1] for w in want]))
                assert bits_equal(drow, np.array([w[2] for w in want]))

    def test_sums_start_from_positive_zero(self):
        # on (-0.0, -5) both products B[0, c] x_c of the axis (1, 0) are
        # -0.0: summed from +0.0 they give +0.0, else -0.0 and a
        # complement of +0.0 in the first column
        V = HomPlane.horizontal_axes(2, (0,))
        q = np.array([-0.0, -5.0, 1.0])
        assert bits_equal(project_rows(V, q), np.zeros((1, 3)))
        assert bits_equal(project_rows(V, q, "complement"), q[None])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("plane", [
        HomPlane.horizontal_axes(2, (0,)),
        HomPlane.vertical_axes(2, (1,)),
        HomPlane(2, [[0.6, 0.8]], False),
    ])
    def test_non_finite_points_are_refused(self, bad, plane):
        # over the x1-axis, [inf, 0, 0] warned in the subtraction and gave
        # a NaN complement; over a rotated basis the projection itself was
        # NaN, as inf * 0.0 is
        for q in ([[bad, 0.0, 0.0]], [[0.0, 1.0, 0.0], [0.0, 0.0, bad]]):
            for part in ("onto", "complement"):
                with pytest.raises(ValueError, match="^points must be finite$"):
                    project_rows(plane, q, part)
                with pytest.raises(ValueError, match="^points must be finite$"):
                    geometry.project(plane, np.asarray(q[-1]), part)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("family", ["horizontal", "vertical"])
    def test_rows_do_not_depend_on_the_row_count(self, n, family):
        # a one-row product once went to another BLAS kernel than a
        # batched one, and its distances differed in the last bits
        rng = np.random.default_rng(500 + n)
        planes = [random_plane(rng, n, family) for _ in range(50)]
        X = rng.standard_normal((8, n + 1)) * rng.uniform(1e-3, 1e3, (8, 1))
        dist = geometry.dist_to_planes_rows(planes, X)
        for r, q in enumerate(X):
            assert bits_equal(dist[:, r], geometry.dist_to_planes_rows(planes, q)[:, 0])
        for V in planes:
            for part in ("onto", "complement"):
                full = project_rows(V, X, part)
                for r, q in enumerate(X):
                    assert bits_equal(full[r], project_rows(V, q, part)[0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9])
    @pytest.mark.parametrize("shape", [(40,), (5, 8)])
    def test_coordinate_bases_match_the_dense_multiply_add(self, n, shape):
        # coordinate and negated-axis bases hold only 0.0 and +-1.0
        # weights, which the kernel multiplies like any other; with 8 or
        # more columns _sum_squares stacks them, so a column the basis
        # leaves out must come back as an array of the row shape
        rng = np.random.default_rng(700 + n)
        planes = [V for m in range(1, n + 2) for V in geometry.candidate_planes(n, m)]
        for V in planes[:: max(1, len(planes) // 40)]:
            signs = rng.choice([-1.0, 1.0], (V.k, 1))
            planes.append(HomPlane(n, signs * V.horiz_basis, V.includes_t_axis))
        cols = list(kernel_floats(rng, (n, *shape)))
        for V in planes:
            got = geometry._project_cols(V.horiz_basis, cols)
            want = dense_project_cols(V.horiz_basis, cols)
            assert len(got) == n
            for g, w in zip(got, want):
                assert bits_equal(np.asarray(g), np.asarray(w))
            if V.k:
                out = np.empty(shape)
                with np.errstate(over="ignore", under="ignore"):
                    assert geometry._sum_squares(got, out=out) is out
                    want2 = einsum_squares(np.stack(want, -1))
                    assert bits_equal(geometry._sum_squares(got), want2)
                assert bits_equal(out, want2)


def kernel_floats(rng, shape):
    """Floats of every kind the projection kernel must keep: signed
    zeros, subnormals, values near 1e300 and plain normal floats."""
    kinds = [
        np.zeros(shape),
        np.full(shape, -0.0),
        rng.choice([-1.0, 1.0], shape) * 5e-324 * rng.integers(1, 2**20, shape),
        rng.uniform(-1.0, 1.0, shape) * 2.2250738585072014e-308,
        rng.uniform(-1.7, 1.7, shape) * 1e300,
        rng.standard_normal(shape),
    ]
    return np.choose(rng.integers(0, len(kinds), shape), kinds)


def dense_project_cols(basis, cols):
    """_project_cols restated in the test: every term multiplied and
    added, from +0.0, in ascending index order."""
    def dot(weights, terms):
        if not terms:
            return 0.0
        acc = weights[..., 0] * terms[0]
        acc += 0.0
        for c in range(1, len(terms)):
            acc += weights[..., c] * terms[c]
        return acc

    k, n = basis.shape
    basis = basis.reshape((1,) * np.ndim(cols[0]) + (k, n))
    xi = [dot(basis[..., j, :], cols) for j in range(k)]
    return [dot(basis[..., :, c], xi) for c in range(n)]


class TestDilation:
    def test_blowup_map_oracle(self):
        a = ParaPoint([1.0], 2.0)
        p = ParaPoint([1.5], 2.25)
        q = blowup_map(a, 0.5, p)
        assert q.x == pytest.approx([1.0])
        assert q.t == pytest.approx(1.0)

    @pytest.mark.parametrize("r", [1e-320, 5e-324, 1e-163])
    def test_blowup_scale_whose_square_underflows_is_refused(self, r):
        # r * r is 0.0: the time column was divided by zero, and 0 / 0
        # warned and gave NaN
        with pytest.raises(ValueError, match=rf"^blow-up scale r={r!r} is too small: r \* r underflows to 0.0$"):
            blowup_rows(np.zeros(3), r, np.zeros((2, 3)))
        # the smallest scale whose square is a float still blows up
        r = 2.0**-537
        assert r * r > 0.0
        out = blowup_rows(np.zeros(3), r, np.array([[0.0, 0.0, 0.0], [r, 0.0, r * r]]))
        assert out.tolist() == [[0.0, 0.0, 0.0], [1.0, 0.0, 1.0]]

    def test_blowup_rows_matches_map(self):
        rng = np.random.default_rng(1)
        coords = rng.standard_normal((20, 3))
        a = ParaPoint(rng.standard_normal(2), 0.3)
        rows = blowup_rows(a, 0.7, coords)
        for row, out in zip(coords, rows):
            img = blowup_map(a, 0.7, ParaPoint(row[:-1], row[-1]))
            assert out == pytest.approx(img.coords(), rel=1e-14, abs=1e-14)

    @given(any_point, scale, scale)
    def test_composition_at_origin(self, p, r, s):
        zero = ParaPoint(np.zeros(p.n), 0.0)
        two = blowup_map(zero, r, blowup_map(zero, s, p))
        one = blowup_map(zero, r * s, p)
        assert two.coords() == pytest.approx(one.coords(), rel=1e-9, abs=1e-9)

    # p.t - a.t and q.t - a.t both round to 0.5, so the blown-up t
    # difference is lost: 0 against 1.24e-12, and 1.6e-9 off by 2e-15
    @example(pq=(ParaPoint([0.0], 0.0), ParaPoint([0.0], 9.3e-29)), r=2.0**-7)
    @example(pq=(ParaPoint([0.0], 0.0), ParaPoint([0.0], 1e-10)), r=0.25)
    @given(pq=st.integers(1, 3).flatmap(lambda n: st.tuples(point_strategy(n), point_strategy(n))),
           r=scale)
    def test_blowup_scales_distances(self, pq, r):
        """d(T p, T q) = d(p, q) / r for T = T_{a,r}, up to rounding.

        With u = 2^-53, T p = ((p.x - a.x) / r, (p.t - a.t) / r^2) takes
        two roundings per x coordinate and three in t, so it is off by
        e_p with |e_p| <= 3u |p.x - a.x| / r in x and by f_p with
        |f_p| <= 4u |p.t - a.t| / r^2 in t (first order, with slack).
        Let L and R be the exact distances of the perturbed and exact
        differences (X + e, T + f) and (X, T).  Then
        L^2 - R^2 = |X + e|^2 - |X|^2 + |T + f| - |T|, which is at most
        |e| (L + R) + |f| in size, so |L - R| <= |e| + |f| / (L + R);
        also |L - R| <= |e| + sqrt(|f|).  The computed lhs and rhs are
        within a few u of L and R, which the factor 2 on |f| / (L + R)
        and the 32u max(lhs, rhs) term absorb.  So the gap is at most
        |e_p| + |e_q| + min(sqrt(F), 2F / (lhs + rhs)) + 32u max(lhs, rhs)
        with F = |f_p| + |f_q|.
        """
        p, q = pq
        a = ParaPoint(np.ones(p.n), -0.5)
        u = 2.0**-53
        lhs = float(dist_rows(blowup_map(a, r, p).coords(), blowup_map(a, r, q)))
        rhs = float(dist_rows(p.coords(), q)) / r
        ex = 3 * u * (np.linalg.norm(p.x - a.x) + np.linalg.norm(q.x - a.x)) / r
        ft = 4 * u * (abs(p.t - a.t) + abs(q.t - a.t)) / r**2
        ft_gap = math.sqrt(ft) if lhs + rhs == 0 else min(math.sqrt(ft), 2 * ft / (lhs + rhs))
        assert abs(lhs - rhs) <= ex + ft_gap + 32 * u * max(lhs, rhs)


# ---------------------------------------------------------------------------
# Homogeneous planes


class TestHomPlane:
    def test_constructors_and_dimensions(self):
        h = HomPlane.horizontal_axes(3, (0, 2))
        assert (h.k, h.m, h.family) == (2, 2, "horizontal")
        v = HomPlane.vertical_axes(3, (1,))
        assert (v.k, v.m, v.family) == (1, 3, "vertical")
        t = HomPlane.t_axis(2)
        assert (t.k, t.m, t.family) == (0, 2, "vertical")

    def test_validation(self):
        with pytest.raises(ValueError):
            HomPlane(2, [[1.0, 1.0]], False)  # not unit length
        with pytest.raises(ValueError):
            HomPlane(2, [[1.0, 0.0], [1.0, 0.0]], False)  # not orthogonal
        with pytest.raises(ValueError):
            HomPlane(2, np.eye(2), True)  # full vertical plane is the whole space
        with pytest.raises(ValueError):
            HomPlane(2, np.zeros((0, 2)), False)  # empty horizontal plane
        with pytest.raises(ValueError, match="^axis -1 out of range for n=2$"):
            HomPlane.horizontal_axes(2, (-1,))
        with pytest.raises(ValueError, match="^axis 5 out of range for n=2$"):
            HomPlane.vertical_axes(2, (0, 5))

    def test_dict_roundtrip(self):
        basis = np.array([[3.0, 4.0]]) / 5.0
        V = HomPlane(2, basis, True)
        W = HomPlane.from_dict(V.to_dict())
        assert W == V
        assert W.m == V.m and W.includes_t_axis

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_coordinate_planes_report_their_axes(self, n):
        for m in range(1, n + 2):
            want = list(itertools.combinations(range(n), m))
            want += list(itertools.combinations(range(n), m - 2)) if m >= 2 else []
            planes = geometry.candidate_planes(n, m)
            assert [V.axes for V in planes] == want
            for V in planes:
                d = V.to_dict()
                assert "axes" not in d and HomPlane.from_dict(d).axes == V.axes
        assert HomPlane.horizontal_axes(3, (2, 0)).axes == (2, 0)
        assert HomPlane.t_axis(n).axes == ()

    def test_other_bases_report_no_axes(self):
        c, s = math.cos(0.3), math.sin(0.3)
        assert HomPlane(2, [[c, s]], False).axes is None
        assert HomPlane(3, [[1.0, 0.0, 0.0], [0.0, c, s]], True).axes is None
        assert HomPlane(2, [[-1.0, 0.0]], False).axes is None
        assert HomPlane(3, [[0.0, 1.0, 0.0], [-0.0, -0.0, -1.0]], False).axes is None
        # a row of +1.0 and -0.0 entries is still a coordinate row
        assert HomPlane(3, [[-0.0, 1.0, -0.0]], False).axes == (1,)


class TestProjection:
    def test_projection_fixes_plane_points(self):
        V = HomPlane.vertical_axes(2, (1,))
        p = ParaPoint([0.0, 0.7], -2.0)
        assert project(V, p).coords() == pytest.approx(p.coords())
        assert para_norm(project(V, p, "complement")) == pytest.approx(0.0, abs=1e-15)

    def test_horizontal_projection_drops_time(self):
        V = HomPlane.horizontal_axes(2, (0,))
        p = ParaPoint([0.5, 0.3], 4.0)
        q = project(V, p)
        assert q.coords() == pytest.approx([0.5, 0.0, 0.0])
        # the complement of a horizontal plane keeps the time part
        c = project(V, p, "complement")
        assert c.coords() == pytest.approx([0.0, 0.3, 4.0])

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), point_strategy(n))))
    def test_projection_row_contraction(self, np_pair):
        n, p = np_pair
        for m in range(1, n + 2):
            for V in sample_planes(n, m, 3, 11):
                row = p.coords()[None, :]
                assert para_norm_rows(project_rows(V, row))[0] <= para_norm(p) * (1 + 1e-12) + 1e-12

    def test_complement_pythagoras(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            D = rng.standard_normal((40, n + 1))
            for m in range(1, n + 2):
                for V in sample_planes(n, m, 4, 5):
                    W = complement_plane(V)
                    lhs = dist_to_plane_rows(V, D) ** 2 + dist_to_plane_rows(W, D) ** 2
                    assert lhs == pytest.approx(para_norm_rows(D) ** 2, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_batched_plane_distances_match_projection_bit_for_bit(self, n):
        # reference: one plane at a time through the complement projection
        # and the row norm, the formula the batched product replaced
        rng = np.random.default_rng(n)
        planes = [V for m in range(1, n + 2) for V in sample_planes(n, m, 7, n)]
        planes += [HomPlane.t_axis(n), HomPlane.horizontal_axes(n, range(n))]
        planes = [planes[i] for i in rng.permutation(len(planes))]
        families = {(V.k, V.includes_t_axis) for V in planes}
        assert (0, True) in families and any(not flag for _, flag in families)
        for npts in (1, 2, 9, 500):
            X = rng.standard_normal((npts, n + 1)) * rng.uniform(1e-3, 1e3, (npts, 1))
            got = geometry.dist_to_planes_rows(planes, X)
            assert got.shape == (len(planes), npts)
            for V, row in zip(planes, got):
                want = para_norm_rows(project_rows(V, X, "complement"))
                np.testing.assert_array_equal(row.view(np.uint64), want.view(np.uint64))
                one = dist_to_plane_rows(V, X)
                np.testing.assert_array_equal(one.view(np.uint64), want.view(np.uint64))

    def test_batched_plane_distances_shapes(self):
        V = HomPlane.vertical_axes(2, (0,))
        assert geometry.dist_to_planes_rows([], np.zeros((4, 3))).shape == (0, 4)
        assert geometry.dist_to_planes_rows([V, V], np.zeros((0, 3))).shape == (2, 0)
        assert dist_to_plane_rows(V, np.array([0.3, 0.4, -1.0])) == pytest.approx([0.4])
        with pytest.raises(DimensionMismatchError):
            geometry.dist_to_planes_rows([V, HomPlane.t_axis(1)], np.zeros((3, 3)))

    def test_complement_involution(self):
        V = HomPlane.horizontal_axes(3, (0, 1))
        W = complement_plane(complement_plane(V))
        assert plane_distance(V, W) <= 1e-12
        T = HomPlane.t_axis(2)
        C = complement_plane(T)
        assert C.family == "horizontal" and C.k == 2


class TestPlaneDistance:
    def test_identity_and_symmetry(self):
        V = HomPlane.horizontal_axes(2, (0,))
        W = HomPlane.horizontal_axes(2, (1,))
        assert plane_distance(V, V) == 0.0
        assert plane_distance(V, W) == pytest.approx(1.0)
        assert plane_distance(V, W) == plane_distance(W, V)

    def test_small_tilt_is_small(self):
        V = HomPlane.horizontal_axes(2, (0,))
        basis = np.array([[1.0, 0.1]])
        basis /= np.linalg.norm(basis)
        W = HomPlane(2, basis, False)
        d = plane_distance(V, W)
        assert 0.0 < d < 0.15

    def test_cross_family_floor(self):
        V = HomPlane.horizontal_axes(1, (0,))
        W = HomPlane.t_axis(1)
        assert plane_distance(V, W) >= 1.0

    def test_sample_planes_contract(self):
        planes = sample_planes(2, 2, 9, 3)
        assert len(planes) == 9
        assert all(V.m == 2 for V in planes)
        again = sample_planes(2, 2, 9, 3)
        assert all(plane_distance(a, b) == 0.0 for a, b in zip(planes, again))
        with pytest.raises(ValueError):
            sample_planes(1, 3, 4, 0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            sample_planes(2, 1, 8, -1)
        # past the 4 canonical planes of P(3, 2), frames drawn by
        # default_rng(seed) alternate with the cycled t-axis
        drawn = sample_planes(3, 2, 9, 3)[4:]
        assert [V.includes_t_axis for V in drawn] == [False, True, False, True, False]
        frames = geometry.orthonormal_frames(
            np.random.default_rng(3).standard_normal((5, 3, 2)))[0]
        assert_same_bits([V.horiz_basis for V in drawn[::2]], list(frames[:3]))


# ---------------------------------------------------------------------------
# Cones


class TestCone:
    def test_aperture_validation(self):
        # every cone helper refuses an aperture outside (0, 1) alike
        V = HomPlane.t_axis(1)
        vertex = ParaPoint([0.0], 0.0)
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        for bad in (0.0, 1.0, -0.3, 2.0, math.nan):
            for call in (lambda: Cone(vertex, V, bad),
                         lambda: graph_cone_check(pts, V, bad),
                         lambda: graph_extract(pts, V, bad)):
                with pytest.raises(ValueError, match=r"^aperture must lie in \(0, 1\)$"):
                    call()

    def test_membership_oracle(self):
        # around the t-axis of P^1 the perpendicular part of (x, t) is |x|
        c = Cone(ParaPoint([0.0], 0.0), HomPlane.t_axis(1), 0.5)
        assert cone_membership(c, ParaPoint([1.0], 0.0)) == "outside"
        assert cone_membership(c, ParaPoint([0.1], 0.99)) == "inside"
        # |x| = s ||(x,t)|| exactly: x = 0.5, t = 0.75
        assert cone_membership(c, ParaPoint([0.5], 0.75)) == "boundary"
        assert cone_membership(c, ParaPoint([0.0], 0.0)) == "boundary"

    def test_gap_rows_formula(self):
        V = HomPlane.t_axis(1)
        D = np.array([[1.0, 0.0], [0.1, 0.99], [0.5, 0.75]])
        gap = cone_gap_rows(V, 0.5, D)
        manual = np.abs(D[:, 0]) - 0.5 * para_norm_rows(D)
        assert gap == pytest.approx(manual, abs=1e-15)

    @given(point_strategy(2), st.floats(1.01, 5.0))
    def test_dilation_invariance(self, q, r):
        # cones with vertex 0 are dilation invariant away from the band
        V = HomPlane.horizontal_axes(2, (0,))
        c = Cone(ParaPoint([0.0, 0.0], 0.0), V, 0.4)
        label = cone_membership(c, q)
        gap = float(cone_gap_rows(V, 0.4, q.coords()[None, :])[0])
        if abs(gap) > 1e-6:  # keep clear of the boundary band
            assert cone_membership(c, ParaPoint(r * q.x, r * r * q.t)) == label


def random_plane(rng, n, family):
    """A homogeneous plane of P^n in the given family with a random frame."""
    k = int(rng.integers(1, n + 1)) if family == "horizontal" else int(rng.integers(0, n))
    frame = np.linalg.qr(rng.standard_normal((n, k)))[0].T if k else np.zeros((0, n))
    return HomPlane(n, frame, family == "vertical")


# rows per pair tile: one, several, and all rows in a single tile
tile_rows = st.sampled_from([1, 3, 10**6])


def test_pair_blocks_cover_each_pair_once_in_order():
    rng = np.random.default_rng(3)
    for npts, budget in ((0, 8), (1, 8), (2, 8), (9, 1), (9, 20), (9, 81), (40, 100)):
        pts = rng.standard_normal((npts, 3))
        img = rng.standard_normal((npts, 2))
        pairs = []
        # the blocks share their buffers, so each is read before the next
        with mock.patch.object(geometry, "PAIR_TILE", budget):
            for lo, upper, diffs in pair_blocks(pts, img):
                assert upper.size and upper.size <= max(budget, npts)
                assert [len(d) for d in diffs] == [3, 2]
                a, b = np.nonzero(upper)
                i, j = a + lo, b + lo + 1
                assert np.all(j > i)
                # the masked entries are exactly those with j <= i
                assert upper.sum() == sum(npts - 1 - k for k in range(lo, lo + upper.shape[0]))
                for arr, cols in zip((pts, img), diffs):
                    for c, col in enumerate(cols):
                        assert col.shape == upper.shape
                        np.testing.assert_array_equal(col[upper], arr[j, c] - arr[i, c])
                pairs += zip(i.tolist(), j.tolist())
        assert pairs == [(i, j) for i in range(npts) for j in range(i + 1, npts)]


def test_tile_slices_split_in_order_within_the_budget():
    for count, width, budget, step in ((0, 5, 8, 1), (7, 0, 3, 3), (7, 5, 8, 1),
                                       (7, 2, 6, 3), (7, 1, 100, 100)):
        with mock.patch.object(geometry, "PAIR_TILE", budget):
            slices = list(geometry.tile_slices(count, width))
        assert [i for sl in slices for i in range(count)[sl]] == list(range(count))
        assert all(sl.stop - sl.start == min(step, count - sl.start) for sl in slices)


class TestGraphConeCheck:
    def test_non_finite_row_is_refused(self):
        # no violating pair named the NaN row, so the cloud passed
        pts = np.array([[0.0, 0.0], [np.nan, 0.5], [1.0, 1.0], [3.0, 0.0]])
        with pytest.raises(ValueError, match="points must be finite"):
            graph_cone_check(pts, HomPlane.horizontal_axes(1, (0,)), 0.5)

    @pytest.mark.parametrize("pts", [
        # the pair difference overflows to inf, and perp - s ||d|| was
        # inf - inf = NaN, which read as inside the cone
        [(1e308, 1.0, 0.0), (-1e308, 1.0, 0.0), (0.0, 0.0, 0.0)],
        # a 1e200 spread off the plane: the difference is finite, its square not
        [(1e200, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 1.0, 0.0)],
        # the time difference overflows
        [(0.0, 0.0, 1e308), (0.0, 0.0, -1e308), (1.0, 0.0, 0.0)],
    ])
    @pytest.mark.parametrize("check", [graph_cone_check, graph_extract])
    def test_overflowing_pair_distances_are_refused(self, pts, check):
        # refused before any overflow warns, over the x2-axis and the x1-axis
        for V in (HomPlane.horizontal_axes(2, (1,)), HomPlane.horizontal_axes(2, (0,))):
            with pytest.raises(ValueError, match="^points lie too far apart: their pair distances overflow$"):
                check(pts, V, 0.5)

    def test_extract_refuses_the_spread_before_it_projects(self):
        # the spread overflows, and so did the projection onto (0.6, 0.8),
        # which graph_extract took before the cone sweep checked the spread
        pts = [(1.5e308, 1.5e308, 0.0), (1.5e308, 1.5e308, 0.5), (1.5e308, 1.4999999999e308, 0.0)]
        with pytest.raises(ValueError, match="^points lie too far apart: their pair distances overflow$"):
            graph_extract(pts, HomPlane(2, [[0.6, 0.8]], False), 0.9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_coordinate_arrays_are_finite(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            geometry.as_coord_array([[0.0, 0.0], [1.0, bad]], 1)

    def _sqrt_cloud(self, L, lo=0.0):
        t = np.linspace(lo, 1.0, 400)
        return np.column_stack([L * np.sqrt(t), t])

    def test_sqrt_graph_threshold(self):
        # for x = L sqrt(t) the pair ratio perp / distance peaks at
        # L / sqrt(1 + L^2) = 0.28735 (pairs through the origin)
        pts = self._sqrt_cloud(0.3)
        V = HomPlane.t_axis(1)
        assert graph_cone_check(pts, V, 0.29) == []
        bad = graph_cone_check(pts, V, 0.28)
        assert len(bad) > 0
        i, j = bad[0]
        assert 0 <= i < j < len(pts)

    def test_horizontal_family(self):
        # y = 0.2 x over the x-axis of P^2, t identically zero
        x = np.linspace(-1.0, 1.0, 300)
        pts = np.column_stack([x, 0.2 * x, np.zeros_like(x)])
        V = HomPlane.horizontal_axes(2, (0,))
        s_crit = 0.2 / math.sqrt(1.04)
        assert graph_cone_check(pts, V, s_crit + 0.01) == []
        assert len(graph_cone_check(pts, V, s_crit - 0.01)) > 0

    def test_extract_roundtrip_and_bound(self):
        pts = self._sqrt_cloud(0.3)
        V = HomPlane.t_axis(1)
        res = graph_extract(pts, V, 0.4)
        assert res.lipschitz_bound == pytest.approx(0.4 / math.sqrt(1 - 0.16), rel=1e-12)
        assert res.empirical_ratio <= res.lipschitz_bound + 1e-9
        back = res.graph.base + res.graph.values
        assert np.sort(back, axis=0) == pytest.approx(np.sort(pts, axis=0), abs=1e-12)

    def test_extract_rejects_violations(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])  # same t, far x: not a graph over t
        with pytest.raises(ConeViolationError):
            graph_extract(pts, HomPlane.t_axis(1), 0.5)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), family=st.sampled_from(["horizontal", "vertical"]),
           npts=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
           s=st.floats(0.05, 0.95), scale=st.sampled_from([1e-6, 1.0, 1e3]), rows=tile_rows)
    def test_check_matches_cone_membership(self, n, family, npts, seed, s, scale, rows):
        rng = np.random.default_rng(seed)
        V = random_plane(rng, n, family)
        pts = scale * rng.standard_normal((npts, n + 1))
        if npts > 2:
            pts[-1] = pts[0]  # a repeated point sits on the cone boundary
        ppts = [ParaPoint.from_coords(p) for p in pts]
        want = [
            (i, j)
            for i in range(npts)
            for j in range(i + 1, npts)
            if cone_membership(Cone(ppts[i], V, s), ppts[j]) == "outside"
        ]
        with mock.patch.object(geometry, "PAIR_TILE", rows * max(npts, 1)):
            assert graph_cone_check(pts, V, s) == want

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), family=st.sampled_from(["horizontal", "vertical"]),
           npts=st.integers(2, 30), seed=st.integers(0, 2**32 - 1), rows=tile_rows)
    def test_extract_ratio_matches_double_loop(self, n, family, npts, seed, rows):
        # a random cloud thinned until it is a graph with cone aperture 0.9
        rng = np.random.default_rng(seed)
        V = random_plane(rng, n, family)
        pts = rng.standard_normal((npts, n + 1))
        while bad := graph_cone_check(pts, V, 0.9):
            pts = np.delete(pts, bad[0][1], axis=0)
        with mock.patch.object(geometry, "PAIR_TILE", rows * npts):
            res = graph_extract(pts, V, 0.9)
        pts = np.unique(pts, axis=0)
        pairs = [ParaPoint.from_coords(pts[j] - pts[i])
                 for i in range(len(pts)) for j in range(i + 1, len(pts))]
        want = max((para_norm(project(V, d, "complement")) / para_norm(project(V, d))
                    for d in pairs), default=0.0)
        assert res.empirical_ratio == pytest.approx(want, rel=1e-14)

    def test_extract_ratio_far_from_the_origin(self):
        # x2 = 0.1 x1 over a tilted axis of P^2, shifted by 1e6 along it:
        # differences of separately projected points cancelled and gave
        # 0.10000000108576154, some 1.6e7 ulps off
        u = np.array([math.cos(0.3), math.sin(0.3)])
        v = np.array([-math.sin(0.3), math.cos(0.3)])
        x = np.linspace(-1.0, 1.0, 21)
        pts = np.column_stack([(1e6 + x)[:, None] * u + (0.1 * x)[:, None] * v, np.zeros(21)])
        V = HomPlane(2, u[None], False)
        got = graph_extract(pts, V, 0.5).empirical_ratio
        # the exact ratio of these float points and this float frame
        b = [Fraction(c) for c in V.horiz_basis[0]]
        bb = b[0] * b[0] + b[1] * b[1]
        worst = Fraction(0)
        for i, j in itertools.combinations(range(len(pts)), 2):
            d = [Fraction(q) - Fraction(p) for p, q in zip(pts[i], pts[j])]
            c = d[0] * b[0] + d[1] * b[1]
            perp2 = (d[0] - c * b[0]) ** 2 + (d[1] - c * b[1]) ** 2 + abs(d[2])
            worst = max(worst, perp2 / (c * c * bb))
        scale = 2**120
        want = math.isqrt(worst.numerator * scale**2 // worst.denominator) / scale
        assert abs(got - want) <= 4 * math.ulp(want)

    def test_extract_rejects_a_projection_that_is_not_injective(self):
        # points 0 and 1, and 2 and 3, are within the cone band of each
        # other but share their projection to the t-axis; the first is named
        pts = np.array([[0.0, 0.0], [1e-10, 0.0], [0.5, 1.0], [0.5 + 1e-10, 1.0]])
        V = HomPlane.t_axis(1)
        assert graph_cone_check(pts, V, 0.5) == []
        with pytest.raises(ConeViolationError, match="points 0 and 1"):
            graph_extract(pts, V, 0.5)

    def test_graph_samples_accessors(self):
        x = np.linspace(-1.0, 1.0, 50)
        pts = np.column_stack([x, 0.5 * x, np.zeros_like(x)])
        g = GraphSamples.from_points(pts, HomPlane.horizontal_axes(2, (0,)))
        assert g.base_h.shape == (50, 1)
        assert g.value_h.shape == (50, 1)
        assert g.value_h[:, 0] == pytest.approx(0.5 * g.base_h[:, 0], abs=1e-12)
        assert g.co_plane.family == "vertical"


def reference_unique_rows(pts):
    """The distinct rows of an (N, d) array in lexicographic order, of
    equal rows (-0.0 == 0.0) the first in input order: a dict keeps the
    first of equal keys, and the tuples are sorted."""
    rows = dict.fromkeys(map(tuple, pts.tolist()))
    return np.array(sorted(rows), dtype=float).reshape(-1, pts.shape[1])


def two_pass_graph_extract(points, V, s):
    """graph_extract as two sweeps over the pairs, the cone check then the
    ratio pass on the projections of each pair's difference: the
    reference for the one-sweep version."""
    pts = reference_unique_rows(geometry.as_coord_array(points, V.n))
    violations = graph_cone_check(pts, V, s)
    if violations:
        i, j = violations[0]
        raise ConeViolationError(
            f"cone condition fails for pair ({i}, {j}): "
            f"{pts[i].tolist()} vs {pts[j].tolist()}",
            pair=(pts[i].copy(), pts[j].copy()),
        )
    graph = GraphSamples.from_points(pts, V)
    bound = s / np.sqrt(1.0 - s * s)
    ratio = 0.0
    base = graph.base
    # every pair at once, in (i, j) lexicographic order
    i, j = np.triu_indices(len(graph), 1)
    d = pts[j] - pts[i]
    db = para_norm_rows(project_rows(V, d))
    same = np.flatnonzero(db == 0.0)
    if same.size:
        a, b = i[same[0]], j[same[0]]
        raise ConeViolationError(
            f"projection to the plane is not injective: points {a} and {b}",
            pair=(base[a].copy(), base[b].copy()),
        )
    if d.size:
        ratio = float(np.max(para_norm_rows(project_rows(V, d, "complement")) / db))
    return geometry.ExtractResult(graph, float(bound), ratio)


def extract_outcome(extract, pts, V, s):
    """What an extract function returns or raises, as comparable bytes."""
    try:
        res = extract(pts, V, s)
    except ConeViolationError as err:
        return ("error", str(err), [p.tobytes() for p in err.pair])
    return ("ok", res.graph.base.tobytes(), res.graph.values.tobytes(),
            res.lipschitz_bound.hex(), res.empirical_ratio.hex())


def axis_plane(rng, n, family):
    """A homogeneous plane of P^n spanned by random coordinate axes."""
    k = int(rng.integers(1, n + 1)) if family == "horizontal" else int(rng.integers(0, n))
    axes = sorted(rng.choice(n, size=k, replace=False).tolist())
    if family == "horizontal":
        return HomPlane.horizontal_axes(n, axes)
    return HomPlane.vertical_axes(n, axes)


class TestExtractMatchesTwoPass:
    """graph_extract's one sweep against the two-pass reference: the same
    ExtractResult bits, or the same error, message and pair."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), family=st.sampled_from(["horizontal", "vertical"]),
           npts=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           s=st.sampled_from([0.3, 0.9]), thin=st.booleans(), rows=tile_rows)
    def test_random_frames(self, n, family, npts, seed, s, thin, rows):
        rng = np.random.default_rng(seed)
        V = random_plane(rng, n, family)
        pts = rng.standard_normal((npts, n + 1))
        if npts > 2:
            pts[-1] = pts[0]  # a duplicate, which both collapse
        while thin and (bad := graph_cone_check(pts, V, s)):
            pts = np.delete(pts, bad[0][1], axis=0)
        with mock.patch.object(geometry, "PAIR_TILE", rows * max(npts, 1)):
            got = extract_outcome(graph_extract, pts, V, s)
            want = extract_outcome(two_pass_graph_extract, pts, V, s)
        assert got == want
        if thin:
            assert got[0] == "ok"

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), family=st.sampled_from(["horizontal", "vertical"]),
           npts=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
           twins=st.integers(1, 3), violate=st.booleans(), rows=tile_rows)
    def test_shared_projections(self, n, family, npts, seed, twins, violate, rows):
        # a graph over a coordinate plane plus twins at distance 1e-10 from
        # some of its points across the plane, which pass the cone check
        # but share the projection; with violate, a far point across the
        # plane as well
        rng = np.random.default_rng(seed)
        V = axis_plane(rng, n, family)
        pts = rng.standard_normal((npts, n + 1))
        while bad := graph_cone_check(pts, V, 0.5):
            pts = np.delete(pts, bad[0][1], axis=0)
        across = project_rows(V, np.eye(n + 1), "complement")
        across = across[np.any(across != 0.0, axis=1)]
        # a twin 1e-10 off in t is the same float, so only x axes serve
        near = 1e-10 * across[across[:, -1] == 0.0]
        assume(len(near))
        picks = rng.choice(len(pts), size=min(twins, len(pts)), replace=False)
        extra = [pts[i] + near[rng.integers(len(near))] for i in picks]
        if violate:
            extra.append(pts[0] + across[0])
        pts = np.vstack([pts] + extra)
        with mock.patch.object(geometry, "PAIR_TILE", rows * len(pts)):
            got = extract_outcome(graph_extract, pts, V, 0.5)
            want = extract_outcome(two_pass_graph_extract, pts, V, 0.5)
        assert got == want
        assert got[0] == "error"
        assert ("cone condition fails" in got[1]) == violate

    def test_t_axis_case(self):
        pts = np.array([[0.0, 0.0], [1e-10, 0.0], [0.5, 1.0], [0.5 + 1e-10, 1.0]])
        V = HomPlane.t_axis(1)
        got = extract_outcome(graph_extract, pts, V, 0.5)
        assert got == extract_outcome(two_pass_graph_extract, pts, V, 0.5)
        assert got[1] == "projection to the plane is not injective: points 0 and 1"

    def test_first_violation_is_the_cone_checks_first(self):
        x = np.linspace(-1.0, 1.0, 300)
        pts = np.column_stack([x, 0.2 * x + 0.05 * np.sin(40.0 * x), np.zeros_like(x)])
        V = HomPlane.horizontal_axes(2, (0,))
        i, j = graph_cone_check(pts, V, 0.2)[0]
        with pytest.raises(ConeViolationError, match=rf"pair \({i}, {j}\)") as err:
            graph_extract(pts, V, 0.2)
        assert extract_outcome(graph_extract, pts, V, 0.2) == extract_outcome(
            two_pass_graph_extract, pts, V, 0.2)
        np.testing.assert_array_equal(err.value.pair[0], pts[i])


def unfused_graph_cone_check(points, V, s):
    """graph_cone_check with each pair block's expressions written out,
    every norm a fresh array: the reference for the cone-gap kernel."""
    if not 0.0 < s < 1.0:
        raise ValueError("aperture must lie in (0, 1)")
    pts = geometry.as_coord_array(points, V.n)
    violations = []
    for lo, upper, (d,) in pair_blocks(pts):
        px = geometry._project_cols(V.horiz_basis, d[:-1])
        perp = geometry._perp_norm(V.includes_t_axis, d[:-1], d[-1], px)
        a, b = np.nonzero((perp - s * geometry._norm_cols(d) > CONE_BAND) & upper)
        violations += zip((a + lo).tolist(), (b + lo + 1).tolist())
    return violations


def unfused_graph_extract(points, V, s):
    """graph_extract's one sweep with each pair block's expressions
    written out, every norm a fresh array: the reference for the
    cone-gap kernel."""
    pts = reference_unique_rows(geometry.as_coord_array(points, V.n))
    if not 0.0 < s < 1.0:
        raise ValueError("aperture must lie in (0, 1)")
    graph = GraphSamples.from_points(pts, V)
    ratio = 0.0
    same = None
    for lo, upper, (d,) in pair_blocks(pts):
        x, t = d[:-1], d[-1]
        px = geometry._project_cols(V.horiz_basis, x)
        perp = geometry._perp_norm(V.includes_t_axis, x, t, px)
        bad = np.argwhere((perp - s * geometry._norm_cols(d) > CONE_BAND) & upper)
        if bad.size:
            a, b = bad[0] + (lo, lo + 1)
            raise ConeViolationError(
                f"cone condition fails for pair ({a}, {b}): "
                f"{pts[a].tolist()} vs {pts[b].tolist()}",
                pair=(pts[a].copy(), pts[b].copy()),
            )
        if same is None:
            d2 = geometry._sum_squares(px)
            db = np.sqrt(d2 + np.abs(t) if V.includes_t_axis else d2)
            zero = np.argwhere((db == 0.0) & upper)
            if zero.size:
                same = zero[0] + (lo, lo + 1)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = max(ratio, float(np.max(perp / db, where=upper, initial=0.0)))
    if same is not None:
        a, b = same
        raise ConeViolationError(
            f"projection to the plane is not injective: points {a} and {b}",
            pair=(graph.base[a].copy(), graph.base[b].copy()),
        )
    return geometry.ExtractResult(graph, float(s / np.sqrt(1.0 - s * s)), ratio)


def plane_of(rng, n, family, frame):
    """A plane of the family with a random frame, spanned by coordinate
    axes drawn in any order ("axes"), or the same coordinate plane with
    basis rows -e_a ("negated-axes"), which the cone kernel projects by
    arithmetic."""
    if family == "t-axis":
        return HomPlane.t_axis(n)
    if frame == "random":
        return random_plane(rng, n, family)
    k = int(rng.integers(1, n + 1)) if family == "horizontal" else int(rng.integers(0, n))
    basis = np.eye(n)[rng.choice(n, size=k, replace=False)]
    return HomPlane(n, -basis if frame == "negated-axes" else basis, family == "vertical")


class TestConeKernelMatchesUnfused:
    """graph_cone_check and graph_extract through the cone-gap kernel
    against the expressions it replaced: the same violation lists, and
    the same ExtractResult bits or the same error, message and pair.
    n = 8 gives 8 spatial columns, which _sum_squares adds by einsum.
    A coordinate plane takes the kernel's column path, and the same
    plane spanned by negated axes its projecting path, with equal
    results."""

    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 8), family=st.sampled_from(["horizontal", "vertical", "t-axis"]),
           frame=st.sampled_from(["random", "axes", "negated-axes"]), npts=st.integers(0, 30),
           seed=st.integers(0, 2**32 - 1), s=st.sampled_from([0.1, 0.5, 0.9]),
           offset=st.sampled_from([0.0, 1e6]), dups=st.integers(0, 4),
           thin=st.booleans(), rows=tile_rows)
    def test_random_clouds(self, n, family, frame, npts, seed, s, offset, dups, thin, rows):
        rng = np.random.default_rng(seed)
        V = plane_of(rng, n, family, frame)
        pts = offset + rng.standard_normal((npts, n + 1))
        if npts:
            # zero coordinates, then repeated rows, some with the zeros negated
            pts[rng.random(pts.shape) < 0.2] = 0.0
            extra = pts[rng.integers(npts, size=dups)]
            extra[(extra == 0.0) & (rng.random(extra.shape) < 0.5)] = -0.0
            pts = np.vstack([pts, extra])[rng.permutation(npts + dups)]
        while thin and (bad := unfused_graph_cone_check(pts, V, s)):
            pts = np.delete(pts, bad[0][1], axis=0)
        with mock.patch.object(geometry, "PAIR_TILE", rows * max(len(pts), 1)):
            violations = graph_cone_check(pts, V, s)
            assert violations == unfused_graph_cone_check(pts, V, s)
            got = extract_outcome(graph_extract, pts, V, s)
            assert got == extract_outcome(unfused_graph_extract, pts, V, s)
            if frame == "negated-axes" and V.k:
                W = HomPlane(n, -V.horiz_basis, V.includes_t_axis)
                assert V.axes is None and W.axes is not None
                assert graph_cone_check(pts, W, s) == violations
                assert extract_outcome(graph_extract, pts, W, s) == got
        if thin:
            assert got[0] == "ok"

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_graph_with_twins_across_the_plane(self, n):
        # twins 1e-10 across an axis plane pass the cone check but share
        # their projection; the first such pair is named
        rng = np.random.default_rng(n)
        V = HomPlane.horizontal_axes(n, range(n - 1)) if n > 1 else HomPlane.t_axis(1)
        pts = rng.standard_normal((30, n + 1))
        while bad := unfused_graph_cone_check(pts, V, 0.5):
            pts = np.delete(pts, bad[0][1], axis=0)
        twins = pts[:2].copy()
        twins[:, n - 1] += 1e-10  # the last spatial axis, across V
        pts = np.vstack([pts, twins])
        got = extract_outcome(graph_extract, pts, V, 0.5)
        assert got == extract_outcome(unfused_graph_extract, pts, V, 0.5)
        assert "not injective" in got[1]

    @pytest.mark.parametrize("points, s", [
        (np.zeros((3, 3)), 1.0),
        (np.zeros((3, 3)), 0.0),
        (np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 1.0]]), 0.5),
        (np.zeros((3, 2)), 0.5),
    ])
    def test_same_errors(self, points, s):
        V = HomPlane.horizontal_axes(2, (0,))
        for fused, unfused in ((graph_cone_check, unfused_graph_cone_check),
                               (graph_extract, unfused_graph_extract)):
            with pytest.raises(ValueError) as want:
                unfused(points, V, s)
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                fused(points, V, s)


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_frame(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    return q.T.copy()


def scipy_complement_basis(V):
    """The complement basis as scipy.linalg.null_space gives it: the
    reference for complement_plane."""
    from scipy.linalg import null_space

    if V.k == 0:
        return np.eye(V.n)
    if V.k == V.n:
        return np.zeros((0, V.n))
    return null_space(V.horiz_basis).T


def ref_orthonormal_frames(cols):
    """One 2-D QR per column set, the sign fix and the rank test as each
    caller once wrote them: the reference for orthonormal_frames."""
    frames, keep = [], []
    for c in cols:
        q, r = np.linalg.qr(c)
        diag = np.diag(r)
        keep.append(bool(np.min(np.abs(diag)) >= 1e-12))
        if keep[-1]:
            frames.append((q * np.sign(diag)).T.copy())
    return frames, keep


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a = np.asarray(a)
        assert a.shape == b.shape and a.flags.c_contiguous
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orthonormal_frames_match_one_qr_per_frame(n):
    rng = np.random.default_rng(n)
    for k in range(1, n + 1):
        cols = rng.standard_normal((30, n, k))
        cols[3] = 0.0
        cols[7, :, -1] = cols[7, :, 0]  # a repeated column
        cols[11, :, 0] *= 1e-13
        cols[19] = np.eye(n)[:, :k]
        frames, keep = geometry.orthonormal_frames(cols)
        want, want_keep = ref_orthonormal_frames(cols)
        assert keep.tolist() == want_keep and want_keep[3] is want_keep[11] is False
        assert_same_bits(list(frames), want)


class TestComplementsMatchScipy:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_complement_plane(self, n):
        rng = np.random.default_rng(n)
        for k in range(n + 1):
            bases = [np.eye(n)[list(c)] for c in itertools.combinations(range(n), k)]
            bases += [random_frame(rng, k, n) for _ in range(40)] if k else []
            for basis in bases:
                V = HomPlane(n, basis, k == 0)
                W = complement_plane(V)
                assert W.includes_t_axis != V.includes_t_axis
                assert bits_equal(W.horiz_basis, scipy_complement_basis(V))

"""Norm, dilations, homogeneous planes, cones and graph extraction."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from parabgmt import geometry
from parabgmt.geometry import (
    CONE_BAND,
    Cone,
    ConeViolationError,
    DimensionMismatchError,
    EuclideanPlane,
    GraphSamples,
    HomPlane,
    ParaPoint,
    blowup_map,
    blowup_rows,
    complement_plane,
    cone_gap_rows,
    cone_membership,
    dilate,
    dist_rows,
    dist_to_plane_rows,
    euclid_cone_radius,
    graph_cone_check,
    graph_extract,
    metric_eval,
    pair_tiles,
    para_norm,
    para_norm_rows,
    plane_distance,
    project,
    project_rows,
    sample_planes,
    verticalize,
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
        assert para_norm(dilate(r, p)) == pytest.approx(r * para_norm(p), rel=1e-12, abs=1e-12)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(point_strategy(n), point_strategy(n))))
    def test_triangle_inequality(self, pq):
        p, q = pq
        assert para_norm(p + q) <= para_norm(p) + para_norm(q) + 1e-9


class TestMetric:
    def test_metric_eval_matches_norm_of_difference(self):
        p = ParaPoint([1.0, 2.0], 3.0)
        q = ParaPoint([0.5, -1.0], 1.0)
        assert metric_eval(p, q) == pytest.approx(para_norm(p - q), rel=1e-15)
        assert metric_eval(p, q, "euclidean") == pytest.approx(
            math.sqrt(0.25 + 9.0 + 4.0), rel=1e-15
        )
        with pytest.raises(ValueError):
            metric_eval(p, q, "manhattan")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            metric_eval(ParaPoint([1.0], 0.0), ParaPoint([1.0, 0.0], 0.0))

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


class TestDilation:
    def test_dilate_oracle(self):
        p = dilate(3.0, ParaPoint([1.0, -2.0], 5.0))
        assert p.x == pytest.approx([3.0, -6.0])
        assert p.t == pytest.approx(45.0)
        with pytest.raises(ValueError):
            dilate(0.0, ParaPoint([1.0], 0.0))

    def test_blowup_map_oracle(self):
        a = ParaPoint([1.0], 2.0)
        p = ParaPoint([1.5], 2.25)
        q = blowup_map(a, 0.5, p)
        assert q.x == pytest.approx([1.0])
        assert q.t == pytest.approx(1.0)

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
        lhs = metric_eval(blowup_map(a, r, p), blowup_map(a, r, q))
        rhs = metric_eval(p, q) / r
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

    def test_dict_roundtrip(self):
        basis = np.array([[3.0, 4.0]]) / 5.0
        V = HomPlane(2, basis, True)
        W = HomPlane.from_dict(V.to_dict())
        assert W == V
        assert W.m == V.m and W.includes_t_axis

    def test_contains(self):
        V = HomPlane.horizontal_axes(2, (0,))
        assert V.contains(ParaPoint([0.3, 0.0], 0.0))
        assert not V.contains(ParaPoint([0.3, 0.1], 0.0))
        assert not V.contains(ParaPoint([0.3, 0.0], 0.1))
        T = HomPlane.t_axis(1)
        assert T.contains(ParaPoint([0.0], -5.0))


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


# ---------------------------------------------------------------------------
# Candidate plane sampling


def scipy_halton_frames(n, k, count, seed):
    """The frames as scipy's own Halton sampler and normal quantile give
    them, one row at a time: the reference for geometry._halton_frames."""
    from scipy.stats import norm, qmc

    if k == 0:
        return [np.zeros((0, n)) for _ in range(count)]
    sampler = qmc.Halton(d=n * k, seed=seed, scramble=True)
    frames = []
    while len(frames) < count:
        z = norm.ppf(sampler.random(1)[0]).reshape(n, k)
        q, r = np.linalg.qr(z)
        diag = np.diag(r)
        if np.min(np.abs(diag)) < 1e-12:
            continue
        frames.append((q * np.sign(diag)).T.copy())
    return frames


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a = np.asarray(a)
        assert a.shape == b.shape and a.flags.c_contiguous
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


HALTON_SEEDS = (0, 1, 205, 104729, 2**32 - 1)


class TestHaltonFrames:
    @pytest.mark.parametrize("seed", HALTON_SEEDS)
    def test_frames_match_scipy_bit_for_bit(self, seed):
        for n in range(1, 5):
            for k in range(n + 1):
                for count in (1, 7, 70):
                    assert_same_bits(geometry._halton_frames(n, k, count, seed),
                                     scipy_halton_frames(n, k, count, seed))

    @pytest.mark.parametrize("seed", HALTON_SEEDS)
    def test_sample_planes_match_scipy_bit_for_bit(self, seed):
        for n in range(1, 5):
            for m in range(1, n + 2):
                for count in (1, 9, 70):
                    got = sample_planes(n, m, count, seed)
                    with mock.patch.object(geometry, "_halton_frames", scipy_halton_frames):
                        want = sample_planes(n, m, count, seed)
                    assert [V.includes_t_axis for V in got] == [
                        V.includes_t_axis for V in want
                    ]
                    assert_same_bits([V.horiz_basis for V in got],
                                     [V.horiz_basis for V in want])

    @pytest.mark.parametrize("seed", HALTON_SEEDS)
    def test_rows_from_an_offset_match_scipy_fast_forward(self, seed):
        from scipy.stats import qmc

        for d in (1, 2, 5, 12):
            for start in (0, 1, 13, 250):
                sampler = qmc.Halton(d=d, seed=seed, scramble=True)
                sampler.fast_forward(start)
                want = sampler.random(40)
                got = geometry._halton_rows(d, seed, 40, start)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_rejected_row_resumes_at_next_index(self):
        from scipy.special import ndtri

        # rows 1 and 3 give a rank-deficient 2x2 matrix (equal columns),
        # so the frames are those of rows 0, 2, 4, 5 and the second draw
        # starts at row 4
        table = geometry._halton_rows(4, 9, 6, 0)
        table[1] = [0.3, 0.3, 0.8, 0.8]
        table[3] = [0.6, 0.6, 0.1, 0.1]
        starts = []

        def rows(d, seed, count, start):
            starts.append((start, count))
            return table[start:start + count]

        with mock.patch.object(geometry, "_halton_rows", rows):
            got = geometry._halton_frames(2, 2, 4, 9)
        assert starts == [(0, 4), (4, 2)]
        expect = []
        for u in table[[0, 2, 4, 5]]:
            q, r = np.linalg.qr(ndtri(u).reshape(2, 2))
            expect.append((q * np.sign(np.diag(r))).T.copy())
        assert_same_bits(got, expect)


# ---------------------------------------------------------------------------
# Cones


class TestCone:
    def test_aperture_validation(self):
        V = HomPlane.t_axis(1)
        vertex = ParaPoint([0.0], 0.0)
        for bad in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                Cone(vertex, V, bad)

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
            assert cone_membership(c, dilate(r, q)) == label


def random_plane(rng, n, family):
    """A homogeneous plane of P^n in the given family with a random frame."""
    k = int(rng.integers(1, n + 1)) if family == "horizontal" else int(rng.integers(0, n))
    frame = np.linalg.qr(rng.standard_normal((n, k)))[0].T if k else np.zeros((0, n))
    return HomPlane(n, frame, family == "vertical")


# rows per pair tile: one, several, and all rows in a single tile
tile_rows = st.sampled_from([1, 3, 10**6])


def test_pair_tiles_cover_each_pair_once_in_order():
    for npts, budget in ((0, 8), (1, 8), (2, 8), (9, 1), (9, 20), (9, 81), (40, 100)):
        with mock.patch.object(geometry, "PAIR_TILE", budget):
            tiles = list(pair_tiles(npts))
        pairs = []
        for i, j in tiles:
            assert i.shape == j.shape and i.size
            assert (i[-1] - i[0] + 1) * npts <= max(budget, npts)
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
        back = res.graph.reassemble()
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
        base, vals = res.graph.base, res.graph.values
        want = max(
            (para_norm(vals[j] - vals[i]) / para_norm(base[j] - base[i])
             for i in range(len(base)) for j in range(i + 1, len(base))),
            default=0.0,
        )
        assert res.empirical_ratio == pytest.approx(want, rel=1e-14)

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


class TestEuclidComparison:
    def test_verticalize_line(self):
        V = EuclideanPlane(np.array([[0.6, 0.8]]))  # slanted line in R^2 = P^1 coords
        W = verticalize(V)
        assert W.includes_t_axis and W.k == 0 and W.n == 1

    def test_euclid_cone_radius_found(self):
        V = EuclideanPlane(np.array([[0.0, 1.0]]))  # the t-axis itself
        res = euclid_cone_radius(V, 0.5, tol=0.05)
        assert res.ok
        assert 0.0 < res.radius <= 1.0
        assert res.checked > 0

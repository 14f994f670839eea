"""The hashed neighbour index against brute-force distances, the
far-outlier clouds that overflowed dense cell codes, and greedy covers
of the benchmark's clouds against full scans."""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_index import ScanIndex, reference_plane_cloud

from parabgmt import _index, cli, measure
from parabgmt._index import GridIndex
from parabgmt.generators import gen_cantor_segments, gen_weierstrass_graph
from parabgmt.geometry import dist_rows
from parabgmt.measure import (
    DiscreteMeasure,
    GridMap,
    default_scales,
    greedy_cover,
    lip_image_cover_sum,
    save_cloud_csv,
)
from parabgmt.rectify import TangentConfig, classify_points, detect_tangent


def brute_query(pts, i, radius, metric):
    """Every index in the closed ball dist_rows <= radius around row i,
    by a full scan."""
    return ScanIndex(pts, radius, metric).query(i)


coord = st.floats(-2.0, 2.0, allow_nan=False, width=64)


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(coord, min_size=n + 1, max_size=n + 1), min_size=1, max_size=60))
    pts = np.array(rows, dtype=float)
    if draw(st.booleans()):
        far = draw(st.sampled_from([1e4, -1e6, 1e12, 1e20, -1e300]))
        pts = np.vstack([pts, np.full(n + 1, far)])
    if draw(st.booleans()):
        # repeated atoms share a cell, and shuffled rows put the atoms
        # of a cell out of index order
        again = draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=20))
        pts = np.vstack([pts, pts[again]])
        pts = pts[draw(st.permutations(range(len(pts))))]
    return pts


def sphere_atoms(center, radius, metric, rng):
    """Atoms on the sphere of the ball (before rounding) and one ulp
    either side of each: the axis extremes and four random points."""
    d = center.size
    reach = np.full(d, radius)
    if metric == "parabolic":
        reach[-1] = radius * radius
    offsets = [*np.diag(reach), *np.diag(-reach)]
    for _ in range(4):
        u = rng.standard_normal(d)
        if metric == "parabolic":
            x = u[:-1] / np.linalg.norm(u[:-1]) * radius * rng.random()
            offsets.append(np.append(x, np.sign(u[-1]) * (radius * radius - x @ x)))
        else:
            offsets.append(u / np.linalg.norm(u) * radius)
    on = center + np.array(offsets)
    return np.vstack([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)])


def with_centers(pts, metric, radii, data):
    """pts after two centre rows, an atom of pts and an arbitrary point,
    with the atoms on and one ulp around the spheres of each radius
    about both; the centres are rows 0 and 1."""
    d = pts.shape[1]
    outside = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=d, max_size=d)
    centers = [pts[data.draw(st.integers(0, len(pts) - 1))], np.array(data.draw(outside))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shells = [sphere_atoms(c, rad, metric, rng) for c in centers for rad in radii]
    return np.vstack([*centers, pts, *shells])


@settings(max_examples=300, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    r=st.sampled_from([1e-3, 0.05, 0.25, 0.3, 1.0]),
    factor=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_query_matches_brute_force(pts, metric, r, factor, data):
    pts = with_centers(pts, metric, (r, factor * r), data)
    index = GridIndex(pts, max(r, factor * r), metric)
    # the atoms one ulp around -1e300 lie at a distance whose square
    # overflows: the query drops them without a warning
    for i in (0, 1):
        for radius in (None, r, factor * r):
            got = index.query(i, radius)
            want = brute_query(pts, i, index.r if radius is None else radius, metric)
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, want)


def assert_ball_matches_scan(index, pts, i, radius, metric):
    """ball gives the indices of the full scan, in any order, each with
    the bits of its own dist_rows value."""
    hits, dist = index.ball(i, radius)
    assert hits.dtype.kind == "i" and hits.shape == dist.shape
    want = brute_query(pts, i, index.r if radius is None else radius, metric)
    np.testing.assert_array_equal(np.sort(hits), want)
    np.testing.assert_array_equal(
        dist.view(np.uint64), dist_rows(pts[hits], pts[i], metric).view(np.uint64))
    return dist


@settings(max_examples=200, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    r=st.sampled_from([1e-3, 0.05, 0.3, 1.0]),
    factor=st.sampled_from([0.5, 1.0, 2.0]),
    scale=st.sampled_from([1.0, 1e-160]),
    data=st.data(),
)
def test_ball_matches_brute_force(pts, metric, r, factor, scale, data):
    # at scale 1e-160 the radii reach 1e-163, whose square underflows
    pts = with_centers(pts, metric, (r, factor * r), data) * scale
    r = r * scale
    index = GridIndex(pts, max(r, factor * r), metric)
    for i in (0, 1):
        for radius in (None, r, factor * r):
            assert_ball_matches_scan(index, pts, i, radius, metric)


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_ball_with_atoms_exactly_on_the_sphere(metric):
    # the dyadic grid x = k/32 puts atoms at distance exactly r of each
    # grid centre, for r = 1/4 and 1/8, in both metrics
    h = 1.0 / 32
    ax = np.arange(-32, 33) * h
    mesh = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    mesh = mesh[np.einsum("ij,ij->i", mesh, mesh) <= 1.0]
    pts = np.column_stack([mesh, np.zeros(len(mesh))])
    for r in (0.25, 0.125):
        index = GridIndex(pts, 2.0 * r, metric)
        for i in range(0, len(pts), 97):
            for radius in (r, 2.0 * r):
                dist = assert_ball_matches_scan(index, pts, i, radius, metric)
                assert np.any(dist == radius)


@pytest.mark.parametrize("metric, axis", [("parabolic", 0), ("parabolic", 1),
                                          ("euclidean", 0), ("euclidean", 1)])
def test_block_reaches_atoms_rounded_onto_the_sphere(metric, axis):
    # the centre sits half an ulp of the reach below 0 along `axis`, so
    # centre + reach ends just below the cell edge at reach; the atom on
    # that edge is off by half an ulp more, which rounds away, and
    # dist_rows puts it on the sphere, inside the ring of the centre
    r = 0.25
    reach = r * r if (metric, axis) == ("parabolic", 1) else r
    center = np.zeros(2)
    center[axis] = -np.spacing(reach) / 2
    atom = np.zeros(2)
    atom[axis] = reach
    # atoms below the centre open the occupied cell range past it
    pts = np.vstack([atom, center, -np.eye(2)])
    assert dist_rows(atom, center, metric) == r
    np.testing.assert_array_equal(GridIndex(pts, r, metric).query(1), [0, 1])


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_colliding_hash_only_adds_filtered_candidates(monkeypatch, metric):
    # unit multipliers send every cell with the same coordinate sum to one code
    monkeypatch.setattr(_index, "_multipliers", lambda d: [1] * d)
    pts = np.random.default_rng(3).random((400, 3))
    index = GridIndex(pts, 0.2, metric)
    for i in range(40):
        for radius in (0.05, 0.1, 0.2):
            np.testing.assert_array_equal(
                index.query(i, radius), brute_query(pts, i, radius, metric))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
@pytest.mark.parametrize("r", [1e-165, 1e-200, 5e-324])
def test_radius_whose_square_underflows(monkeypatch, metric, r):
    # r * r is 0.0, so a cell of r^2 along t divided by zero; and
    # 1e-170 lies at dist_rows 0.0 from the origin, its square lost
    pts = np.array([[0.0, 0.0], [1e-170, 0.0], [1.0, 1.0]])
    for build in (2 * r, 1e-160):
        index = GridIndex(pts, build, metric)
        for i in range(len(pts)):
            for radius in (r, 2 * r, build):
                np.testing.assert_array_equal(index.query(i, radius),
                                              brute_query(pts, i, radius, metric))
                assert_ball_matches_scan(index, pts, i, radius, metric)
    got = greedy_cover(pts, r, metric)
    monkeypatch.setattr(measure, "GridIndex", ScanIndex)
    np.testing.assert_array_equal(got, greedy_cover(pts, r, metric))
    assert len(got) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_radius_whose_square_overflows(metric):
    # a cell of r^2 = inf along t made every block edge NaN, so the
    # queries came back empty and greedy_cover never ended
    pts = np.random.default_rng(4).random((50, 3)) * 1e3
    for r in (1e160, 1e200, 1e300):
        index = GridIndex(pts, r, metric)
        np.testing.assert_array_equal(index.query(0), np.arange(50))
        assert len(greedy_cover(pts, r, metric)) == 1


@pytest.mark.filterwarnings("error:invalid value")
@pytest.mark.parametrize("r", [1e150, 1e160])
def test_differences_past_the_float_range_at_huge_radii(r):
    # the t cells are r^2 wide, 1e300 or inf: past the range where a
    # difference from the middle row that overflows still lands in an
    # edge cell (or, for an infinite cell, divides inf by inf), so t
    # gets one cell; p and q are 5e299 apart along t, within r
    o = -1e308
    q = sys.float_info.max + o
    pts = np.array([[0.0, o], [0.0, o], [0.0, o], [0.0, q], [0.0, q + 5e299]])
    index = GridIndex(pts, r)
    for i in range(5):
        np.testing.assert_array_equal(index.query(i), brute_query(pts, i, r, "parabolic"))
    np.testing.assert_array_equal(index.query(4), [3, 4])


@settings(max_examples=150, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    scale=st.sampled_from([1e-170, 1e-160, 1e-155, 1e-150]),
    r=st.sampled_from([0.01, 0.3, 1.0, 3.0]),
)
def test_tiny_radii_match_brute_force(pts, metric, scale, r):
    # coordinates near `scale` put the squares of dist_rows in the
    # subnormals, where they round by a large relative amount
    pts = pts * scale
    index = GridIndex(pts, 2 * r * scale, metric)
    for i in range(min(4, len(pts))):
        for radius in (r * scale, 2 * r * scale):
            np.testing.assert_array_equal(index.query(i, radius),
                                          brute_query(pts, i, radius, metric))


def test_far_outlier_ball_is_quiet():
    # the two outliers are one ulp apart near -1e300, so their squared
    # difference overflows: the distance is inf, outside the ball, and
    # (as the suite turns RuntimeWarnings into errors) raises no warning
    pts = np.array([[-1e300, 0.0], [np.nextafter(-1e300, 0.0), 0.0]]
                   + [[float(k), 0.0] for k in range(5)])
    hits, dist = GridIndex(pts, 1.0).ball(0)
    assert hits.tolist() == [0] and dist.tolist() == [0.0]


def cell_count(index):
    return np.unique(index._cell).size


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
@pytest.mark.parametrize("far", [1e20, -1e20, 1e300, -1e300])
def test_far_outliers_neither_lose_atoms_nor_merge_the_cells(metric, far):
    # the cells are counted from the middle row, so a far outlier only
    # lands in an edge cell of its own
    rng = np.random.default_rng(8)
    pts = rng.random((500, 3))
    pts = np.vstack([pts, [far, 0.5, 0.5], [0.5, 0.5, far], np.full(3, far), np.full(3, far)])
    index = GridIndex(pts, 0.1, metric)
    assert cell_count(index) > 100
    for i in [*range(0, 500, 7), 500, 501, 502, 503]:
        assert_ball_matches_scan(index, pts, i, None, metric)
    np.testing.assert_array_equal(np.sort(index.ball(502)[0]), [502, 503])


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_shifted_cloud_at_tiny_radius(metric):
    # at 1e6 the floats are 2^-33 apart, so the quotients by cells of
    # 1e-9 round by about 0.1 of a cell if taken from the origin; taken
    # from the middle row they stay exact enough, and stay apart
    rng = np.random.default_rng(6)
    pts = 1e6 + rng.integers(0, 40, (600, 3)) * 2.0**-33
    pts[:, -1] = 1e6 + rng.integers(0, 3, 600) * 2.0**-33
    r = 1e-9
    index = GridIndex(pts, r, metric)
    assert cell_count(index) > 4
    for i in range(0, 600, 5):
        for radius in (None, r / 2):
            assert_ball_matches_scan(index, pts, i, radius, metric)


def test_build_peak_stays_within_two_copies_of_the_points():
    # the peak is the float cell quotients beside their int64 cast; the
    # cell-ordered copy is made after both are freed, so it adds nothing
    pts = reference_plane_cloud(3, 4, "vertical")
    # the cloud in the coordinates of P^3: x1, x2, a zero x3, t
    pts = np.insert(pts, 2, 0.0, axis=1)
    assert pts.shape[1] == 4
    tracemalloc.start()
    try:
        GridIndex(pts, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * pts.nbytes * 1.01


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_refused(bad):
    # an inf row was left out of every ball, and made a large query fail
    with pytest.raises(ValueError, match="points must be finite"):
        GridIndex(np.array([[0.0, 0.0], [bad, 0.0], [1.0, 1.0]]), 0.5)


def test_row_out_of_range_is_rejected():
    index = GridIndex(np.zeros((3, 3)), 0.1)
    for i in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            index.ball(i)


def test_radius_above_the_build_radius_is_rejected():
    index = GridIndex(np.zeros((3, 3)), 0.1)
    for radius in (0.2, np.nextafter(0.1, 1.0), np.nan):
        with pytest.raises(ValueError, match="exceeds the build radius"):
            index.ball(0, radius)


@pytest.mark.parametrize("r, message", [(np.inf, "radius must be finite"),
                                        (np.nan, "radius must be finite"),
                                        (0.0, "radius must be > 0"),
                                        (-1.0, "radius must be > 0")])
def test_radius_outside_zero_to_inf_is_refused(r, message):
    # r = inf built an index whose balls were empty; NaN did too, and
    # warned of an invalid cast
    pts = np.random.default_rng(1).random((20, 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridIndex(pts, r)


def reduced_clouds():
    """The cover workload's Weierstrass graph and Cantor segments, at
    about 2,000 atoms each."""
    return [gen_weierstrass_graph(n=1, c0=1.0, K=50, resolution=5e-4)[0],
            gen_cantor_segments(n_seq=(2, 3, 4, 30), depth=4, points_per_segment=3)[0]]


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
@pytest.mark.parametrize("cloud", [0, 1])
def test_workload_covers_match_full_scans(monkeypatch, cloud, metric):
    mu = reduced_clouds()[cloud]
    scales = default_scales(mu.resolution(), 5)
    got = [greedy_cover(mu, r, metric) for r in scales]
    monkeypatch.setattr(measure, "GridIndex", ScanIndex)
    for r, centers in zip(scales, got):
        want = greedy_cover(mu, r, metric)
        assert centers.shape == want.shape
        np.testing.assert_array_equal(centers.view(np.uint64), want.view(np.uint64))


def test_tracer_counts_the_index_and_the_cover(tmp_path):
    # perfbench/tracer.py patches GridIndex.__init__ and .query and reads
    # the points as the first argument of __init__
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    pts = np.random.default_rng(2).random((200, 2))
    mu = DiscreteMeasure(1, pts, np.full(200, 1.0 / 200))
    cloud = tmp_path / "c.csv"
    save_cloud_csv(mu, cloud)
    t = tracer.Tracer()
    t.install()
    try:
        rc = cli.main(["dim", "-i", str(cloud), "--scales", "3", "-o", str(tmp_path / "d.json")])
    finally:
        t.uninstall()
    assert rc == 0
    assert t.stats.calls["index.build"] == 3 and t.stats.calls["measure.greedy_cover"] == 3
    assert t.stats.counters["index.points_indexed"] == 3 * 200


def outlier_cloud(natoms, side=1.0):
    """natoms uniform atoms in the parabolic cube of P^2 with x-side
    `side` (t-side side^2) plus one atom at (1e4, 1e4, 1e6)."""
    pts = np.random.default_rng(11).random((natoms, 3)) * [side, side, side * side]
    pts = np.vstack([pts, [1e4, 1e4, 1e6]])
    return DiscreteMeasure(2, pts, np.full(len(pts), 1.0 / len(pts)))


def plane_dict(plane):
    return None if plane is None else plane.to_dict()


class TestFarOutlier:
    def test_greedy_cover(self, monkeypatch):
        mu = outlier_cloud(1000)
        got = greedy_cover(mu, 1e-3)
        monkeypatch.setattr(measure, "GridIndex", ScanIndex)
        np.testing.assert_array_equal(got, greedy_cover(mu, 1e-3))
        assert len(got) == 1001

    def test_classify_points_above_index_threshold(self):
        # every indexed result must equal detect_tangent's, whose ball
        # comes from DiscreteMeasure.ball
        mu = outlier_cloud(5000, side=0.02)
        cfg = TangentConfig(m=1, r_list=(2e-3, 1e-3), sample_size=6)
        report = classify_points(mu, cfg)
        assert sum(report.fractions.values()) == pytest.approx(1.0)
        for point, res in zip(report.points, report.results):
            plain = detect_tangent(mu, point, cfg)
            assert (res.classification, res.min_defect) == (plain.classification, plain.min_defect)
            assert res.defect_curve == plain.defect_curve
            assert plane_dict(res.argmin_plane) == plane_dict(plain.argmin_plane)

    def test_lip_image_cover_sum(self):
        ax = np.linspace(0.0, 1.0, 5)
        values = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)
        values[4, 4, 4] = (1e12, 1e12, 0.0)
        res = lip_image_cover_sum(GridMap(values), 4)
        cols = np.floor(values.reshape(-1, 3)[:, :-1] / res.delta)
        assert res.columns == len({tuple(c) for c in cols.tolist()})
        assert res.balls >= res.columns and np.isfinite(res.value)


class TestClosedBall:
    """The index, DiscreteMeasure.ball and the greedy cover share one ball.
    (0, nextafter(1/16)) is at d2 > 1/16 from the origin, but dist_rows
    rounds its distance to 1/4, so it lies in the closed ball of radius
    1/4."""

    edge = [0.0, np.nextafter(0.0625, 1.0)]

    def test_detect_tangent_with_and_without_index(self):
        mu = DiscreteMeasure(1, [[0.0, 0.0], self.edge, [0.1, 0.0]], [1.0, 1.0, 1.0])
        # classify_points finds each ball in a GridIndex, detect_tangent
        # by DiscreteMeasure.ball; the sample of three is every atom
        cfg = TangentConfig(m=1, s_list=(0.5,), r_list=(0.25,), sample_size=3)
        report = classify_points(mu, cfg)
        np.testing.assert_array_equal([p.coords() for p in report.points], mu.points)
        plain = [detect_tangent(mu, a, cfg) for a in mu.points]
        # the edge atom is perpendicular to the horizontal line: 1 / 0.25
        assert plain[0].defect_curve == [(0.25, 0.5, 4.0)]
        assert [res.defect_curve for res in report.results] == [
            res.defect_curve for res in plain]

    def test_greedy_cover_centres_more_than_r_apart(self):
        centers = greedy_cover(np.array([[0.0, 0.0], self.edge]), 0.25)
        gaps = [dist_rows(np.delete(centers, i, axis=0), c) for i, c in enumerate(centers)]
        assert all(gap.min() > 0.25 for gap in gaps if gap.size)
        assert dist_rows(np.array([self.edge]), centers[0])[0] <= 0.25

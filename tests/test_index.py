"""The sorted-window neighbour index against brute-force distances, on
clouds tied in x1, in t or in both, with far outliers and at radii whose
squares overflow or underflow, and greedy covers of the benchmark's
clouds against full scans."""

import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_index import ScanIndex, reference_ball, reference_plane_cloud, reference_resolution

from parabgmt import cli, measure
from parabgmt._index import GridIndex, _t_reach
from parabgmt.generators import gen_cantor_segments, gen_weierstrass_graph
from parabgmt.geometry import _reach, dist_rows
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
    return ScanIndex(pts).query(i, radius, metric)


coord = st.floats(-2.0, 2.0, allow_nan=False, width=64)


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(coord, min_size=n + 1, max_size=n + 1), min_size=1, max_size=60))
    pts = np.array(rows, dtype=float)
    if draw(st.booleans()):
        far = draw(st.sampled_from([1e4, -1e6, 1e12, 1e20, -1e300]))
        pts = np.vstack([pts, np.full(n + 1, far)])
    tie = draw(st.sampled_from(["none", "x1", "t", "both"]))
    if tie != "none":
        # atoms tied in x1 widen the x1 windows, atoms tied in t the t
        # windows; a few distinct values keep some atoms apart
        values = draw(st.lists(coord, min_size=1, max_size=3))
        for col, name in ((0, "x1"), (-1, "t")):
            if tie in (name, "both"):
                pts[:, col] = [values[k % len(values)] for k in range(len(pts))]
    if draw(st.booleans()):
        # repeated atoms share their windows, and shuffled rows put the
        # atoms of a window out of index order
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
    # atoms of the centre's x1 along t, to and past the t reach, make the
    # t window the narrower one, so its edge is reached too
    column = center + np.outer(np.arange(-100, 101) / 2.0, np.eye(d)[-1] * reach[-1])
    return np.vstack([on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf), column])


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
    index = GridIndex(pts)
    # the atoms one ulp around -1e300 lie at a distance whose square
    # overflows: the query drops them without a warning
    for i in (0, 1):
        for radius in (r, factor * r):
            assert_query_matches_scan(index, pts, i, radius, metric)


def assert_query_matches_scan(index, pts, i, radius, metric):
    """query gives the indices of the full scan, in ascending order."""
    hits = index.query(i, radius, metric)
    assert hits.dtype.kind == "i"
    np.testing.assert_array_equal(hits, brute_query(pts, i, radius, metric))
    return hits


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
    index = GridIndex(pts)
    for i in (0, 1):
        for radius in (r, factor * r):
            assert_query_matches_scan(index, pts, i, radius, metric)


@settings(max_examples=200, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    r=st.sampled_from([1e-3, 0.3, 1.0]),
    scale=st.sampled_from([1.0, 1e-160, 1e-300, 1e150, 1e300]),
    data=st.data(),
)
def test_window_holds_each_row_once_and_the_whole_ball(pts, metric, r, scale, data):
    # at scale 1e-160 and below the squares of dist_rows underflow, at
    # 1e150 and above they overflow, and the reaches can be infinite
    pts = with_centers(pts, metric, (r,), data)
    with np.errstate(over="ignore"):
        pts = pts * scale
    pts = pts[np.isfinite(pts).all(axis=1)]
    r *= scale
    index = GridIndex(pts)
    for i in range(min(4, len(pts))):
        window = index.rows(*index.windows(pts[i], r, metric))
        assert window.dtype.kind == "i" and window.ndim == 1
        assert np.all(window[1:] > window[:-1])
        assert np.isin(brute_query(pts, i, r, metric), window).all()


@settings(max_examples=200, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    r=st.sampled_from([1e-170, 1e-165, 1e-3, 0.3, 1e155, 1e160, 1e300]),
    data=st.data(),
)
def test_balls_and_covers_of_tied_clouds_match_full_scans(pts, metric, r, data):
    # clouds() ties x1, t or both; at 1e-170 and 1e-165 the squared
    # reach R^2 underflows to a subnormal, from 1e155 on it overflows
    # and opens the t window to the whole cloud
    mu = DiscreteMeasure(pts.shape[1] - 1, pts, np.ones(len(pts)))
    outside = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=pts.shape[1],
                       max_size=pts.shape[1])
    for a in (mu.points[data.draw(st.integers(0, mu.natoms - 1))], np.array(data.draw(outside))):
        rows, dist = mu.ball(a, r, metric)
        want_rows, want_dist = reference_ball(mu.points, a, r, metric)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(dist.view(np.uint64), want_dist.view(np.uint64))
    got = greedy_cover(mu, r, metric)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measure, "GridIndex", ScanIndex)
        want = greedy_cover(DiscreteMeasure(mu.n, mu.points, mu.weights), r, metric)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=300, deadline=None)
@given(pts=clouds())
def test_resolution_matches_full_scans(pts):
    # each atom's search radius is bounded by its x1 and its t
    # neighbours; ties, repeated atoms and outliers whose distances
    # overflow must still give the full scans' minima
    mu = DiscreteMeasure(pts.shape[1] - 1, pts, np.ones(len(pts)))
    assert mu.resolution() == reference_resolution(mu.points)


ball_radius = st.sampled_from([1e-170, 1e-3, 0.3, 1.0, 1e160, np.inf])


@settings(max_examples=200, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    radii=st.one_of(ball_radius, st.lists(ball_radius, min_size=1, max_size=8)),
    data=st.data(),
)
def test_balls_match_reference_balls_centre_by_centre(pts, metric, radii, data):
    # K centres, atoms and arbitrary points, from one windows call: each
    # ball has the rows and distance bits of its own full scan, at one
    # radius or one per centre; an inf radius holds every atom
    K = len(radii) if isinstance(radii, list) else data.draw(st.integers(1, 8))
    outside = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=pts.shape[1],
                       max_size=pts.shape[1])
    centres = np.array([pts[data.draw(st.integers(0, len(pts) - 1))] if data.draw(st.booleans())
                        else data.draw(outside) for _ in range(K)])
    got = list(GridIndex(pts).balls(centres, radii, metric))
    assert len(got) == K
    for c, r, (rows, dist) in zip(centres, np.broadcast_to(radii, K), got):
        want_rows, want_dist = reference_ball(pts, c, r, metric)
        np.testing.assert_array_equal(rows, want_rows)
        np.testing.assert_array_equal(dist.view(np.uint64), want_dist.view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(pts=clouds())
def test_nearest_matches_full_scans(pts):
    # the rows of clouds() come in any order, so both keys may need
    # their argsorts to find a row's x1 and t neighbours
    if len(pts) < 2:
        return
    rows = np.arange(len(pts))
    assert GridIndex(pts).nearest(rows) == ScanIndex(pts).nearest(rows)


def test_resolution_of_a_t_axis_cloud_reads_t_windows():
    # every atom shares x1, so each x1 window is the whole cloud; the t
    # windows hold a few atoms each, and the minima are the full scan's
    t = np.random.default_rng(12).random(5000)
    mu = DiscreteMeasure(1, np.column_stack([np.zeros_like(t), t]), np.ones(t.size))
    assert mu.resolution() == reference_resolution(mu.points)
    key, lo, hi = mu._index.windows(mu.points[::50], 1e-3)
    assert np.all(key == 1) and (hi - lo).max() < 50


@settings(max_examples=500, deadline=None)
@given(r=st.floats(5e-324, 1e150), d=st.integers(2, 5))
def test_t_reach_holds_every_t_difference_within_the_squared_reach(r, d):
    # |dt| <= R^2 exactly; T must be at least R^2 where R^2 is normal,
    # and below 2^-1022, where every difference of floats is a float,
    # no float may lie in (T, R^2]
    R = Fraction(_reach(r, d))
    T = _t_reach(_reach(r, d), "parabolic")
    assert Fraction(T) >= R * R or (R * R < Fraction(2) ** -1022
                                     and Fraction(np.nextafter(T, np.inf)) > R * R)
    assert _t_reach(_reach(r, d), "euclidean") == _reach(r, d)


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_ball_with_atoms_exactly_on_the_sphere(metric):
    # the dyadic grid x = k/32 puts atoms at distance exactly r of each
    # grid centre, for r = 1/4 and 1/8, in both metrics
    h = 1.0 / 32
    ax = np.arange(-32, 33) * h
    mesh = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    mesh = mesh[np.einsum("ij,ij->i", mesh, mesh) <= 1.0]
    pts = np.column_stack([mesh, np.zeros(len(mesh))])
    index = GridIndex(pts)
    for r in (0.25, 0.125):
        for i in range(0, len(pts), 97):
            for radius in (r, 2.0 * r):
                hits = assert_query_matches_scan(index, pts, i, radius, metric)
                assert np.any(dist_rows(pts[hits], pts[i], metric) == radius)


@pytest.mark.parametrize("metric, axis", [("parabolic", 0), ("parabolic", 1),
                                          ("euclidean", 0), ("euclidean", 1)])
def test_block_reaches_atoms_rounded_onto_the_sphere(metric, axis):
    # the centre sits half an ulp of the reach below 0 along `axis`, and
    # the atom at the reach is off by half an ulp more, which rounds
    # away: dist_rows puts it on the sphere, inside the window of the
    # centre along `axis`
    r = 0.25
    reach = r * r if (metric, axis) == ("parabolic", 1) else r
    center = np.zeros(2)
    center[axis] = -np.spacing(reach) / 2
    atom = np.zeros(2)
    atom[axis] = reach
    # atoms tied with the centre on the other axis make this window the
    # narrower one
    ties = np.zeros((12, 2))
    ties[:, axis] = np.r_[-7:-1, 2:8]
    pts = np.vstack([atom, center, ties])
    assert dist_rows(atom, center, metric) == r
    index = GridIndex(pts)
    key, lo, hi = index.windows(center, r, metric)
    assert key == (0 if axis == 0 else 1) and hi - lo == 2
    np.testing.assert_array_equal(index.query(1, r, metric), [0, 1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
@pytest.mark.parametrize("r", [1e-165, 1e-200, 5e-324])
def test_radius_whose_square_underflows(monkeypatch, metric, r):
    # r * r is 0.0, which once made a grid cell of width 0 along t; and
    # 1e-170 lies at dist_rows 0.0 from the origin, its square lost
    pts = np.array([[0.0, 0.0], [1e-170, 0.0], [1.0, 1.0]])
    index = GridIndex(pts)
    for i in range(len(pts)):
        for radius in (r, 2 * r, 1e-160):
            assert_query_matches_scan(index, pts, i, radius, metric)
    got = greedy_cover(pts, r, metric)
    monkeypatch.setattr(measure, "GridIndex", ScanIndex)
    np.testing.assert_array_equal(got, greedy_cover(pts, r, metric))
    assert len(got) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_radius_whose_square_overflows(metric):
    # r^2 = inf once made every grid cell edge NaN, so the queries came
    # back empty and greedy_cover never ended; an infinite t reach now
    # opens the t window to the whole cloud
    pts = np.random.default_rng(4).random((50, 3)) * 1e3
    index = GridIndex(pts)
    for r in (1e160, 1e200, 1e300):
        np.testing.assert_array_equal(index.query(0, r, metric), np.arange(50))
        assert len(greedy_cover(pts, r, metric)) == 1


@pytest.mark.filterwarnings("error:invalid value")
@pytest.mark.parametrize("r", [1e150, 1e160])
def test_differences_past_the_float_range_at_huge_radii(r):
    # the t reach is r^2, 1e300 or inf, and the window ends t -/+ r^2
    # overflow for some rows; p and q are 5e299 apart along t, within r
    o = -1e308
    q = sys.float_info.max + o
    pts = np.array([[0.0, o], [0.0, o], [0.0, o], [0.0, q], [0.0, q + 5e299]])
    index = GridIndex(pts)
    for i in range(5):
        np.testing.assert_array_equal(index.query(i, r), brute_query(pts, i, r, "parabolic"))
    np.testing.assert_array_equal(index.query(4, r), [3, 4])


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
    index = GridIndex(pts)
    for i in range(min(4, len(pts))):
        for radius in (r * scale, 2 * r * scale):
            np.testing.assert_array_equal(index.query(i, radius, metric),
                                          brute_query(pts, i, radius, metric))


def test_far_outlier_ball_is_quiet():
    # the two outliers are one ulp apart near -1e300, so their squared
    # difference overflows: the distance is inf, outside the ball, and
    # (as the suite turns RuntimeWarnings into errors) raises no warning
    pts = np.array([[-1e300, 0.0], [np.nextafter(-1e300, 0.0), 0.0]]
                   + [[float(k), 0.0] for k in range(5)])
    assert GridIndex(pts).query(0, 1.0).tolist() == [0]


def window_sizes(index, pts, r, metric):
    _, lo, hi = index.windows(pts, r, metric)
    return hi - lo


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
@pytest.mark.parametrize("far", [1e20, -1e20, 1e300, -1e300])
def test_far_outliers_neither_lose_atoms_nor_merge_the_cells(metric, far):
    # the grid this index replaced counted its cells from the middle row,
    # so that a far outlier took an edge cell of its own; a window is a
    # run of sorted keys, and the four outliers add at most themselves
    # to the windows of the other atoms
    rng = np.random.default_rng(8)
    pts = rng.random((500, 3))
    pts = np.vstack([pts, [far, 0.5, 0.5], [0.5, 0.5, far], np.full(3, far), np.full(3, far)])
    index = GridIndex(pts)
    wider = (window_sizes(index, pts[:500], 0.1, metric)
             - window_sizes(GridIndex(pts[:500]), pts[:500], 0.1, metric))
    assert wider.min() >= 0 and wider.max() <= 4
    for i in [*range(0, 500, 7), 500, 501, 502, 503]:
        assert_query_matches_scan(index, pts, i, 0.1, metric)
    np.testing.assert_array_equal(index.query(502, 0.1, metric), [502, 503])


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_shifted_cloud_at_tiny_radius(metric):
    # at 1e6 the floats are 2^-33 apart, about 0.1 of the radius 1e-9:
    # the window ends c -/+ R round to neighbouring floats, and still
    # hold every atom of the ball and leave the farther ones out
    rng = np.random.default_rng(6)
    pts = 1e6 + rng.integers(0, 40, (600, 3)) * 2.0**-33
    pts[:, -1] = 1e6 + rng.integers(0, 3, 600) * 2.0**-33
    r = 1e-9
    index = GridIndex(pts)
    assert window_sizes(index, pts, r, metric).max() < 600
    for i in range(0, 600, 5):
        for radius in (r, r / 2):
            assert_query_matches_scan(index, pts, i, radius, metric)


def test_build_peak_stays_within_two_copies_of_the_points():
    # the rows are sorted by x1, so x1 needs no argsort; the peak is the
    # argsort of t (intp, kept as the order) beside the sorted copy of
    # the t column it sorts, a quarter of the points here
    pts = reference_plane_cloud(3, 4, "vertical")
    # the cloud in the coordinates of P^3: x1, x2, a zero x3, t
    pts = np.insert(pts, 2, 0.0, axis=1)
    assert pts.shape[1] == 4
    tracemalloc.start()
    try:
        index = GridIndex(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    order = index._keys[1][1]
    assert index._keys[0][1] is None and order.dtype == np.intp
    assert peak <= (order.nbytes + pts[:, -1].nbytes) * 1.01


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_point_is_refused(bad):
    # an inf row was left out of every ball, and made a large query fail
    with pytest.raises(ValueError, match="points must be finite"):
        GridIndex(np.array([[0.0, 0.0], [bad, 0.0], [1.0, 1.0]]))


def test_row_out_of_range_is_rejected():
    index = GridIndex(np.zeros((3, 3)))
    for i in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            index.query(i, 0.1)


@pytest.mark.parametrize("r, message", [(np.inf, "radius must be finite"),
                                        (np.nan, "radius must be finite"),
                                        (0.0, "radius must be > 0"),
                                        (-1.0, "radius must be > 0")])
def test_radius_outside_zero_to_inf_is_refused(r, message):
    # r = inf built a grid index whose balls were empty; NaN did too,
    # and warned of an invalid cast
    pts = np.random.default_rng(1).random((20, 2))
    with pytest.raises(ValueError, match=f"^{message}$"):
        GridIndex(pts).query(0, r)


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


@pytest.mark.parametrize("cloud", [0, 1])
def test_workload_tangent_search_matches_full_scans(monkeypatch, cloud):
    # without a resolution hint, resolution() reads GridIndex.nearest,
    # and classify_points takes every ball from one GridIndex.balls call
    mu = reduced_clouds()[cloud]

    def search():
        nu = DiscreteMeasure(mu.n, mu.points, mu.weights)
        return nu.resolution(), classify_points(nu, TangentConfig(m=1, sample_size=40)).to_dict()

    got = search()
    monkeypatch.setattr(measure, "GridIndex", ScanIndex)
    assert search() == got


def traced_main(tmp_path, argv):
    """The Tracer of perfbench/tracer.py after cli.main runs argv, with
    "CSV" in argv standing for a cloud of 200 random atoms of P^1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.pop(0)
    pts = np.random.default_rng(2).random((200, 2))
    cloud = tmp_path / "c.csv"
    save_cloud_csv(DiscreteMeasure(1, pts, np.full(200, 1.0 / 200)), cloud)
    t = tracer.Tracer()
    t.install()
    try:
        rc = cli.main([str(cloud) if a == "CSV" else a for a in argv])
    finally:
        t.uninstall()
    assert rc == 0
    return t


def test_tracer_counts_the_index_and_the_cover(tmp_path):
    # perfbench/tracer.py patches GridIndex.__init__ and .query and reads
    # the points as the first argument of __init__; the cloud's one
    # index serves resolution() and the covers at every scale
    t = traced_main(tmp_path, ["dim", "-i", "CSV", "--scales", "3",
                               "-o", str(tmp_path / "d.json")])
    assert t.stats.calls["index.build"] == 1 and t.stats.calls["measure.greedy_cover"] == 3
    assert t.stats.counters["index.points_indexed"] == 200


def test_tracer_counts_one_classify_points_pass(tmp_path):
    # classify_points scores all its sampled atoms in one pass, whose
    # balls come from one GridIndex.balls call, resolves r_list once and
    # builds the cloud's one index, which resolution() reads too
    t = traced_main(tmp_path, ["tangent", "-i", "CSV", "--m", "1", "--sample-size", "7",
                               "-o", str(tmp_path / "t.json")])
    assert t.stats.calls["rectify.classify_points"] == 1
    assert t.stats.counters["rectify.points_classified"] == 7
    assert t.stats.calls["index.build"] == 1
    assert t.stats.calls["measure.resolution"] == 1


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
        # every sampled result must equal detect_tangent's at that atom
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
    """DiscreteMeasure.ball and the greedy cover share one ball.
    (0, nextafter(1/16)) is at d2 > 1/16 from the origin, but dist_rows
    rounds its distance to 1/4, so it lies in the closed ball of radius
    1/4."""

    edge = [0.0, np.nextafter(0.0625, 1.0)]

    def test_classify_points_matches_detect_tangent(self):
        mu = DiscreteMeasure(1, [[0.0, 0.0], self.edge, [0.1, 0.0]], [1.0, 1.0, 1.0])
        # the sample of three is every atom
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

"""The hashed neighbour index against brute-force distances, and the
far-outlier clouds that overflowed dense cell codes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabgmt import _index, measure
from parabgmt._index import GridIndex
from parabgmt.geometry import dist_rows
from parabgmt.measure import DiscreteMeasure, GridMap, greedy_cover, lip_image_cover_sum
from parabgmt.rectify import TangentConfig, classify_points, detect_tangent


def brute_query(pts, center, radius, metric):
    """Every index in the closed ball dist_rows <= radius, by a full
    scan."""
    return np.flatnonzero(dist_rows(pts, center, metric) <= radius)


class BruteIndex:
    """Drop-in GridIndex that scans every point."""

    def __init__(self, pts, r, metric="parabolic"):
        self.pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self.r = float(r)
        self.metric = metric

    def query(self, center, radius=None):
        radius = self.r if radius is None else float(radius)
        return brute_query(self.pts, center, radius, self.metric)


coord = st.floats(-2.0, 2.0, allow_nan=False, width=64)


@st.composite
def clouds(draw):
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(coord, min_size=n + 1, max_size=n + 1), min_size=1, max_size=60))
    pts = np.array(rows, dtype=float)
    if draw(st.booleans()):
        far = draw(st.sampled_from([1e4, -1e6, 1e12]))
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


@settings(max_examples=300, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    r=st.sampled_from([1e-3, 0.05, 0.25, 0.3, 1.0]),
    factor=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_query_matches_brute_force(pts, metric, r, factor, data):
    d = pts.shape[1]
    outside = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=d, max_size=d)
    centers = [pts[data.draw(st.integers(0, len(pts) - 1))], np.array(data.draw(outside))]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = np.vstack([pts] + [sphere_atoms(c, rad, metric, rng)
                             for c in centers for rad in (r, factor * r)])
    index = GridIndex(pts, r, metric)
    for center in centers:
        for radius in (None, factor * r):
            got = index.query(center, radius)
            want = brute_query(pts, center, r if radius is None else radius, metric)
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("metric, axis", [("parabolic", 0), ("parabolic", 1),
                                          ("euclidean", 0), ("euclidean", 1)])
def test_block_reaches_atoms_rounded_onto_the_sphere(metric, axis):
    # the centre sits half an ulp of the reach below 0 along `axis`, so
    # centre + reach ends just below the cell edge at reach; the atom on
    # that edge is off by half an ulp more, which rounds away, and
    # dist_rows puts it on the sphere, one cell past the block
    r = 0.25
    reach = r * r if (metric, axis) == ("parabolic", 1) else r
    center = np.zeros(2)
    center[axis] = -np.spacing(reach) / 2
    atom = np.zeros(2)
    atom[axis] = reach
    # atoms below the centre open the occupied cell range past it
    pts = np.vstack([atom, -np.eye(2)])
    assert dist_rows(atom, center, metric) == r
    np.testing.assert_array_equal(GridIndex(pts, r, metric).query(center), [0])


@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
def test_colliding_hash_only_adds_filtered_candidates(monkeypatch, metric):
    # unit multipliers send every cell with the same coordinate sum to one code
    monkeypatch.setattr(_index, "_multipliers", lambda d: [1] * d)
    pts = np.random.default_rng(3).random((400, 3))
    index = GridIndex(pts, 0.1, metric)
    for center in pts[:40]:
        for radius in (0.05, 0.1, 0.2):
            np.testing.assert_array_equal(
                index.query(center, radius), brute_query(pts, center, radius, metric))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
@pytest.mark.parametrize("r", [1e-165, 1e-200, 5e-324])
def test_radius_whose_square_underflows(monkeypatch, metric, r):
    # r * r is 0.0, so a cell of r^2 along t divided by zero; and
    # 1e-170 lies at dist_rows 0.0 from the origin, its square lost
    pts = np.array([[0.0, 0.0], [1e-170, 0.0], [1.0, 1.0]])
    index = GridIndex(pts, r, metric)
    for center in pts:
        for radius in (r, 2 * r, 1e-160):
            np.testing.assert_array_equal(index.query(center, radius),
                                          brute_query(pts, center, radius, metric))
    got = greedy_cover(pts, r, metric)
    monkeypatch.setattr(measure, "GridIndex", BruteIndex)
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
        np.testing.assert_array_equal(index.query(pts[0]), np.arange(50))
        assert len(greedy_cover(pts, r, metric)) == 1


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
    index = GridIndex(pts, r * scale, metric)
    for center in pts[:4]:
        for radius in (r * scale, 2 * r * scale):
            np.testing.assert_array_equal(index.query(center, radius),
                                          brute_query(pts, center, radius, metric))


def test_build_peak_stays_within_two_copies_of_the_points():
    # the peak is the float cell quotients beside their int64 cast; the
    # cell-ordered copy is made after both are freed, so it adds nothing
    pts = measure._flat_plane_cloud(3, 4, "vertical")[0]
    tracemalloc.start()
    try:
        GridIndex(pts, 0.15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * pts.nbytes * 1.01


def test_center_of_wrong_dimension_is_rejected():
    index = GridIndex(np.zeros((3, 3)), 0.1)
    with pytest.raises(ValueError, match="coordinates"):
        index.query([5.0, 5.0])


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
        monkeypatch.setattr(measure, "GridIndex", BruteIndex)
        np.testing.assert_array_equal(got, greedy_cover(mu, 1e-3))
        assert len(got) == 1001

    def test_classify_points_above_index_threshold(self):
        # every indexed result must equal the full scan of detect_tangent
        mu = outlier_cloud(5000, side=0.02)
        cfg = TangentConfig(m=1, r_list=(2e-3, 1e-3), plane_budget=8, sample_size=6,
                            refine_rounds=0)
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
    """The index, the full scan and the greedy cover share one ball.
    (0, nextafter(1/16)) is at d2 > 1/16 from the origin, but dist_rows
    rounds its distance to 1/4, so it lies in the closed ball of radius
    1/4."""

    edge = [0.0, np.nextafter(0.0625, 1.0)]

    def test_detect_tangent_with_and_without_index(self):
        mu = DiscreteMeasure(1, [[0.0, 0.0], self.edge, [0.1, 0.0]], [1.0, 1.0, 1.0])
        cfg = TangentConfig(m=1, s_list=(0.5,), r_list=(0.25,), plane_budget=4, refine_rounds=0)
        a = mu.points[0]
        plain = detect_tangent(mu, a, cfg)
        indexed = detect_tangent(mu, a, cfg, index=GridIndex(mu.points, 0.25))
        # the edge atom is perpendicular to the horizontal line: 1 / 0.25
        assert plain.defect_curve == [(0.25, 0.5, 4.0)]
        assert indexed.defect_curve == plain.defect_curve

    def test_greedy_cover_centres_more_than_r_apart(self):
        centers = greedy_cover(np.array([[0.0, 0.0], self.edge]), 0.25)
        gaps = [dist_rows(np.delete(centers, i, axis=0), c) for i, c in enumerate(centers)]
        assert all(gap.min() > 0.25 for gap in gaps if gap.size)
        assert dist_rows(np.array([self.edge]), centers[0])[0] <= 0.25

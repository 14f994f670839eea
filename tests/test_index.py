"""The hashed neighbour index against brute-force distances, and the
far-outlier clouds that overflowed dense cell codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parabgmt import _index, measure
from parabgmt._index import GridIndex
from parabgmt.measure import DiscreteMeasure, GridMap, greedy_cover, lip_image_cover_sum
from parabgmt.rectify import TangentConfig, classify_points, detect_tangent


def brute_query(pts, center, radius, metric):
    """Every index within radius of center, by a full scan with the
    distance formula of GridIndex.query."""
    diff = pts - np.asarray(center, dtype=float)
    d2 = np.einsum("ij,ij->i", diff[:, :-1], diff[:, :-1])
    if metric == "parabolic":
        d2 = d2 + np.abs(diff[:, -1])
    else:
        d2 = d2 + diff[:, -1] ** 2
    return np.flatnonzero(d2 <= radius * radius)


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
    return pts


@settings(max_examples=300, deadline=None)
@given(
    pts=clouds(),
    metric=st.sampled_from(["parabolic", "euclidean"]),
    r=st.sampled_from([1e-3, 0.05, 0.3, 1.0]),
    factor=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_query_matches_brute_force(pts, metric, r, factor, data):
    index = GridIndex(pts, r, metric)
    d = pts.shape[1]
    outside = st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=d, max_size=d)
    centers = [pts[data.draw(st.integers(0, len(pts) - 1))], np.array(data.draw(outside))]
    for center in centers:
        for radius in (None, factor * r):
            got = index.query(center, radius)
            want = brute_query(pts, center, r if radius is None else radius, metric)
            assert got.dtype.kind == "i"
            np.testing.assert_array_equal(got, want)


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

"""Discrete measures, coverings, dimension fits, densities, flat
constants and the Lipschitz-image covering sums."""

import math
import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_index import ScanIndex, reference_resolution

from parabgmt import geometry
from parabgmt._index import GridIndex
from parabgmt.geometry import DimensionMismatchError, HomPlane, ParaPoint
from parabgmt.rectify import blowup_measure
from parabgmt.measure import (
    CAND_CAP,
    EVAL_CAP,
    SPREAD,
    DiscreteMeasure,
    _flat_plane_cloud,
    _next_unset,
    _packing_value,
    _pairwise_ratio_max,
    _piece_diameters,
    _spread_index,
    _stride_pick,
    GridMap,
    canonical_order,
    canonical_sorted,
    default_scales,
    density_profile,
    dimension_fit,
    flat_constant_estimate,
    greedy_cover,
    lip_image_cover_sum,
    load_cloud_csv,
    save_cloud_csv,
)


# ---------------------------------------------------------------------------
# DiscreteMeasure


class TestDiscreteMeasure:
    def test_canonical_sort_and_merge(self):
        pts = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.5]])
        mu = DiscreteMeasure(1, pts, [1.0, 2.0, 3.0, 4.0])
        assert mu.natoms == 3
        assert mu.points[0] == pytest.approx([0.0, 0.5])
        # duplicates merged with summed weight
        i = int(np.flatnonzero((mu.points == [1.0, 0.0]).all(axis=1))[0])
        assert mu.weights[i] == 4.0
        assert mu.total_mass == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(1, [[0.0, 0.0, 0.0]], [1.0])
        with pytest.raises(ValueError):
            DiscreteMeasure(1, [[0.0, 0.0]], [0.0])
        with pytest.raises(ValueError):
            DiscreteMeasure(1, [[0.0, 0.0]], [-1.0])
        with pytest.raises(ValueError):
            DiscreteMeasure(1, [[np.inf, 0.0]], [1.0])

    def test_mass_in_ball_oracle(self):
        # parabolic ball of radius 0.5 around 0 holds |x|^2 + |t| <= 0.25
        pts = np.array([[0.4, 0.05], [0.4, 0.09], [0.0, 0.25], [0.0, 0.26]])
        mu = DiscreteMeasure(1, pts, np.ones(4))
        assert mu.mass_in_ball(np.zeros(2), 0.5) == 3.0
        assert mu.mass_in_ball(np.zeros(2), 0.5, metric="euclidean") == 4.0

    def test_restrict_ball(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        mu = DiscreteMeasure(1, pts, [1.0, 1.0])
        nu = mu.restrict_ball(np.zeros(2), 1.0)
        assert nu.natoms == 1
        with pytest.raises(ValueError):
            mu.restrict_ball(np.array([10.0, 0.0]), 0.5)

    @pytest.mark.parametrize("a", [np.array([0.0, 0.0]), [0.0, 5.0], np.zeros(4),
                                   ParaPoint([0.0], 0.0)])
    def test_ball_helpers_check_the_point(self, a):
        # a point of P^2 has three coordinates; two would broadcast to a wrong ball
        mu = DiscreteMeasure(2, np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), [1.0, 1.0])
        for call in (lambda: mu.mass_in_ball(a, 1.5), lambda: mu.restrict_ball(a, 1.5),
                     lambda: density_profile(mu, a, 1, [2.0, 1.0])):
            with pytest.raises(DimensionMismatchError):
                call()

    def test_resolution_hint_vs_measured(self):
        pts = np.column_stack([np.linspace(0, 1, 101), np.zeros(101)])
        mu = DiscreteMeasure(1, pts, np.ones(101), resolution_hint=0.01)
        assert mu.resolution() == 0.01
        nu = DiscreteMeasure(1, pts, np.ones(101))
        assert nu.resolution() == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", ["plain", "constant_x1", "tied_x1", "outlier"])
    def test_resolution_matches_full_scan(self, shape):
        # the x1 window must find every nearest neighbour a full scan finds
        for seed in range(24):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 4))
            size = int(rng.choice([2, 3, 5, 40, 257, 400]))
            scale = 10.0 ** rng.uniform(-8.0, 8.0)
            pts = rng.standard_normal((size, n + 1)) * scale
            pts[:, -1] *= scale ** float(rng.integers(0, 2))
            if shape == "constant_x1":
                pts[:, 0] = pts[0, 0]
            elif shape == "tied_x1":
                step = scale * 0.5
                pts[:, 0] = np.round(pts[:, 0] / step) * step
            elif shape == "outlier":
                pts[int(rng.integers(size)), 0] = 1e300 * rng.choice([-1.0, 1.0])
            mu = DiscreteMeasure(n, pts, np.ones(size))
            assert mu.resolution() == reference_resolution(mu.points), (shape, seed)

    @pytest.mark.filterwarnings("error")
    def test_far_outlier_scans_are_quiet(self):
        # distances to an atom at 1e300 overflow to +inf, outside every ball
        pts = np.column_stack([np.linspace(0.0, 1.0, 101), np.zeros(101)])
        mu = DiscreteMeasure(1, np.vstack([pts, [1e300, 0.0]]), np.ones(102))
        assert mu.resolution() == pytest.approx(0.01, rel=1e-9)
        assert mu.mass_in_ball(np.zeros(2), 0.1) == 11.0
        assert mu.restrict_ball(np.zeros(2), 0.1).natoms == 11
        assert density_profile(mu, np.zeros(2), 1.0, [0.2, 0.1]).values == pytest.approx(
            [21 / 0.4, 11 / 0.2])
        assert blowup_measure(mu, np.zeros(2), 0.1).natoms == 11

    def test_atoms_iterates_in_order(self):
        pts = np.array([[1.0, 0.0], [0.0, 0.0]])
        mu = DiscreteMeasure(1, pts, [1.0, 2.0])
        got = list(mu.atoms())
        assert got[0][0] == ParaPoint([0.0], 0.0)
        assert got[0][1] == 2.0

    def test_canonical_order_helpers(self):
        coords = np.array([[1.0, 2.0], [1.0, 1.0], [0.0, 3.0]])
        order = canonical_order(coords)
        assert list(order) == [2, 1, 0]
        assert canonical_sorted(coords)[0] == pytest.approx([0.0, 3.0])


class TestCsvRoundtrip:
    def test_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((200, 3)) * np.array([1.0, 1e-9, 1e9])
        mu = DiscreteMeasure(2, pts, rng.uniform(0.5, 2.0, 200))
        path = tmp_path / "cloud.csv"
        save_cloud_csv(mu, path)
        nu = load_cloud_csv(path)
        assert np.array_equal(mu.points, nu.points)
        assert np.array_equal(mu.weights, nu.weights)

    @given(
        st.lists(
            st.tuples(
                st.floats(-1e12, 1e12, allow_nan=False, width=64),
                st.floats(-1e12, 1e12, allow_nan=False, width=64),
                st.floats(1e-6, 1e6, allow_nan=False, width=64),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_roundtrip_property(self, rows):
        import tempfile

        pts = np.array([[a, b] for a, b, _ in rows])
        w = np.array([c for _, _, c in rows])
        mu = DiscreteMeasure(1, pts, w)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cloud.csv")
            save_cloud_csv(mu, path)
            nu = load_cloud_csv(path)
        assert np.array_equal(mu.points, nu.points)
        assert np.array_equal(mu.weights, nu.weights)

    def test_load_diagnostics(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,t\n1.0,2.0\n")
        with pytest.raises(ValueError, match="header"):
            load_cloud_csv(bad)
        bad2 = tmp_path / "bad2.csv"
        bad2.write_text("x1,t,w\n1.0,2.0\n")
        with pytest.raises(ValueError, match=":2:"):
            load_cloud_csv(bad2)
        bad3 = tmp_path / "bad3.csv"
        bad3.write_text("x1,t,w\n1.0,oops,1.0\n")
        with pytest.raises(ValueError, match=":2:"):
            load_cloud_csv(bad3)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_cloud_csv(empty)


def load_outcome(path):
    """The loaded atoms and weights as raw bits, or the error message."""
    try:
        mu = load_cloud_csv(path)
    except ValueError as exc:
        return str(exc)
    return mu.points.view(np.uint64).tolist(), mu.weights.view(np.uint64).tolist()


# (name, file text, True when the rows np.loadtxt parses are taken)
LOADER_CASES = [
    ("plain", "x1,t,w\n0.5,-2.0,1.0\n1e-3,3.0,2.0\n", True),
    ("quoted", 'x1,t,w\n"0.5",-2.0,1.0\n', False),
    ("underscore", "x1,t,w\n1_0,-2.0,1.0\n", False),
    ("crlf", "x1,t,w\r\n0.5,-2.0,1.0\r\n1.5,2.0,1.0\r\n", True),
    ("blank_lines", "x1,t,w\n\n0.5,-2.0,1.0\n\n\n1.5,2.0,1.0\n\n", True),
    ("single_row", "x1,x2,t,w\n0.5,0.25,-2.0,1.0", True),
    ("padded_fields", "x1,t,w\n 0.5 ,\t-2.0,1.0 \n", True),
    # more than 17 digits, the smallest normal and subnormal, underflow
    ("long_digits", "x1,t,w\n0.1000000000000000055511151231257827021181583404541015625,"
     "2.2250738585072011e-308,1.0\n4.9e-324,1e-400,1.0\n", True),
    ("whitespace_line", "x1,t,w\n0.5,-2.0,1.0\n   \n", False),
    ("trailing_comma", "x1,t,w\n0.5,-2.0,1.0,\n", False),
    ("empty_field", "x1,t,w\n0.5,,1.0\n", False),
    ("bad_number", "x1,t,w\n0.5,-2.0,1.0\n0.5,oops,1.0\n", False),
    ("too_few_fields", "x1,x2,t,w\n0.5,-2.0,1.0\n", False),
    ("comment", "x1,t,w\n# note\n0.5,-2.0,1.0\n", False),
    ("zero_weight", "x1,t,w\n0.5,-2.0,0.0\n", True),
    ("infinite", "x1,t,w\ninf,-2.0,1.0\n", True),
    ("header_only", "x1,t,w\n", False),
    ("header_only_crlf", "x1,t,w\r\n\r\n", False),
]


class TestCsvLoaderFastPath:
    """One np.loadtxt call reads the rows of a well-formed file; the
    csv line parser reads everything else.  Both must give the same
    atoms bit for bit, or the same message."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, text, fast", LOADER_CASES, ids=[c[0] for c in LOADER_CASES])
    def test_matches_line_parser(self, tmp_path, monkeypatch, capsys, name, text, fast):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(text.encode("utf-8"))
        parsed = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            try:
                rows = loadtxt(*args, **kwargs)
            except ValueError:
                parsed.append((0, 0))
                raise
            parsed.append(rows.shape)
            return rows

        def fail(*args, **kwargs):
            raise ValueError("line parser only")

        monkeypatch.setattr(np, "loadtxt", spy)
        got = load_outcome(path)
        columns = len(text.splitlines()[0].split(","))
        assert (parsed[0][0] > 0 and parsed[0][1] == columns) == fast
        monkeypatch.setattr(np, "loadtxt", fail)
        assert got == load_outcome(path)
        # no numpy warning or other noise, e.g. for a file without rows
        assert capsys.readouterr().err == ""

    def test_messages_name_the_line(self, tmp_path):
        path = tmp_path / "c.csv"
        want = {
            "whitespace_line": f"{path}:3: expected 3 fields, got 1",
            "trailing_comma": f"{path}:2: expected 3 fields, got 4",
            "empty_field": f"{path}:2: could not convert string to float: ''",
            "bad_number": f"{path}:3: could not convert string to float: 'oops'",
            "header_only": f"{path}: no data rows",
            "header_only_crlf": f"{path}: no data rows",
        }
        for name, text, _ in LOADER_CASES:
            if name in want:
                path.write_bytes(text.encode("utf-8"))
                assert load_outcome(path) == want[name], name

    def test_fallback_values(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('x1,t,w\n"0.5",1_0,1.0\n')
        mu = load_cloud_csv(path)
        assert mu.points.tolist() == [[0.5, 10.0]] and mu.weights.tolist() == [1.0]


# ---------------------------------------------------------------------------
# Coverings


class TestGreedyCover:
    def test_segment_count_oracle_horizontal(self):
        # a parabolic ball of radius r covers a 2r stretch of a
        # horizontal segment, so [0,1] needs about 1/(2r) balls
        pts = np.column_stack([np.linspace(0, 1, 2001), np.zeros(2001)])
        for r in (0.1, 0.05):
            ideal = math.ceil(1.0 / (2.0 * r))
            count = greedy_cover(pts, r).shape[0]
            assert ideal <= count <= ideal + 2

    def test_segment_count_oracle_vertical(self):
        # along the t-axis the same ball only covers a 2 r^2 stretch
        pts = np.column_stack([np.zeros(2001), np.linspace(0, 1, 2001)])
        for r in (0.25, 0.2):
            ideal = math.ceil(1.0 / (2.0 * r * r))
            count = greedy_cover(pts, r).shape[0]
            assert ideal <= count <= ideal + 2

    def test_invariants_and_determinism(self):
        rng = np.random.default_rng(9)
        pts = rng.random((600, 2))
        r = 0.2
        centers = greedy_cover(pts, r)
        again = greedy_cover(pts, r)
        assert np.array_equal(centers, again)
        # centers are input points
        flat = {tuple(row) for row in pts}
        assert all(tuple(row) in flat for row in centers)
        # separation > r and coverage <= r
        for i in range(centers.shape[0]):
            d = np.sqrt(
                (centers[:, 0] - centers[i, 0]) ** 2 + np.abs(centers[:, 1] - centers[i, 1])
            )
            d[i] = np.inf
            assert d.min() > r
        for p in pts:
            d = np.sqrt((centers[:, 0] - p[0]) ** 2 + np.abs(centers[:, 1] - p[1]))
            assert d.min() <= r + 1e-12

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            greedy_cover(np.zeros((3, 2)), 0.0)


def scan_next_unset(mask, start):
    while start < mask.size and mask[start]:
        start += 1
    return start


class TestNextUnset:
    """The windowed search finds what a scan one index at a time finds."""

    @pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 1000, 5000])
    @pytest.mark.parametrize("density", [0.0, 0.5, 0.99, 0.999, 1.0])
    def test_matches_a_scan(self, size, density):
        rng = np.random.default_rng(size)
        mask = rng.random(size) < density
        starts = {s for s in (0, size // 3, size // 2, size - 1, size) if s >= 0}
        starts |= set(rng.integers(0, size + 1, 20).tolist())
        for start in sorted(starts):
            assert _next_unset(mask, start) == scan_next_unset(mask, start)

    def test_all_set_and_none_set(self):
        for size in (1, 64, 200, 70000):
            for start in (0, size // 2, size - 1, size):
                assert _next_unset(np.ones(size, dtype=bool), start) == size
                assert _next_unset(np.zeros(size, dtype=bool), start) == start

    def test_lone_unset_index_past_many_windows(self):
        # windows of 64, 128, 256, ... from start; the gap sits at and
        # around their edges
        for gap in (0, 63, 64, 191, 192, 193, 4095, 9999):
            mask = np.ones(10000, dtype=bool)
            mask[gap] = False
            assert _next_unset(mask, 0) == gap
            assert _next_unset(mask, gap) == gap
            assert _next_unset(mask, gap + 1) == 10000


class TestStridePick:
    """The cached spread indices are the ones the formula gives."""

    @pytest.mark.parametrize("cap", [CAND_CAP, EVAL_CAP, SPREAD, 256])
    def test_matches_the_formula(self, cap):
        for size in (cap - 1, cap, cap + 1, cap + 2, 10 * cap):
            want = np.unique(np.round(np.linspace(0, size - 1, cap)).astype(int))
            got = _spread_index(size, cap)
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype and not got.flags.writeable
            assert _spread_index(size, cap) is got
            arr = np.arange(size) * 3 + 1
            picked = _stride_pick(arr, cap)
            np.testing.assert_array_equal(picked, arr if size <= cap else arr[want])

    def test_small_pieces_spread_over_every_row(self):
        for size in range(1, SPREAD + 1):
            np.testing.assert_array_equal(_spread_index(size, SPREAD), np.arange(size))
        assert _spread_index(SPREAD + 1, SPREAD).size < SPREAD + 1


def ref_greedy_cover(points, r, metric="parabolic", index_type=GridIndex):
    """The three-query greedy cover: (p, r) for the candidates, (p, 2r)
    for the evaluation sample and (best, r) for the ball marked
    covered."""
    pts = canonical_sorted(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    index = index_type(pts, r, metric)
    covered = np.zeros(npts, dtype=bool)
    centers = []
    scan = 0
    while True:
        while scan < npts and covered[scan]:
            scan += 1
        if scan == npts:
            break
        p = pts[scan]
        cand = index.query(p, r)
        cand = cand[~covered[cand]]
        cand = _stride_pick(cand, CAND_CAP)
        if scan not in cand:
            cand = np.sort(np.append(cand, scan))
        if cand.size == 1:
            best = int(cand[0])
        else:
            ev = index.query(p, 2.0 * r)
            ev = ev[~covered[ev]]
            ev = _stride_pick(ev, EVAL_CAP)
            gains = np.sum(geometry.dist_rows(pts[ev], pts[cand, None], metric) <= r, axis=1)
            best = int(cand[int(np.argmax(gains))])
        centers.append(best)
        covered[index.query(pts[best], r)] = True
    return pts[np.asarray(centers, dtype=int)]


def float_bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def last_float_where(lo, hi, ok):
    """The largest float x in [lo, hi) with ok(x), for ok true at lo
    and monotone."""
    a, b = float_bits(lo), float_bits(hi)
    while b - a > 1:
        mid = (a + b) // 2
        if ok(struct.unpack("<d", struct.pack("<q", mid))[0]):
            a = mid
        else:
            b = mid
    return struct.unpack("<d", struct.pack("<q", a))[0]


class TestGreedyCoverMatchesThreeQuery:
    """One query per centre gives the three-query centres bit for bit."""

    def assert_same(self, pts, r, metric, index_type=GridIndex):
        got = greedy_cover(pts, r, metric)
        want = ref_greedy_cover(pts, r, metric, index_type)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        return got

    @pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_clouds(self, n, metric):
        rng = np.random.default_rng(n)
        pts = rng.random((700, n + 1))
        # far outliers and repeated rows in a raw array
        pts = np.vstack([pts, np.full(n + 1, 1e12), -np.full(n + 1, 1e12), pts[:40]])
        for r in (0.05, 0.2, 0.6):
            self.assert_same(pts, r, metric)

    @pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
    def test_balls_larger_than_the_caps(self, metric):
        pts = np.random.default_rng(7).random((4000, 2))
        r = 0.3
        d = geometry.dist_rows(pts, pts[0], metric)
        assert np.sum(d <= r) > CAND_CAP and np.sum(d <= 2 * r) > EVAL_CAP
        self.assert_same(pts, r, metric)

    def test_dyadic_grid_puts_atoms_on_both_spheres(self):
        # x = k/8 and t = j/64: at r = 1/4 the r-sphere of a grid atom
        # holds e.g. (1/4, 0), (0, 1/16) and (1/8, 3/64) away, the
        # 2r-sphere (1/2, 0) and (0, 1/4), all exactly
        xs, ts = np.meshgrid(np.arange(-8, 9) / 8, np.arange(-64, 65) / 64, indexing="ij")
        pts = np.column_stack([xs.ravel(), ts.ravel()])
        for r in (0.25, 0.125):
            d = geometry.dist_rows(pts, pts[0])
            assert np.any(d == r) and np.any(d == 2 * r)
            self.assert_same(pts, r, "parabolic")
        self.assert_same(pts, 0.25, "euclidean")

    def test_atoms_one_ulp_around_the_spheres(self):
        rng = np.random.default_rng(5)
        base = rng.random((300, 3))
        r = 0.1
        shell = []
        for c in base[:6]:
            for rad in (r, 2 * r):
                u = rng.standard_normal((8, 2))
                x = u / np.linalg.norm(u, axis=1, keepdims=True) * rad * rng.random((8, 1))
                t = rng.choice([-1.0, 1.0], 8) * (rad * rad - np.einsum("ij,ij->i", x, x))
                on = c + np.column_stack([x, t])
                shell += [on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)]
        self.assert_same(np.vstack([base, *shell]), r, "parabolic")

    @pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
    def test_subnormal_squares(self, metric):
        # below radii of about 1e-155 the squared coordinate differences
        # of dist_rows fall into the subnormals
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            scale = 10.0 ** rng.uniform(-160, -145)
            pts = rng.random((int(rng.integers(2, 120)), n + 1)) * scale
            pts[:, -1] *= rng.choice([0.0, scale, 1.0])
            r = scale * 10.0 ** rng.uniform(-1.5, 0.0)
            got = self.assert_same(pts, r, metric)
            np.testing.assert_array_equal(got, ref_greedy_cover(pts, r, metric, ScanIndex))

    @pytest.mark.parametrize("r", [1e-160, 1e-158])
    def test_chain_past_the_relative_reach(self, r):
        # b is the farthest atom on the x-axis within r of the origin and
        # q the farthest within r of b; the rounding of the underflowing
        # squares puts q past 2r (1 + 2^-40) from the origin, so only the
        # pad of the reach lets one query cover it.  The atom at 1.5 r
        # makes b the better centre.
        def dist(u, v):
            return float(geometry.dist_rows(np.array([[u, 0.0]]), np.array([v, 0.0]))[0])

        b = last_float_where(r, 2 * r, lambda x: dist(x, 0.0) <= r)
        q = last_float_where(b, 3 * r, lambda x: dist(x, b) <= r)
        assert dist(q, 0.0) > 2 * r * (1 + 2**-40)
        pts = np.array([[0.0, 0.0], [b, 0.0], [1.5 * r, 0.0], [q, 0.0]])
        got = self.assert_same(pts, r, "parabolic", ScanIndex)
        assert got.tolist() == [[b, 0.0]]


class TestDimensionFit:
    def test_horizontal_segment_band(self):
        g = np.linspace(0.0, 1.0, 101)
        rep = dimension_fit(np.column_stack([g, np.zeros(101)]), [0.2, 0.1, 0.05])
        assert rep.counts == [3, 5, 10]
        assert 0.7 <= rep.fitted_dim <= 1.05

    def test_t_axis_band(self):
        g = np.linspace(0.0, 1.0, 201)
        rep = dimension_fit(np.column_stack([np.zeros(201), g]), [0.45, 0.35, 0.25])
        assert 1.6 <= rep.fitted_dim <= 2.1

    def test_metric_changes_the_answer(self):
        g = np.linspace(0.0, 1.0, 401)
        pts = np.column_stack([np.zeros(401), g])
        par = dimension_fit(pts, [0.45, 0.35, 0.25]).fitted_dim
        euc = dimension_fit(pts, [0.2, 0.1, 0.05], metric="euclidean").fitted_dim
        assert par > 1.5
        assert euc < 1.3

    def test_degenerate_cloud(self):
        rep = dimension_fit(np.zeros((5, 2)), [0.2, 0.1])
        assert rep.fitted_dim == 0.0
        assert rep.fit_residual is None

    def test_sum_exponents_formula(self):
        g = np.linspace(0.0, 1.0, 101)
        pts = np.column_stack([g, np.zeros(101)])
        rep = dimension_fit(pts, [0.2, 0.1], sum_exponents=(1.0, 2.0))
        for s in (1.0, 2.0):
            expect = [c * (2.0 * r) ** s for c, r in zip(rep.counts, rep.scales)]
            assert rep.sums[str(s)] == pytest.approx(expect, rel=1e-12)

    def test_report_dict(self):
        rep = dimension_fit(np.column_stack([np.linspace(0, 1, 51), np.zeros(51)]), [0.2, 0.1])
        d = rep.to_dict(seed=4)
        assert d["seed"] == 4
        assert d["metric"] == "parabolic"
        assert len(d["scales"]) == len(d["counts"]) == 2

    def test_needs_two_scales(self):
        with pytest.raises(ValueError):
            dimension_fit(np.zeros((3, 2)), [0.1])


class TestDefaultScales:
    def test_schedule_oracle(self):
        scales = default_scales(1e-3, count=4)
        assert scales == pytest.approx([3.2e-2, 1.6e-2, 8e-3, 4e-3], rel=1e-12)
        with pytest.raises(ValueError):
            default_scales(0.0)


class TestDensityProfile:
    def test_flat_line_density_one(self):
        # the line carries length measure: mu(B(0,r)) = 2r, so the
        # 1-density (2r)^{-1} mu(B) sits at 1
        g = np.linspace(-1.0, 1.0, 4001)
        w = np.full(4001, 2.0 / 4000)
        w[0] = w[-1] = 1.0 / 4000
        mu = DiscreteMeasure(1, np.column_stack([g, np.zeros(4001)]), w)
        est = density_profile(mu, np.zeros(2), 1.0, [0.4, 0.2, 0.1, 0.05])
        assert est.values == pytest.approx([1.0] * 4, abs=0.02)
        assert est.lower <= 1.0 + 0.02
        assert est.upper >= 1.0 - 0.02

    def test_scaling_exponent_matters(self):
        g = np.linspace(-1.0, 1.0, 4001)
        mu = DiscreteMeasure(1, np.column_stack([g, np.zeros(4001)]), np.full(4001, 2.0 / 4000))
        est = density_profile(mu, np.zeros(2), 2.0, [0.4, 0.2, 0.1])
        # with exponent 2 the values grow like 1/(2r) as r shrinks
        assert est.values[0] < est.values[-1]


class TestFlatConstants:
    def test_horizontal_line(self):
        est = flat_constant_estimate(1, 1, "horizontal")
        assert est.value == pytest.approx(2.0, rel=0.05)
        assert est.lower <= est.value <= est.upper and 1.0 <= est.value <= 2.0

    def test_t_axis(self):
        est = flat_constant_estimate(1, 2, "vertical")
        assert est.value == pytest.approx(2.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            flat_constant_estimate(1, 2, "horizontal")
        with pytest.raises(ValueError):
            flat_constant_estimate(1, 1, "vertical")
        with pytest.raises(ValueError):
            flat_constant_estimate(1, 1, "diagonal")
        with pytest.raises(ValueError):
            flat_constant_estimate(1, 1, "horizontal", scales=[0.1])


def ref_packing_value(pts, w, r, m, inflate):
    """_packing_value in two passes: block with one 2r-query per centre,
    then one r-query per interior centre for its piece.  Also returns
    the number of centres the interior test skips."""
    index = GridIndex(pts, 2.0 * r)
    npts = pts.shape[0]
    norm2 = np.einsum("ij,ij->i", pts[:, :-1], pts[:, :-1]) + np.abs(pts[:, -1])
    hx = np.asarray(inflate[:-1], dtype=float)
    ht = float(inflate[-1])
    blocked = np.zeros(npts, dtype=bool)
    centers = []
    for i in range(npts):
        if blocked[i]:
            continue
        centers.append(i)
        blocked[index.query(pts[i], 2.0 * r)] = True
    covered = np.zeros(npts, dtype=bool)
    total = 0.0
    skipped = 0
    for i in centers:
        if norm2[i] > (1.0 - r) ** 2:
            skipped += 1
            continue
        inside = index.query(pts[i], r)
        piece = pts[inside]
        pick = np.unique(np.concatenate([
            piece.argmin(axis=0),
            piece.argmax(axis=0),
            np.round(np.linspace(0, piece.shape[0] - 1, 128)).astype(int),
        ]))
        sub = piece[pick]
        dx = np.abs(sub[:, None, :-1] - sub[None, :, :-1]) + hx
        dd = np.einsum("...i,...i->...", dx, dx) + np.abs(sub[:, None, -1] - sub[None, :, -1]) + ht
        diam2 = min(float(dd.max()), (2.0 * r) ** 2)
        total += diam2 ** (m / 2.0)
        covered[inside] = True
    frac = float(np.sum(w[covered])) / float(np.sum(w))
    return (0.0 if frac == 0.0 else total / frac), skipped


class TestPackingMatchesTwoPass:
    """One 2r-query per centre gives the two-pass value bit for bit."""

    @pytest.mark.parametrize("n, m, family", [
        (1, 1, "horizontal"),
        (2, 2, "horizontal"),
        (1, 2, "vertical"),
        (2, 3, "vertical"),
        (3, 4, "vertical"),
    ])
    def test_same_float(self, n, m, family):
        pts, w, inflate = _flat_plane_cloud(n, m, family)
        # every scale skips centres near the unit sphere; at 0.9 no
        # centre is interior, so the value is 0.0
        for r in (0.9, 0.3, 0.15):
            want, skipped = ref_packing_value(pts, w, r, m, inflate)
            got = _packing_value(pts, w, r, m, inflate)
            assert skipped > 0 and (want == 0.0) == (r == 0.9)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_same_float_with_atoms_on_the_sphere(self):
        # a dyadic grid puts atoms exactly at distance r from each centre
        h = 1.0 / 32
        ax = np.arange(-32, 33) * h
        mesh = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
        mesh = mesh[np.einsum("ij,ij->i", mesh, mesh) <= 1.0]
        pts = np.column_stack([mesh, np.zeros(len(mesh))])
        w = np.full(len(pts), h * h)
        for r in (0.25, 0.125):
            want, _ = ref_packing_value(pts, w, r, 2, [h, h, 0.0])
            got = _packing_value(pts, w, r, 2, [h, h, 0.0])
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def padded_plane_cloud(n, m, family):
    """_flat_plane_cloud in the coordinates of P^n: zero columns, with
    grid steps 0.0, for the spatial axes the plane leaves out."""
    pts, w, inflate = _flat_plane_cloud(n, m, family)
    live = pts.shape[1] - 1
    pts = np.insert(pts, [live] * (n - live), 0.0, axis=1)
    return pts, w, inflate[:-1] + [0.0] * (n - live) + inflate[-1:]


class TestPlaneCloudInItsOwnCoordinates:
    @pytest.mark.parametrize("n, m, family, live", [
        (1, 1, "horizontal", 1),
        (2, 2, "horizontal", 2),
        (3, 1, "horizontal", 1),
        (2, 2, "vertical", 1),
        (2, 3, "vertical", 1),
        (3, 4, "vertical", 2),
    ])
    def test_packing_keeps_the_bits_of_the_padded_cloud(self, n, m, family, live):
        pts, w, inflate = _flat_plane_cloud(n, m, family)
        assert pts.shape[1] == live + 1 and len(inflate) == live + 1
        padded, w_padded, inflate_padded = padded_plane_cloud(n, m, family)
        assert padded.shape[1] == n + 1 and len(inflate_padded) == n + 1
        np.testing.assert_array_equal(w, w_padded)
        for r in (0.3, 0.15):
            got = _packing_value(pts, w, r, m, inflate)
            want = _packing_value(padded, w_padded, r, m, inflate_padded)
            assert got > 0.0
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)

    def test_dropped_columns_are_the_zero_ones(self):
        # the t-axis keeps one spatial column of zeros beside t
        pts, _, inflate = _flat_plane_cloud(3, 2, "vertical")
        assert not pts[:, 0].any() and pts[:, 1].any()
        assert inflate == [0.0, 2e-5]
        pts, _, inflate = _flat_plane_cloud(3, 1, "horizontal")
        assert pts[:, 0].any() and not pts[:, 1].any()
        assert inflate == [1e-3, 0.0]


def ref_piece_diam2(pts, inside, inflate):
    """One piece measured alone: its 128 evenly spread rows and each
    coordinate's first extreme rows, one (L, L) matrix per coordinate."""
    piece = pts[inside]
    mask = np.zeros(piece.shape[0], dtype=bool)
    mask[np.round(np.linspace(0, piece.shape[0] - 1, 128)).astype(int)] = True
    mask[piece.argmin(axis=0)] = True
    mask[piece.argmax(axis=0)] = True
    cols = piece[np.flatnonzero(mask)].T.copy()
    dx = [np.abs(c[:, None] - c) + h for c, h in zip(cols[:-1], inflate[:-1])]
    dd = geometry._sum_squares(dx) + np.abs(cols[-1][:, None] - cols[-1]) + inflate[-1]
    return float(dd.max())


def dyadic_disc(h):
    ax = np.arange(-1.0, 1.0 + h / 2, h)
    mesh = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    mesh = mesh[np.einsum("ij,ij->i", mesh, mesh) <= 1.0]
    return np.column_stack([mesh, np.zeros(len(mesh))])


class TestPieceDiameters:
    """The pieces measured in batches have the bits each has alone."""

    def assert_same(self, pts, pieces, inflate):
        rows = np.concatenate(pieces)
        sizes = np.array([p.size for p in pieces])
        want = [ref_piece_diam2(pts, p, inflate) for p in pieces]
        got = _piece_diameters(pts, rows, sizes, inflate)
        assert got.shape == (len(pieces),)
        np.testing.assert_array_equal(got.view(np.uint64), np.asarray(want).view(np.uint64))

    def random_pieces(self, rng, npts, sizes):
        return [np.sort(rng.choice(npts, size, replace=False)) for size in sizes]

    @pytest.mark.parametrize("cols", [2, 3, 4])
    def test_random_pieces_of_every_group(self, cols):
        rng = np.random.default_rng(cols)
        pts = rng.standard_normal((2000, cols))
        inflate = rng.random(cols).tolist()
        sizes = [1, 128, 129, 9, 9, 1, 2, 128, 40, 9, 300, 129, 2, 9, 1, 127]
        self.assert_same(pts, self.random_pieces(rng, len(pts), sizes), inflate)

    def test_ties_on_a_dyadic_grid(self):
        # grid rows share their coordinates, so the extreme rows of a
        # large piece are first occurrences among ties
        h = 1.0 / 32
        pts = dyadic_disc(h)
        index = GridIndex(pts, 0.25)
        pieces = []
        for r in (0.25, 0.125, 0.07, 0.03):
            for c in pts[:: max(1, len(pts) // 12)]:
                ball, dist = index.ball(c, r)
                pieces.append(np.sort(ball[dist <= r]))
        sizes = {p.size for p in pieces}
        assert min(sizes) <= SPREAD < max(sizes) and len(sizes) > 4
        self.assert_same(pts, pieces, [h, h, 0.0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_first_of_tied_extremes(self, sign):
        # rows a < b tie for the least (sign 1) or greatest x1 and lie
        # off the spread rows; only a reaches the far row 0, so the
        # diameter is the first occurrence's
        size = 200
        a, b = np.setdiff1d(np.arange(size), _spread_index(size, SPREAD))[:2]
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.random(size) * 0.1, rng.random(size) * 1.8 - 0.9, np.zeros(size)])
        pts[0, :2] = [0.1, -1.0]
        pts[-1, 1] = 1.0
        pts[a, :2] = [-1.0, 0.9]
        pts[b, :2] = [-1.0, 0.0]
        pts[:, 0] *= sign
        want = ref_piece_diam2(pts, np.arange(size), [0.0, 0.0, 0.0])
        assert want == 1.1**2 + 1.9**2
        self.assert_same(pts, [np.arange(size), np.arange(size)], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("tile", [1, 81, 2 * 81, 2 * 81 + 1, 3 * 81 - 1, 128 * 128 + 1])
    def test_chunk_edges(self, tile):
        rng = np.random.default_rng(tile)
        pts = rng.random((500, 3))
        sizes = [9] * 7 + [128] * 3 + [1] * 5 + [129, 9]
        pieces = self.random_pieces(rng, len(pts), rng.permutation(sizes))
        with mock.patch.object(geometry, "PAIR_TILE", tile):
            self.assert_same(pts, pieces, [0.01, 0.02, 0.003])


# ---------------------------------------------------------------------------
# Lipschitz-image covering sums


def identity_grid(M):
    ax = np.linspace(0.0, 1.0, M)
    return GridMap(np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1), (0.0, 1.0))


class TestGridMap:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GridMap(np.zeros((4, 5, 2)))
        with pytest.raises(ValueError):
            GridMap(np.zeros((4, 4, 3)))
        with pytest.raises(ValueError):
            GridMap(np.zeros((4, 4, 2)), domain=(1.0, 1.0))

    def test_from_function(self):
        gm = GridMap.from_function(lambda u: np.array([u[0], 0.0]), 1, 5)
        assert gm.M == 5 and gm.n == 1
        assert gm.flat_values()[:, 1] == pytest.approx(np.zeros(25))

    def test_domain_points_cover_cube(self):
        gm = identity_grid(5)
        dom = gm.domain_points()
        assert dom.shape == (25, 2)
        assert dom.min() == 0.0 and dom.max() == 1.0


class TestLipCoverSum:
    def test_identity_square_values(self):
        # the euclidean unit square mapped identically into P^1: the
        # covering sums must shrink roughly like N^{-1/2} per refinement
        gm = identity_grid(129)
        vals = [lip_image_cover_sum(gm, N).value for N in (4, 16, 64)]
        assert vals == pytest.approx([6.0, 3.125, 1.40625], rel=1e-12)
        for a, b in zip(vals, vals[1:]):
            assert 0.4 <= b / a <= 0.6

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(2, 4), npts=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           rows=st.sampled_from([1, 7, 128]))
    def test_pairwise_ratio_max_matches_double_loop(self, d, npts, seed, rows):
        rng = np.random.default_rng(seed)
        dom = rng.random((npts, d))
        img = rng.standard_normal((npts, d)) ** 3
        seps = (0.25, 0.75 * math.sqrt(d), 0.0, 2.0 * d)
        want = [0.0] * len(seps)
        for i in range(npts):
            for j in range(i + 1, npts):
                dd = math.sqrt(sum(u * u for u in dom[j] - dom[i]))
                dx = img[j] - img[i]
                dpar = math.sqrt(sum(u * u for u in dx[:-1]) + abs(dx[-1]))
                for k, sep in enumerate(seps):
                    if dd >= sep:
                        want[k] = max(want[k], dpar / dd)
        with mock.patch.object(geometry, "PAIR_TILE", rows * npts):
            got = _pairwise_ratio_max(dom, img, seps)
        assert got == pytest.approx(want, rel=1e-14)

    def test_constant_map_is_free(self):
        gm = GridMap(np.zeros((9, 9, 2)), (0.0, 1.0))
        res = lip_image_cover_sum(gm, 4)
        assert res.value == 0.0 and res.balls == 0

    def test_refinement_validation(self):
        gm = identity_grid(11)
        with pytest.raises(ValueError):
            lip_image_cover_sum(gm, 4)  # 10 is not divisible by 4
        with pytest.raises(ValueError):
            lip_image_cover_sum(identity_grid(9), 0)

    def test_report_dict(self):
        res = lip_image_cover_sum(identity_grid(9), 4)
        d = res.to_dict(seed=1)
        assert d["N"] == 4 and d["seed"] == 1
        assert d["balls"] >= d["columns"] >= 1

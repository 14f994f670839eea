"""Discrete measures, coverings, dimension fits, densities, flat
constants and the Lipschitz-image covering sums."""

import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_index import (
    ScanIndex,
    reference_ball,
    reference_extremal_mask,
    reference_plane_cloud,
    reference_resolution,
    reference_write_csv,
)

from parabgmt import _report, geometry, measure
from parabgmt._index import GridIndex
from parabgmt.geometry import DimensionMismatchError, HomPlane, ParaPoint
from parabgmt.rectify import TangentConfig, blowup_measure, cone_defect, detect_tangent
from parabgmt.measure import (
    CAND_CAP,
    EVAL_CAP,
    DiscreteMeasure,
    _flat_plane_counts,
    _next_unset,
    _pairwise_ratio_max,
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

    def test_ball_mass_oracle(self):
        # parabolic ball of radius 0.5 around 0 holds |x|^2 + |t| <= 0.25
        pts = np.array([[0.4, 0.05], [0.4, 0.09], [0.0, 0.25], [0.0, 0.26]])
        mu = DiscreteMeasure(1, pts, np.ones(4))
        assert mu.restrict_ball(np.zeros(2), 0.5).total_mass == 3.0
        assert mu.restrict_ball(np.zeros(2), 0.5, metric="euclidean").total_mass == 4.0

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
        for call in (lambda: mu.restrict_ball(a, 1.5),
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
        assert mu.restrict_ball(np.zeros(2), 0.1).natoms == 11
        assert density_profile(mu, np.zeros(2), 1.0, [0.2, 0.1]).values == pytest.approx(
            [21 / 0.4, 11 / 0.2])
        assert blowup_measure(mu, np.zeros(2), 0.1).natoms == 11
        line = HomPlane.horizontal_axes(1, (0,))
        assert cone_defect(mu, np.zeros(2), line, 0.5, 0.1, 1) == 0.0
        cfg = TangentConfig(m=1, r_list=(0.1, 0.05))
        assert detect_tangent(mu, np.zeros(2), cfg).best_plane == line

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_ball_helpers_refuse_a_radius_that_is_not_finite(self, r):
        mu = DiscreteMeasure(1, np.array([[0.0, 0.0], [0.1, 0.0]]), [1.0, 1.0])
        line = HomPlane.horizontal_axes(1, (0,))
        for call in (lambda: mu.ball(np.zeros(2), r),
                     lambda: mu.restrict_ball(np.zeros(2), r),
                     lambda: blowup_measure(mu, np.zeros(2), r),
                     lambda: cone_defect(mu, np.zeros(2), line, 0.5, r, 1)):
            with pytest.raises(ValueError, match="radius must be finite"):
                call()

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


@st.composite
def ball_cases(draw):
    """(mu, a, r): clouds with tied x1 columns, as in vertical_cantor, and
    outliers at +-1e300 with their one-ulp neighbours; centres on atoms,
    between two atoms and beyond both ends of x1; atoms on and one ulp
    around the ball's x1 extremes; radii whose square underflows up to
    1e300."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-160]))
    pts = rng.standard_normal((draw(st.integers(1, 40)), n + 1)) * scale
    if draw(st.booleans()):
        pts[:, 0] = np.round(pts[:, 0] / scale * 2.0) * (scale / 2.0)
    if draw(st.booleans()):
        far = np.zeros((4, n + 1))
        far[:, 0] = [1e300, -1e300, np.nextafter(1e300, 0.0), np.nextafter(-1e300, 0.0)]
        far[:, -1] = draw(st.sampled_from([0.0, 1e300]))
        pts = np.vstack([pts, far])
    r = draw(st.sampled_from([1e-163, 1e-3 * scale, 0.3 * scale, scale, 1e300]))
    j, k = (draw(st.integers(0, len(pts) - 1)) for _ in range(2))
    where = draw(st.sampled_from(["atom", "between", "below", "above"]))
    a = pts[j].copy()
    if where == "between":
        a = (pts[j] + pts[k]) / 2.0
    elif where == "below":
        a[0] = pts[:, 0].min() - r / 2.0
    elif where == "above":
        a[0] = pts[:, 0].max() + r / 2.0
    edge = np.vstack([a, a])
    edge[:, 0] += [r, -r]
    pts = np.vstack([pts, edge, np.nextafter(edge, np.inf), np.nextafter(edge, -np.inf)])
    return DiscreteMeasure(n, pts, np.ones(len(pts))), a, r


@settings(max_examples=400, deadline=None)
@given(case=ball_cases(), metric=st.sampled_from(["parabolic", "euclidean"]))
def test_ball_matches_full_scan(case, metric):
    # rows and distance bits of a scan over every atom, without a warning
    mu, a, r = case
    rows, dist = mu.ball(a, r, metric)
    want_rows, want_dist = reference_ball(mu.points, a, r, metric)
    assert rows.dtype.kind == "i"
    np.testing.assert_array_equal(rows, want_rows)
    np.testing.assert_array_equal(dist.view(np.uint64), want_dist.view(np.uint64))


def _measure_of(pts):
    return DiscreteMeasure(pts.shape[1] - 1, pts, np.ones(len(pts)))


# the public entry points that take an array, each as (what carries the
# coordinates, call(pts, a, r)): an array entry point reads them from
# the cloud, a measure entry point from the centre a, since
# DiscreteMeasure itself refuses a non-finite atom; None: no radius
ARRAY_ENTRY_POINTS = {
    "greedy_cover": ("cloud", lambda pts, a, r: greedy_cover(pts, r)),
    "GridIndex": ("cloud", lambda pts, a, r: GridIndex(pts).query(0, r)),
    "as_coord_array": ("cloud", None),
    "DiscreteMeasure": ("cloud", None),
    "DiscreteMeasure.ball": ("centre", lambda pts, a, r: _measure_of(pts).ball(a, r)),
    "restrict_ball": ("centre", lambda pts, a, r: _measure_of(pts).restrict_ball(a, r)),
    "blowup_measure": ("centre", lambda pts, a, r: blowup_measure(_measure_of(pts), a, r)),
    "cone_defect": ("centre", lambda pts, a, r: cone_defect(
        _measure_of(pts), a, HomPlane.horizontal_axes(pts.shape[1] - 1, (0,)), 0.5, r, 1)),
    "density_profile": ("centre", lambda pts, a, r: density_profile(
        _measure_of(pts), a, 1.0, [2.0 * r, r])),
}


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(ARRAY_ENTRY_POINTS)),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    in_radius=st.booleans(),
    data=st.data(),
)
def test_non_finite_coordinate_or_radius_is_refused(name, bad, in_radius, data):
    # every public array entry point refuses an inf or NaN coordinate
    # and an inf or NaN radius with a ValueError, and warns of nothing
    carrier, call = ARRAY_ENTRY_POINTS[name]
    n = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pts = rng.random((data.draw(st.integers(1, 30)), n + 1))
    a = pts[data.draw(st.integers(0, len(pts) - 1))].copy()
    r = data.draw(st.floats(1e-3, 2.0))
    if call is None:
        call = {"as_coord_array": lambda pts, a, r: geometry.as_coord_array(pts),
                "DiscreteMeasure": lambda pts, a, r: _measure_of(pts)}[name]
        in_radius = False
    if in_radius:
        r = abs(bad)  # -inf is a radius <= 0, refused as such
    else:
        target = pts if carrier == "cloud" else a
        target.flat[data.draw(st.integers(0, target.size - 1))] = bad
    with pytest.raises(ValueError, match="must be finite$"):
        call(pts, a, r)


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


# values on both sides of repr's switches to exponent notation (at 1e16
# and below 1e-4), the subnormals' ends and the largest float, each also
# negated, so a column can hold -0.0 and 0.0
CSV_EDGES = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e16,
             float(np.nextafter(1e16, 0.0)), 1e-4, float(np.nextafter(1e-4, 0.0)), 1e-5,
             float(np.nextafter(1e-5, 1.0)), 1.7976931348623157e308, 0.1, 1.0]
CSV_VALUES = st.one_of(st.sampled_from(CSV_EDGES + [-v for v in CSV_EDGES]), st.floats(width=64))

GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"
GOLDEN_CLOUDS = sorted(p.name for p in GOLDEN_CLI.glob("*.csv")
                       if p.read_text(encoding="utf-8").startswith("x1,"))


class TestWriteCsv:
    """write_csv against the per-row writer it replaced, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
               st.lists(CSV_VALUES, min_size=n + 2, max_size=n + 2), min_size=1, max_size=12)),
           st.integers(1, 5))
    def test_matches_the_per_row_writer(self, rows, block):
        header = [f"x{i + 1}" for i in range(len(rows[0]) - 2)] + ["t", "w"]
        columns = list(np.array(rows, dtype=float).T)
        with tempfile.TemporaryDirectory() as tmp:
            want, got = os.path.join(tmp, "want.csv"), os.path.join(tmp, "got.csv")
            reference_write_csv(want, header, columns)
            # blocks of 1 to 5 rows, so most row counts span several
            with mock.patch.object(_report, "_CSV_BLOCK", block):
                _report.write_csv(got, header, columns)
            with open(want, "rb") as fw, open(got, "rb") as fg:
                assert fg.read() == fw.read()

    def test_rows_over_several_blocks(self, tmp_path):
        nrows = 5 * _report._CSV_BLOCK // 2 + 1
        rng = np.random.default_rng(3)
        columns = [rng.integers(-40, 40, nrows) / 7.0, rng.standard_normal(nrows),
                   np.full(nrows, 1.0 / 3.0)]
        reference_write_csv(tmp_path / "want.csv", ["x1", "t", "w"], columns)
        _report.write_csv(tmp_path / "got.csv", ["x1", "t", "w"], columns)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_int_columns_are_written_as_ints(self, tmp_path):
        path = tmp_path / "c.csv"
        _report.write_csv(path, ["i", "x"], [np.array([0, 0, 1, -7, 2**63 - 1]),
                                             np.array([0.5, -0.0, 0.5, 1e16, 1e-5])])
        assert path.read_text() == ("i,x\n0,0.5\n0,-0.0\n1,0.5\n-7,1e+16\n"
                                    "9223372036854775807,1e-05\n")

    @pytest.mark.parametrize("name", GOLDEN_CLOUDS)
    def test_golden_cloud_saves_back_byte_for_byte(self, name, tmp_path):
        save_cloud_csv(load_cloud_csv(GOLDEN_CLI / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (GOLDEN_CLI / name).read_bytes()

    def test_peak_is_no_higher_than_the_per_row_writer(self, vcantor, tmp_path):
        mu = vcantor[0]
        columns = [*mu.points.T, mu.weights]
        peaks = []
        for write in (lambda: reference_write_csv(tmp_path / "want.csv", ["x1", "t", "w"], columns),
                      lambda: save_cloud_csv(mu, tmp_path / "got.csv")):
            tracemalloc.start()
            try:
                write()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert mu.natoms == 98304 and peaks[1] <= peaks[0]
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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
        for r in (0.0, -1.0):
            with pytest.raises(ValueError, match=r"radius must be > 0"):
                greedy_cover(np.zeros((3, 2)), r)

    # each call ran without end before the cover refused non-finite input
    NON_FINITE = {
        "inf_row": ("greedy_cover(np.array([[0.0, 0.0], [np.inf, 0.0], [1.0, 0.0]]), 0.5)",
                    "points must be finite"),
        "nan_row": ("greedy_cover(np.array([[0.0, 0.0], [0.5, np.nan], [1.0, 0.0]]), 0.5)",
                    "points must be finite"),
        "nan_radius": ("greedy_cover(PTS, math.nan)", "radius must be finite"),
        "inf_radius": ("greedy_cover(PTS, math.inf)", "radius must be finite"),
        "nan_scale": ("dimension_fit(PTS, [0.5, math.nan])", "radius must be finite"),
        "inf_scale": ("dimension_fit(PTS, [0.5, math.inf])", "radius must be finite"),
    }

    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_input_refused_within_ten_seconds(self, name, child_pythonpath):
        call, message = self.NON_FINITE[name]
        code = ("import math\nimport numpy as np\n"
                "from parabgmt.measure import dimension_fit, greedy_cover\n"
                "PTS = np.column_stack([np.linspace(0.0, 1.0, 11), np.zeros(11)])\n"
                f"try:\n    {call}\nexcept ValueError as exc:\n    print(exc)\n")
        # the child is killed, and the test fails, if it runs past the bound
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=10, check=True)
        assert done.stdout == message + "\n"


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

    @pytest.mark.parametrize("cap", [CAND_CAP, EVAL_CAP, 256])
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


def ref_greedy_cover(points, r, metric="parabolic", index_type=GridIndex):
    """The three-query greedy cover: (p, r) for the candidates, (p, 2r)
    for the evaluation sample and (best, r) for the ball marked
    covered, each a query of its own."""
    pts = canonical_sorted(np.asarray(points, dtype=float))
    npts = pts.shape[0]
    index = index_type(pts)
    covered = np.zeros(npts, dtype=bool)
    centers = []
    scan = 0
    while True:
        while scan < npts and covered[scan]:
            scan += 1
        if scan == npts:
            break
        cand = index.query(scan, r, metric)
        cand = cand[~covered[cand]]
        cand = _stride_pick(cand, CAND_CAP)
        if scan not in cand:
            cand = np.sort(np.append(cand, scan))
        if cand.size == 1:
            best = int(cand[0])
        else:
            ev = index.query(scan, 2.0 * r, metric)
            ev = ev[~covered[ev]]
            ev = _stride_pick(ev, EVAL_CAP)
            gains = np.sum(geometry.dist_rows(pts[ev], pts[cand, None], metric) <= r, axis=1)
            best = int(cand[int(np.argmax(gains))])
        centers.append(best)
        covered[index.query(best, r, metric)] = True
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


def first_centre_branch(pts, r, metric):
    """The branch greedy_cover takes at its first centre, row 0 of the
    canonical order, with nothing covered yet: "single" (no other
    candidate), "sampled" (more than EVAL_CAP rows within 2r), "band"
    (rows past 2r within the reach) or "matrix" (one gains matrix over
    every row within the reach)."""
    pts = canonical_sorted(pts)
    d = geometry.dist_rows(pts, pts[0], metric)
    within = np.count_nonzero(d <= 2.0 * r)
    if np.count_nonzero(d <= r) == 1:
        return "single"
    if within > EVAL_CAP:
        return "sampled"
    if np.count_nonzero(d <= geometry._reach(2.0 * r, pts.shape[1])) > within:
        return "band"
    return "matrix"


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
                # the ends of the t window: the centre's x at t -/+ rad^2,
                # with a column of that x along t to make it the narrower
                ends = c + np.outer(np.arange(-20, 21) / 2.0, [0.0, 0.0, rad * rad])
                on = np.vstack([on, ends])
                shell += [on, np.nextafter(on, np.inf), np.nextafter(on, -np.inf)]
        pts = np.vstack([base, *shell])
        self.assert_same(pts, r, "parabolic")
        self.assert_same(pts, r, "parabolic", ScanIndex)

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

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_clouds_reach_every_branch(self, seed):
        # the first centre of each cloud takes the branch its name says:
        # one gains matrix over every free row within the reach, a
        # sample cut to EVAL_CAP rows, or rows in the band past 2r
        rng = np.random.default_rng(seed)
        n = (1, 2, 3, 8)[seed % 4]
        metric = ("parabolic", "euclidean")[seed % 2]
        r = 0.25
        # a sparse cloud whose first row has a neighbour within r
        sparse = rng.random((300, n + 1))
        sparse[0, 0] = sparse[:, 0].min() - 0.5 * r * rng.random()
        step = np.append(np.full(n, r / (2.0 * np.sqrt(n))), r * r / 4.0)
        sparse = np.vstack([sparse, sparse[0] + step * rng.random(n + 1)])
        # a crowded cloud, every row within 2r of every other
        side = 2.0 * r / np.sqrt(n + 1)
        side = np.append(np.full(n, side), side * side if metric == "parabolic" else side)
        crowded = rng.random((int(rng.integers(EVAL_CAP + 1, 3 * EVAL_CAP)), n + 1)) * side
        # the chain of test_chain_past_the_relative_reach at a tiny
        # radius: b is the farthest atom on the x1-axis within rt of the
        # origin and q, in the band, the farthest within rt of b.  The
        # gains of b / 2 and b over the sample tie, so b / 2 is chosen;
        # a gain that counted q would choose b.  Seeded atoms beyond 4 rt
        # lie outside the first centre's reach.
        rt = (1e-160, 1e-158)[seed % 2]

        def dist(u, v):
            row = np.zeros((1, n + 1))
            row[0, 0] = u
            return float(geometry.dist_rows(row, np.append(v, np.zeros(n)), metric)[0])

        b = last_float_where(rt, 2 * rt, lambda x: dist(x, 0.0) <= rt)
        q = last_float_where(b, 3 * rt, lambda x: dist(x, b) <= rt)
        chain = np.zeros((5, n + 1))
        chain[:, 0] = [0.0, b / 2, b, 1.2 * rt, q]
        far = rng.random((60, n + 1)) * rt
        far[:, 0] = 4 * rt + 20 * rt * far[:, 0]
        if metric == "parabolic":
            far[:, -1] *= rt
        band = np.vstack([chain, far])
        assert first_centre_branch(band, rt, metric) == "band"
        self.assert_same(band, rt, metric, ScanIndex)
        for pts, branch in ((sparse, "matrix"), (crowded, "sampled")):
            assert first_centre_branch(pts, r, metric) == branch
            self.assert_same(pts, r, metric, ScanIndex)

    @pytest.mark.parametrize("metric", ["parabolic", "euclidean"])
    def test_sample_leaves_out_rows_at_infinite_distance(self, metric):
        # at r = 1e308, 2r overflows and the reach is capped at the
        # largest float; the last row's squared distance from the first
        # overflows, so it lies in no ball of the first row and not in
        # its sample.  Counted there, it would give the third row the
        # largest gain, and the third row would be the first centre.
        pts = np.array([[0.0, 0.0], [0.5e154, 0.0], [1.2e154, 0.0], [2.4e154, 0.0]])
        assert greedy_cover(pts, 1e308, metric).tolist() == [[0.0, 0.0], [2.4e154, 0.0]]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_candidate_distances_are_quiet(self):
        # the last two rows are candidates of the first, but more than
        # 1.3e154 apart, so the gains matrix and the distances from the
        # chosen centre hold squares that overflow to inf
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 6e153, 0.0], [1e-300, -1.1e154, 0.0]])
        got = greedy_cover(pts, 6e153)
        with np.errstate(over="ignore"):
            want = ref_greedy_cover(pts, 6e153, "parabolic", ScanIndex)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize("scales, message", [
        ([], "need at least one scale"),
        ([-0.1, 0.1], "radius must be > 0"),
        ([0.0, 0.1], "radius must be > 0"),
        ([math.nan, 0.1], "radius must be finite"),
        ([0.5, math.inf], "radius must be finite"),
    ])
    def test_scales_validated(self, scales, message):
        # a NaN scale was reported as "radius must be > 0", and r = inf
        # gave a value
        mu = DiscreteMeasure(1, np.zeros((1, 2)), [1.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            density_profile(mu, np.zeros(2), 1.5, scales)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_refused(self, s):
        # s = nan or inf gave nan or inf values
        mu = DiscreteMeasure(1, np.zeros((1, 2)), [1.0])
        with pytest.raises(ValueError, match="^density exponent s must be finite$"):
            density_profile(mu, np.zeros(2), s, [0.5, 0.25])

    @pytest.mark.parametrize("s, scales, message", [
        (2.0, [1e-160, 1e-170], "(2r)^-2.0 at scale r=1e-160 is not a finite float"),
        (-2.0, [1e300, 1.0], "(2r)^2.0 at scale r=1e+300 is not a finite float"),
        (-2.0, [1e308, 1.0], "(2r)^2.0 at scale r=1e+308 is not a finite float"),
    ])
    def test_factor_past_the_float_range_refused(self, s, scales, message, monkeypatch):
        # Python's power raised OverflowError, or (2r = inf) gave inf;
        # dimension_fit refuses the factor before it runs any cover
        mu = DiscreteMeasure(1, np.zeros((1, 2)), [1.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            density_profile(mu, np.zeros(2), s, scales)
        monkeypatch.setattr(measure, "greedy_cover", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dimension_fit(np.zeros((2, 2)), scales, sum_exponents=[-s])

    def test_power_of_r_past_the_float_range_refused(self):
        # r^-m, the scale of a cone defect and of a power blow-up, was a
        # bare Python power whose OverflowError reached the caller
        pts = np.array([[0.0, 0.0, 0.0], [1e-111, 0.0, 0.0], [0.0, 1e-111, 0.0], [1.0, 1.0, 1.0]])
        mu = DiscreteMeasure(2, pts, np.ones(4))
        message = r"^r\^-3\.0 at scale r=1e-110 is not a finite float$"
        with pytest.raises(ValueError, match=message):
            detect_tangent(mu, np.zeros(3), TangentConfig(m=3, r_list=(1e-110,)))
        with pytest.raises(ValueError, match=message):
            cone_defect(mu, np.zeros(3), HomPlane.horizontal_axes(2, (0,)), 0.5, 1e-110, 3)
        with pytest.raises(ValueError, match=r"^r\^-2\.0 at scale r=1e-200 is not a finite float$"):
            blowup_measure(mu, np.zeros(3), 1e-200, normalization="power", m=2)
        # a scale no ball reaches scores 0.0 and takes no power
        assert cone_defect(mu, np.ones(3), HomPlane.horizontal_axes(2, (0,)), 0.5, 1e-110, 3) == 0.0


class TestFlatConstants:
    def test_horizontal_line(self):
        est = flat_constant_estimate(1, 1, "horizontal")
        assert est.value == pytest.approx(2.0, rel=0.05)
        assert est.value == est.ball_atoms / est.extremal_atoms

    def test_t_axis(self):
        # the mesh reaches t = 1.0000000000020002, outside B(0,1); the
        # ball test drops it, so the count is exactly twice E*'s
        est = flat_constant_estimate(1, 2, "vertical")
        assert est.ball_atoms == 100000
        assert est.value == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            flat_constant_estimate(1, 2, "horizontal")
        with pytest.raises(ValueError):
            flat_constant_estimate(1, 1, "vertical")
        with pytest.raises(ValueError):
            flat_constant_estimate(1, 1, "diagonal")


class TestExtremalSet:
    """E*_V, built through the reference mask on coarse meshes of the
    planes, has parabolic diameter at most 1; the estimator counts the
    atoms that mask keeps."""

    @pytest.mark.parametrize("family, m, hx, ht", [
        ("horizontal", 1, 2.0**-9, None),
        ("horizontal", 2, 2.0**-5, None),
        ("vertical", 3, 2.0**-4, 2.0**-7),   # k = 1
        ("vertical", 4, 2.0**-3, 2.0**-5),   # k = 2
    ])
    def test_diameter_at_most_one(self, family, m, hx, ht):
        # dyadic steps put atoms on the boundary: x = +-1/2 on a
        # horizontal plane, t = +-1/2 at x = 0 on a vertical one, each
        # pair of them exactly 1 apart
        k = m if family == "horizontal" else m - 2
        axes = [np.arange(-1.0, 1.0 + hx / 2, hx)] * k
        axes.append(np.zeros(1) if ht is None else np.arange(-1.0, 1.0 + ht / 2, ht))
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k + 1)
        pts = mesh[reference_extremal_mask(mesh)]
        assert 500 <= len(pts) <= 2000
        d = geometry.dist_rows(pts, pts[:, None, :])
        assert 1.0 - 1e-12 <= d.max() <= 1.0 + 1e-12

    def test_counts_of_the_estimator(self):
        # every (n, family, m) with n <= 3, against the stored mesh
        for n in (1, 2, 3):
            for family, ms in (("horizontal", range(1, n + 1)), ("vertical", range(2, n + 2))):
                for m in ms:
                    pts = reference_plane_cloud(n, m, family)
                    want = (len(pts), int(np.count_nonzero(reference_extremal_mask(pts))))
                    assert _flat_plane_counts(n, m, family) == want, (n, family, m)

    def test_peak_memory_of_the_largest_mesh(self):
        # storing the 522,801 box rows of the (3, 4) mesh peaks at about
        # 24 MiB; the outer-sum masks take about 5 MiB
        tracemalloc.start()
        try:
            flat_constant_estimate(3, 4, "vertical")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestPlaneCloudInItsOwnCoordinates:
    @pytest.mark.parametrize("n, m, family, live", [
        (1, 1, "horizontal", 1),
        (2, 2, "horizontal", 2),
        (3, 1, "horizontal", 1),
        (2, 2, "vertical", 1),
        (2, 3, "vertical", 1),
        (3, 4, "vertical", 2),
    ])
    def test_padded_cloud_has_the_same_extremal_mask(self, n, m, family, live):
        pts = reference_plane_cloud(n, m, family)
        assert pts.shape[1] == live + 1
        # the cloud in the coordinates of P^n: zero columns for the
        # spatial axes the plane leaves out
        padded = np.insert(pts, [live] * (n - live), 0.0, axis=1)
        assert padded.shape[1] == n + 1
        np.testing.assert_array_equal(reference_extremal_mask(pts),
                                      reference_extremal_mask(padded))

    def test_dropped_columns_are_the_zero_ones(self):
        # the t-axis keeps one spatial column of zeros beside t
        pts = reference_plane_cloud(3, 2, "vertical")
        assert pts.shape[1] == 2
        assert not pts[:, 0].any() and pts[:, 1].any()
        pts = reference_plane_cloud(3, 1, "horizontal")
        assert pts.shape[1] == 2
        assert pts[:, 0].any() and not pts[:, 1].any()


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
        # one grid axis would map into P^0, which has no spatial axis
        with pytest.raises(ValueError, match="at least two grid axes"):
            GridMap(np.zeros((4, 1)))

    def test_values_are_a_read_only_copy(self):
        ax = np.linspace(0.0, 1.0, 9)
        values = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
        gm = GridMap(values)
        values[4, 4] = (7.0, 7.0)
        assert gm.values[4, 4].tolist() == [0.5, 0.5]
        with pytest.raises(ValueError):
            gm.values[0, 0, 0] = 1.0

    def test_ratios_are_computed_once(self):
        gm = identity_grid(129)
        with mock.patch.object(measure, "_pairwise_ratio_max",
                               wraps=measure._pairwise_ratio_max) as sweep:
            got = [lip_image_cover_sum(gm, N) for N in (4, 16, 64)]
        assert sweep.call_count == 1
        fresh = [lip_image_cover_sum(identity_grid(129), N) for N in (4, 16, 64)]
        assert [r.to_dict() for r in got] == [r.to_dict() for r in fresh]

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

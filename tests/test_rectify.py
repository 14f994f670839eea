"""Tangent detection, blow-ups, flatness scores and differentials."""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scan_index import reference_fit_differential

from parabgmt import geometry, rectify
from parabgmt.generators import GeneratorSpec, gen_flat, gen_graph, generate
from parabgmt.geometry import (
    GraphSamples,
    HomPlane,
    ParaPoint,
    candidate_planes,
    para_norm_rows,
    plane_distance,
    project_rows,
    sample_planes,
)
from parabgmt.measure import DiscreteMeasure, load_cloud_csv
from parabgmt.rectify import (
    DifferentialFit,
    FitConfig,
    TangentConfig,
    blowup_measure,
    classify_points,
    cone_defect,
    detect_tangent,
    fit_differential,
    flatness_defect,
    tangent_uniqueness_scan,
)


GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def line_cloud(resolution=2e-3):
    return gen_flat(HomPlane.horizontal_axes(1, (0,)), extent=1.0, resolution=resolution)[0]


def taxis_cloud(step=1e-3):
    t = np.arange(0.0, 1.0 + step / 2, step)
    w = np.full(t.size, step)
    return DiscreteMeasure(1, np.column_stack([np.zeros(t.size), t]), w, resolution_hint=math.sqrt(step))


class TestConeDefect:
    def test_hand_oracle(self):
        # V = t-axis of P^1, s = 0.5, r = 1, m = 2; atom (x, t) is
        # outside the cone iff |x| >= 0.5 sqrt(x^2 + |t|)
        pts = np.array([
            [0.0, 0.5],    # on the plane: inside
            [0.8, 0.2],    # 0.8 >= 0.5 * 0.9165: outside
            [0.1, 0.9],    # 0.1 <  0.5 * 0.9539: inside
            [0.3, -0.05],  # 0.3 >= 0.5 * 0.3082: outside
            [2.0, 0.0],    # beyond r: ignored
        ])
        mu = DiscreteMeasure(1, pts, [1.0, 2.0, 4.0, 8.0, 16.0])
        got = cone_defect(mu, np.zeros(2), HomPlane.t_axis(1), 0.5, 1.0, 2)
        assert got == pytest.approx(10.0)  # weights 2 + 8, r^-2 = 1

    def test_r_power_normalization(self):
        pts = np.array([[0.4, 0.0]])
        mu = DiscreteMeasure(1, pts, [3.0])
        base = cone_defect(mu, np.zeros(2), HomPlane.t_axis(1), 0.5, 0.5, 1)
        assert base == pytest.approx(6.0)
        quad = cone_defect(mu, np.zeros(2), HomPlane.t_axis(1), 0.5, 0.5, 2)
        assert quad == pytest.approx(12.0)

    def test_vertex_atom_never_counts(self):
        mu = DiscreteMeasure(1, np.array([[0.0, 0.0]]), [5.0])
        assert cone_defect(mu, np.zeros(2), HomPlane.t_axis(1), 0.5, 1.0, 2) == 0.0

    def test_validation(self):
        mu = DiscreteMeasure(1, np.array([[0.1, 0.0]]), [1.0])
        with pytest.raises(ValueError, match=r"aperture must lie in \(0, 1\)"):
            cone_defect(mu, np.zeros(2), HomPlane.t_axis(1), 1.5, 1.0, 2)
        with pytest.raises(ValueError, match="radius must be > 0"):
            cone_defect(mu, np.zeros(2), HomPlane.t_axis(1), 0.5, -1.0, 2)


class TestTangentConfig:
    def test_resolved_r_list(self):
        mu = line_cloud()
        cfg = TangentConfig(m=1)
        assert cfg.resolved_r_list(mu) == pytest.approx([1.6e-2, 8e-3, 4e-3], rel=1e-12)
        explicit = TangentConfig(m=1, r_list=(0.1, 0.05))
        assert explicit.resolved_r_list(mu) == (0.1, 0.05)

    @pytest.mark.parametrize("field,value,message", [
        ("s_list", (), "s_list must hold at least one aperture"),
        ("s_list", (0.5, 1.5), "s_list: aperture 1.5 must lie in (0, 1)"),
        ("s_list", (0.0,), "s_list: aperture 0.0 must lie in (0, 1)"),
        ("s_list", (float("nan"),), "s_list: aperture nan must lie in (0, 1)"),
        ("r_list", (), "r_list must hold at least one radius"),
        ("r_list", (0.1, -0.1), "r_list: radius -0.1 must be finite and > 0"),
        ("r_list", (0.0,), "r_list: radius 0.0 must be finite and > 0"),
        ("r_list", (math.inf,), "r_list: radius inf must be finite and > 0"),
        ("sample_size", 0, "sample_size must be >= 1, got 0"),
        ("sample_size", -5, "sample_size must be >= 1, got -5"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("threshold", math.nan, "threshold must be a number, got nan"),
    ])
    def test_fields_validated(self, field, value, message):
        with pytest.raises(ValueError) as err:
            TangentConfig(m=1, **{field: value})
        assert str(err.value) == message

    def test_edge_values_accepted(self):
        cfg = TangentConfig(m=1, s_list=[1e-9, 0.999], r_list=[1e-9], sample_size=1,
                            seed=0, threshold=math.inf)
        assert cfg.threshold == math.inf

    def test_to_dict_keys(self):
        d = TangentConfig(m=2).to_dict()
        assert set(d) == {
            "m", "s_list", "r_list", "threshold", "sample_size", "seed",
        }


class TestDetectTangent:
    def test_flat_line_is_horizontal(self):
        mu = line_cloud()
        cfg = TangentConfig(m=1, sample_size=20)
        res = detect_tangent(mu, np.zeros(2), cfg)
        assert res.classification == "horizontal"
        assert res.min_defect <= 1e-12
        assert plane_distance(res.best_plane, HomPlane.horizontal_axes(1, (0,))) <= 1e-9

    def test_t_axis_is_vertical(self):
        mu = taxis_cloud()
        res = detect_tangent(mu, np.array([0.0, 0.5]), TangentConfig(m=2))
        assert res.classification == "vertical"
        assert plane_distance(res.best_plane, HomPlane.t_axis(1)) <= 1e-9

    def test_empty_ball_yields_none(self):
        mu = DiscreteMeasure(1, np.array([[5.0, 0.0], [6.0, 0.0]]), [1.0, 1.0])
        res = detect_tangent(mu, np.zeros(2), TangentConfig(m=1, r_list=(0.5, 0.25)))
        assert res.classification == "none"
        assert res.best_plane is None and res.defect_curve == []

    @pytest.mark.parametrize("sampled", [False, True])
    def test_curve_is_cone_defect_of_argmin_plane(self, sampled):
        # the curve entry at (r, s) is cone_defect at (r, s) for the
        # argmin plane, bit for bit, and the min defect is the curve max;
        # sampled, the results are classify_points' on its own sample
        rng = np.random.default_rng(4)
        pts = rng.random((3000, 3)) * [1.0, 0.2, 1.0]
        mu = DiscreteMeasure(2, pts, rng.uniform(0.5, 2.0, 3000))
        cfg = TangentConfig(m=2, s_list=(0.5, 0.25, 0.1), r_list=(0.3, 0.2, 0.1))
        for a, res in tangents(mu, cfg, mu.points[::1000], sampled):
            assert len(res.defect_curve) == 9
            for r, s, defect in res.defect_curve:
                assert cone_defect(mu, a, res.argmin_plane, s, r, cfg.m) == defect
            assert res.min_defect == max(defect for _, _, defect in res.defect_curve)

    def test_tilted_graph_recovers_tilt(self):
        V = HomPlane.horizontal_axes(2, (0,))
        mu, _ = gen_graph(lambda C: np.column_stack([0.1 * C[:, 0], np.zeros(len(C))]),
                          V, resolution=2e-3)
        truth = HomPlane(2, np.array([[1.0, 0.1]]) / math.sqrt(1.01), False)
        cfg = TangentConfig(m=1, s_list=(0.1, 0.05, 0.02))
        res = detect_tangent(mu, np.zeros(3), cfg)
        assert res.classification == "horizontal"
        assert plane_distance(res.best_plane, truth) <= 0.05


# ---------------------------------------------------------------------------
# Reference: the per-ball scorer, one ball and one plane at a time: the ball
# by a full scan (ref_gather_ball), each plane's distances from its
# projection, every cell summed by np.sum over its masked weights, and one
# eigh per ball for the fits; the batched scoring must match it bit for bit


def ref_plane_defect_grid(V, delta, d, w, s_list, r_list, m, prefix):
    perp = para_norm_rows(project_rows(V, delta, "complement"))
    curve = []
    worst = 0.0
    for r, cnt in zip(r_list, prefix):
        if cnt == 0:
            for s in s_list:
                curve.append((r, s, 0.0))
            continue
        scale = float(r) ** (-float(m))
        dp = d[:cnt]
        pp = perp[:cnt]
        ww = w[:cnt]
        for s in s_list:
            defect = float(np.sum(ww[pp >= s * dp])) * scale
            curve.append((r, s, defect))
            if defect > worst:
                worst = defect
    return worst, curve


def tangents(mu, cfg, atoms, sampled):
    """(atom, result) pairs: detect_tangent at each of the atoms, or,
    sampled, classify_points on as many atoms of its seeded sample."""
    if not sampled:
        return [(a, detect_tangent(mu, a, cfg)) for a in atoms]
    report = classify_points(mu, dataclasses.replace(cfg, sample_size=len(atoms)))
    return [(p.coords(), res) for p, res in zip(report.points, report.results)]


def ref_ball_fits(n, m, delta, d, w):
    """The planes fitted to one ball: one moment matrix and one eigh."""
    u = delta[:, :-1] / d[:, None]
    top = np.linalg.eigh((u * w[:, None]).T @ u)[1][:, ::-1].T
    return [HomPlane(n, top[:k], vertical)
            for k, vertical in ((m, False), (m - 2, True)) if 1 <= k <= n - 1]


def ref_cone_defect(mu, a, V, s, r, m):
    delta, d, w = ref_gather_ball(mu, geometry.as_point(a, mu.n), r)
    return ref_plane_defect_grid(V, delta, d, w, (float(s),), (r,), m, [d.size])[0]


def ref_detect_tangent(mu, a, cfg, planes=None):
    a = geometry.as_point(a, mu.n)
    r_list = cfg.resolved_r_list(mu)
    s_list = tuple(float(s) for s in cfg.s_list)
    if planes is None:
        planes = candidate_planes(mu.n, cfg.m)
    delta, d, w = ref_gather_ball(mu, a, max(r_list))
    if d.size == 0:
        return None, [], "none", math.inf, None
    prefix = [int(np.searchsorted(d, r, side="right")) for r in r_list]
    best_worst, best_plane, best_curve = math.inf, None, []
    for V in list(planes) + ref_ball_fits(mu.n, cfg.m, delta, d, w):
        worst, curve = ref_plane_defect_grid(V, delta, d, w, s_list, r_list, float(cfg.m), prefix)
        if worst < best_worst:
            best_worst, best_plane, best_curve = worst, V, curve
    if best_worst > cfg.threshold:
        return None, best_curve, "none", best_worst, best_plane
    return best_plane, best_curve, best_plane.family, best_worst, best_plane


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


def same_plane(V, W):
    if V is None or W is None:
        return V is W
    return V.includes_t_axis == W.includes_t_axis and bits(V.horiz_basis) == bits(W.horiz_basis)


def assert_matches_reference(res, ref):
    best, curve, cls, min_defect, argmin = ref
    assert res.classification == cls
    assert bits(res.min_defect) == bits(min_defect)
    assert [(r, s) for r, s, _ in res.defect_curve] == [(r, s) for r, s, _ in curve]
    assert bits([x for _, _, x in res.defect_curve]) == bits([x for _, _, x in curve])
    assert same_plane(res.argmin_plane, argmin) and same_plane(res.best_plane, best)


def assert_scores_match_reference(mu, centres, planes, cfg):
    """Every plane's worst and cells from one _ball_scores pass over the
    centres, the fits included, bit for bit against the per-ball,
    per-plane reference."""
    centres = [geometry.as_point(a, mu.n) for a in centres]
    r_list = cfg.resolved_r_list(mu)
    s_list = tuple(float(s) for s in cfg.s_list)
    scores = list(rectify._ball_scores(mu, centres, planes, s_list, r_list, cfg.m, fit=True))
    assert len(scores) == len(centres)
    for a, score in zip(centres, scores):
        delta, d, w = ref_gather_ball(mu, a, max(r_list))
        if d.size == 0:
            assert score is None
            continue
        worst, grid, fitted = score
        fits = ref_ball_fits(mu.n, cfg.m, delta, d, w)
        assert len(fitted) == len(fits) and len(worst) == len(planes) + len(fits)
        assert all(same_plane(HomPlane(mu.n, *f), V) for f, V in zip(fitted, fits))
        prefix = [int(np.searchsorted(d, r, side="right")) for r in r_list]
        for V, x, cells in zip(list(planes) + fits, worst, grid):
            want = ref_plane_defect_grid(V, delta, d, w, s_list, r_list, float(cfg.m), prefix)
            assert bits(x) == bits(want[0])
            assert bits(cells.ravel()) == bits([c[2] for c in want[1]])


def reference_clouds():
    """(measure, config) pairs over both families and several m."""
    rng = np.random.default_rng(9)
    slab = rng.random((1500, 3)) * [1.0, 0.2, 1.0]
    tilted, _ = gen_graph(lambda C: np.column_stack([0.1 * C[:, 0], np.zeros(len(C))]),
                          HomPlane.horizontal_axes(2, (0,)), resolution=1e-2)
    vflat = gen_flat(HomPlane.vertical_axes(2, (0,)), extent=1.0, resolution=5e-2)[0]
    blob = rng.standard_normal((800, 4)) * [0.3, 0.3, 0.05, 0.1]
    return [
        (DiscreteMeasure(2, slab, rng.uniform(0.5, 2.0, 1500)),
         TangentConfig(m=2, r_list=(0.3, 0.2, 0.1), seed=1)),
        (tilted, TangentConfig(m=1, s_list=(0.1, 0.05, 0.02), seed=205)),
        (vflat, TangentConfig(m=3, threshold=0.2)),
        (DiscreteMeasure(3, blob, np.ones(800)),
         TangentConfig(m=3, r_list=(0.4, 0.2), seed=4)),
        (line_cloud(1e-2), TangentConfig(m=2, s_list=(0.9, 0.5))),
    ]


def ref_gather_ball(mu, a, r_max):
    """The punctured ball 0 < d <= r_max around a as (delta, d, w), by a
    full scan and a stable argsort."""
    ac = a.coords()
    pts, w = mu.points, mu.weights
    d = geometry.dist_rows(pts, ac)
    inside = np.flatnonzero((d > 0.0) & (d <= r_max))
    order = inside[np.argsort(d[inside], kind="stable")]
    return pts[order] - ac, d[order], w[order]


class TestGatherBall:
    @pytest.mark.parametrize("r_max", [0.25, 0.125])
    def test_ties_in_atom_order(self, r_max):
        # a dyadic grid gives many atoms at exactly equal distances, and
        # distinct weights show the order the tied atoms come in; one
        # more atom off the grid sees them from elsewhere
        xs, ts = np.meshgrid(np.arange(-8, 9) / 16, np.arange(-32, 33) / 256, indexing="ij")
        pts = np.vstack([np.column_stack([xs.ravel(), ts.ravel()]), [0.01, -0.003]])
        mu = DiscreteMeasure(1, pts, np.random.default_rng(2).uniform(0.5, 2.0, len(pts)))
        off = np.flatnonzero(np.all(mu.points == [0.01, -0.003], axis=1))
        centres = [ParaPoint.from_coords(mu.points[i]) for i in [*range(0, mu.natoms, 101), *off]]
        # width 1 fills each block up to PAIR_TILE rows; 2^14 leaves 4 rows
        # a block, so each of these balls, all larger, has one of its own
        for width in (1, 1 << 14):
            balls = []
            for delta, d, w, sizes in rectify._ball_blocks(mu, centres, r_max, width):
                cut = np.cumsum(sizes)[:-1]
                balls += zip(*(np.split(x, cut) for x in (delta, d, w)))
            assert len(balls) == len(centres)
            ties = 0
            for a, got in zip(centres, balls):
                want = ref_gather_ball(mu, a, r_max)
                ties += np.count_nonzero(np.diff(want[1]) == 0.0)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and bits(g) == bits(w)
            assert ties > 10


class TestBatchedScoringMatchesReference:
    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("sampled", [False, True])
    def test_detect_tangent(self, case, sampled):
        # sampled, the results are classify_points' on its own sample
        mu, cfg = reference_clouds()[case]
        sel = np.random.default_rng(case).choice(mu.natoms, 12, replace=False)
        for a, res in tangents(mu, cfg, mu.points[sel], sampled):
            assert_matches_reference(res, ref_detect_tangent(mu, a, cfg))

    @pytest.mark.parametrize("budget", [1, 3])
    def test_plane_chunks(self, budget):
        # budget 1: one plane per chunk; budget 3: three planes per chunk
        mu, cfg = reference_clouds()[0]
        planes = sample_planes(mu.n, cfg.m, 16, cfg.seed)
        r_list = cfg.resolved_r_list(mu)
        for a in mu.points[::300]:
            ball = ref_gather_ball(mu, ParaPoint.from_coords(a), max(r_list))
            count = len(planes) + len(ref_ball_fits(mu.n, cfg.m, *ball))
            width = len(cfg.s_list) * ball[1].size
            with mock.patch.object(geometry, "PAIR_TILE", budget * width):
                assert len(list(geometry.tile_slices(count, width))) == -(-count // budget)
                assert_scores_match_reference(mu, [a], planes, cfg)
                res = detect_tangent(mu, a, cfg, planes=planes)
            assert_matches_reference(res, ref_detect_tangent(mu, a, cfg, planes=planes))

    def test_empty_ball_and_zero_prefix(self):
        # one atom at distance 0.3: empty at r = 0.1, so its prefix count is 0
        mu = DiscreteMeasure(1, np.array([[0.3, 0.0], [5.0, 0.0]]), [1.0, 1.0])
        cfg = TangentConfig(m=2, s_list=(0.5,), r_list=(0.5, 0.1))
        res = detect_tangent(mu, np.zeros(2), cfg)
        assert_matches_reference(res, ref_detect_tangent(mu, np.zeros(2), cfg))
        assert res.defect_curve[1] == (0.1, 0.5, 0.0)
        empty = detect_tangent(mu, np.array([2.0, 0.0]), cfg)
        assert_matches_reference(empty, ref_detect_tangent(mu, np.array([2.0, 0.0]), cfg))

    def test_atom_on_the_cone_boundary_counts(self):
        # (0.5, 0.75) is at distance 1 from the vertex and 0.5 from the
        # t-axis: exactly on the boundary at s = 0.5, so outside the open cone
        mu = DiscreteMeasure(1, np.array([[0.5, 0.75], [0.0, 0.5]]), [3.0, 1.0])
        cfg = TangentConfig(m=2, s_list=(0.5, 0.25), r_list=(1.0,), threshold=10.0)
        res = detect_tangent(mu, np.zeros(2), cfg, planes=[HomPlane.t_axis(1)])
        assert res.defect_curve == [(1.0, 0.5, 3.0), (1.0, 0.25, 3.0)]
        assert_matches_reference(res, ref_detect_tangent(mu, np.zeros(2), cfg,
                                                         planes=[HomPlane.t_axis(1)]))

    def test_ties_go_to_the_earlier_plane(self):
        mu = line_cloud(1e-2)
        cfg = TangentConfig(m=1, r_list=(0.1,))
        horizontal = HomPlane.horizontal_axes(1, (0,))
        twin = HomPlane.horizontal_axes(1, (0,))
        for planes in ([horizontal, twin], [twin, horizontal]):
            res = detect_tangent(mu, np.zeros(2), cfg, planes=planes)
            assert res.argmin_plane is planes[0]
        # an atom on the t-axis is as far from every horizontal line of P^2
        # as from the vertex, so distinct planes score the same
        lone = DiscreteMeasure(2, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.01]]), [1.0, 1.0])
        flat = TangentConfig(m=1, s_list=(0.9,), r_list=(0.2,))
        planes = sample_planes(2, 1, 5, 0)
        for order in ([0, 1, 2, 3, 4], [3, 1, 4, 0, 2]):
            listed = [planes[i] for i in order]
            res = detect_tangent(lone, np.zeros(3), flat, planes=listed)
            assert res.argmin_plane is listed[0] and res.min_defect == 5.0


dyadic = st.integers(-8, 8).map(lambda k: k / 8)


@st.composite
def scoring_cases(draw):
    """(measure, config, planes, tile) over P^1 to P^3 and every valid m.

    The atoms lie on a dyadic grid, so many sit at equal distances from
    a centre and on the sphere of a dyadic radius, and carry unequal
    weights.  One atom far from the rest has an empty ball, and a far
    pair one-atom balls.  Optionally an atom 1e-170 from the origin,
    whose distance from it underflows to 0, sits at its centre.  planes
    is None (the canonical ones) or 1 to 5 sampled planes, and tile a
    PAIR_TILE that splits the centres and planes into small chunks."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n + 1))
    rows = draw(st.lists(st.lists(dyadic, min_size=n + 1, max_size=n + 1),
                         min_size=1, max_size=30))
    far = np.full(n + 1, 40.0)
    pts = np.vstack([rows, far, -far, -far + np.eye(n + 1)[0] / 32])
    if draw(st.booleans()):
        pts = np.vstack([pts, np.zeros(n + 1), np.eye(n + 1)[0] * 1e-170])
    weights = draw(st.lists(st.floats(0.125, 8.0), min_size=len(pts), max_size=len(pts)))
    radius = st.sampled_from([0.125, 0.25, 0.5, 1.0]) | st.floats(0.05, 1.5)
    cfg = TangentConfig(
        m=m,
        s_list=tuple(draw(st.lists(st.sampled_from([0.9, 0.5, 0.25]) | st.floats(0.01, 0.99),
                                   min_size=1, max_size=3))),
        r_list=tuple(draw(st.lists(radius, min_size=1, max_size=3))),
        threshold=draw(st.sampled_from([0.05, 1.0, math.inf])),
        sample_size=len(pts),
    )
    count = draw(st.integers(0, 5))
    planes = sample_planes(n, m, count, draw(st.integers(0, 9))) if count else None
    return DiscreteMeasure(n, pts, weights), cfg, planes, draw(st.sampled_from([1, 40, None]))


class TestScoringMatchesBruteForce:
    @settings(max_examples=80, deadline=None)
    @given(scoring_cases())
    def test_every_field_matches(self, case):
        mu, cfg, planes, tile = case
        off = mu.points[0] + 1 / 16
        with mock.patch.object(geometry, "PAIR_TILE", tile or geometry.PAIR_TILE):
            report = classify_points(mu, cfg)
            tangents = [detect_tangent(mu, a, cfg, planes=planes) for a in [*mu.points, off]]
            listed = planes or candidate_planes(mu.n, cfg.m)
            defects = [(cone_defect(mu, off, V, s, r, cfg.m), ref_cone_defect(mu, off, V, s, r, cfg.m))
                       for V in listed[:2] for s in cfg.s_list for r in cfg.r_list]
            assert_scores_match_reference(mu, [*mu.points, off], listed, cfg)
        np.testing.assert_array_equal([p.coords() for p in report.points], mu.points)
        for a, res in zip(mu.points, report.results):
            assert_matches_reference(res, ref_detect_tangent(mu, a, cfg))
        for a, res in zip([*mu.points, off], tangents):
            assert_matches_reference(res, ref_detect_tangent(mu, a, cfg, planes=planes))
        assert [bits(got) for got, _ in defects] == [bits(want) for _, want in defects]
        # the far pair, first in canonical order, has one-atom balls, and
        # the far atom, last, an empty one
        assert all(res.defect_curve for res in report.results[:2])
        assert report.results[-1].defect_curve == []


def ref_fitted_planes(n, m, delta, d, w):
    """_fitted_planes from one np.outer per atom."""
    C = np.zeros((n, n))
    for x, di, wi in zip(delta[:, :-1], d, w):
        C += wi * np.outer(x / di, x / di)
    top = np.linalg.eigh(C)[1][:, ::-1].T
    out = []
    if 1 <= m <= n - 1:
        out.append(HomPlane(n, top[:m], False))
    if 1 <= m - 2 <= n - 1:
        out.append(HomPlane(n, top[: m - 2], True))
    return out


def tilted_frame(n, k, seed):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((n, k)))[0].T


class TestFittedPlanes:
    @staticmethod
    def ball(pts, r_max=10.0):
        mu = DiscreteMeasure(pts.shape[1] - 1, pts, np.linspace(0.5, 2.0, len(pts)))
        return ref_gather_ball(mu, ParaPoint.from_coords(pts[0]), r_max)

    def assert_fits(self, n, m, ball, truth):
        got = rectify._fitted_planes(n, m, *ball)
        want = ref_fitted_planes(n, m, *ball)
        assert len(got) == len(want)
        assert all(plane_distance(V, W) <= 1e-12 for V, W in zip(got, want))
        fit = next(V for V in got if V.family == truth.family)
        assert plane_distance(fit, truth) <= 1e-12

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2), (4, 3)])
    def test_tilted_horizontal_flat_cloud(self, n, m):
        basis = tilted_frame(n, m, n + m)
        c = np.random.default_rng(m).uniform(-1.0, 1.0, (200, m))
        pts = np.column_stack([c @ basis, np.zeros(200)])
        self.assert_fits(n, m, self.ball(pts), HomPlane(n, basis, False))

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (3, 4), (4, 5)])
    def test_tilted_vertical_flat_cloud(self, n, m):
        basis = tilted_frame(n, m - 2, n + m)
        rng = np.random.default_rng(m)
        c = rng.uniform(-1.0, 1.0, (200, m - 2))
        pts = np.column_stack([c @ basis, rng.uniform(-1.0, 1.0, 200)])
        self.assert_fits(n, m, self.ball(pts), HomPlane(n, basis, True))

    def test_no_fit_for_a_single_plane_family(self):
        # k = 0 (the t-axis) and k = n (R^n x {0}) hold one plane each
        rng = np.random.default_rng(3)
        for n in range(1, 5):
            ball = self.ball(rng.uniform(-1.0, 1.0, (50, n + 1)))
            for m in range(1, n + 2):
                got = rectify._fitted_planes(n, m, *ball)
                want = [(k, vertical) for k, vertical in ((m, False), (m - 2, True))
                        if 1 <= k <= n - 1]
                assert [(V.k, V.includes_t_axis) for V in got] == want

    def test_atoms_closer_than_the_square_root_of_the_smallest_float(self):
        # d^2 underflows at d = 1e-155, so w / d^2 would overflow to inf
        line = np.array([[0.6, 0.8]])
        pts = np.column_stack([np.arange(12)[:, None] * 1e-155 * line, np.zeros(12)])
        ball = self.ball(pts, 1e-150)
        assert ball[1].size == 11
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rectify._fitted_planes(2, 1, *ball)
            want = ref_fitted_planes(2, 1, *ball)
        assert np.all(np.isfinite(got[0].horiz_basis))
        assert plane_distance(got[0], want[0]) <= 1e-12
        assert plane_distance(got[0], HomPlane(2, line, False)) <= 1e-12

    def test_the_canonical_plane_of_a_flat_cloud_keeps_winning(self):
        # the fit scores 0 as well, but comes after the candidate list
        mu = gen_flat(HomPlane.horizontal_axes(2, (0,)), extent=1.0, resolution=1e-2)[0]
        cfg = TangentConfig(m=1, r_list=(0.1, 0.05))
        planes = candidate_planes(2, 1)
        for a in mu.points[::40]:
            res = detect_tangent(mu, a, cfg, planes=planes)
            assert res.argmin_plane is planes[0] and res.min_defect == 0.0


class TestSeedIndependence:
    """The tangent of a rectifiable cloud does not depend on the seed: the
    planes searched are the canonical ones and those fitted to each ball.
    Each seed in the sweeps below missed the tilt with sampled and
    perturbed planes alone."""

    @pytest.mark.parametrize("name,m,s_list", [
        ("tilted.csv", 1, (0.1, 0.05, 0.02)),
        ("vertical.csv", 3, (0.5, 0.25, 0.1)),
    ])
    def test_detect_tangent_bits_do_not_depend_on_the_seed(self, name, m, s_list):
        # with 64 sampled planes ahead of the fits, a sampled plane that
        # tied with the fit won, and which one depended on the seed
        mu = load_cloud_csv(GOLDEN_CLI / name)
        for i in np.linspace(0, mu.natoms - 1, 12).round().astype(int):
            seen = set()
            for seed in range(10):
                res = detect_tangent(mu, mu.points[i], TangentConfig(m=m, s_list=s_list, seed=seed))
                V = res.best_plane
                seen.add((res.classification, res.min_defect.hex(),
                          tuple((r, s, x.hex()) for r, s, x in res.defect_curve),
                          None if V is None else (V.includes_t_axis, V.horiz_basis.tobytes())))
            assert len(seen) == 1, f"atom {i}"

    def test_tilted_horizontal_line(self):
        mu = load_cloud_csv(GOLDEN_CLI / "tilted.csv")
        missed = []
        for seed in range(100):
            cfg = TangentConfig(m=1, s_list=(0.1, 0.05, 0.02), sample_size=12, seed=seed)
            if classify_points(mu, cfg).fractions["horizontal"] != 1.0:
                missed.append(seed)
        assert missed == []

    def test_tilted_vertical_plane(self):
        spec = GeneratorSpec("user_graph", {"plane": {"n": 2, "axes": [0], "t": True},
                                            "expr": ["0.1*x1"], "resolution": 0.01})
        mu = generate(spec)[0]
        assert mu.natoms == 40401
        missed = []
        for seed in (1, 9, 10, 14, 17):
            cfg = TangentConfig(m=3, s_list=(0.1, 0.05, 0.02), sample_size=20, seed=seed)
            if classify_points(mu, cfg).fractions["vertical"] != 1.0:
                missed.append(seed)
        assert missed == []


class TestClassifyPoints:
    def test_fractions_sum_to_one(self):
        mu = line_cloud()
        rep = classify_points(mu, TangentConfig(m=1, sample_size=30))
        assert sum(rep.fractions.values()) == pytest.approx(1.0)
        assert rep.fractions["horizontal"] >= 0.95
        assert len(rep.results) == 30

    def test_report_dict_and_csv(self, tmp_path):
        mu = line_cloud(4e-3)
        rep = classify_points(mu, TangentConfig(m=1, sample_size=5))
        d = rep.to_dict()
        assert len(d["per_point"]) == 5
        assert set(d["fractions"]) == {"horizontal", "vertical", "none"}
        out = tmp_path / "curves.csv"
        rep.defect_curves_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "point_index,r,s,defect"
        assert len(lines) > 5


    def test_scoring_memory_does_not_grow_with_the_sample(self):
        # the balls are scored in blocks of about PAIR_TILE mask entries:
        # beyond the report it returns, classify_points peaks at about
        # 1.5 MiB here, where one block of all 20,001 balls took 26 MiB
        mu = line_cloud(1e-4)
        assert mu.natoms == 20001
        tracemalloc.start()
        try:
            rep = classify_points(mu, TangentConfig(m=1, sample_size=mu.natoms))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rep) == mu.natoms and rep.fractions["horizontal"] == 1.0
        assert peak - kept < 8 * 2**20


class TestBlowup:
    def test_mass_normalization(self):
        mu = line_cloud()
        nu = blowup_measure(mu, np.zeros(2), 0.25)
        assert nu.total_mass == pytest.approx(1.0)
        # the zoomed line still spans the unit ball
        assert nu.points[:, 0].min() == pytest.approx(-1.0, abs=0.02)
        assert nu.points[:, 0].max() == pytest.approx(1.0, abs=0.02)

    def test_power_normalization_oracle(self):
        pts = np.array([[0.1, 0.0], [0.2, 0.0]])
        mu = DiscreteMeasure(1, pts, [1.0, 1.0])
        nu = blowup_measure(mu, np.zeros(2), 0.5, normalization="power", m=2)
        assert nu.total_mass == pytest.approx(2.0 * 0.5 ** -2)

    def test_power_needs_m(self):
        mu = DiscreteMeasure(1, np.array([[0.1, 0.0]]), [1.0])
        with pytest.raises(ValueError):
            blowup_measure(mu, np.zeros(2), 0.5, normalization="power")

    def test_empty_ball_rejected(self):
        mu = DiscreteMeasure(1, np.array([[5.0, 0.0]]), [1.0])
        with pytest.raises(ValueError):
            blowup_measure(mu, np.zeros(2), 0.5)

    def test_ball_is_the_dist_rows_ball(self):
        # 2000 atoms of P^2 on the sphere of B(a, r) (three in four) or
        # inside it; rounding puts sphere atoms on either side of it
        rng = np.random.default_rng(0)
        a, r = np.array([0.1, 0.2, 0.3]), 0.1
        u = rng.standard_normal((2000, 2))
        share = rng.random(2000)  # |x|^2 of the unit-sphere point
        x = u / np.linalg.norm(u, axis=1)[:, None] * np.sqrt(share)[:, None]
        t = rng.choice([-1.0, 1.0], 2000) * (1.0 - share)
        shrink = np.where(rng.random(2000) < 0.25, rng.random(2000), 1.0)
        pts = a + np.column_stack([r * x * np.sqrt(shrink)[:, None], r * r * t * shrink])
        mu = DiscreteMeasure(2, pts, np.ones(2000))
        nu = blowup_measure(mu, a, r)
        kept = float(np.sum(mu.weights[geometry.dist_rows(mu.points, a) <= r]))
        assert nu.natoms == kept < 2000
        assert np.all(nu.weights == 1.0 / kept)

    def test_dyadic_composition(self):
        # zooming twice by 1/2 equals zooming once by 1/4 on the kept set
        mu = line_cloud()
        once = blowup_measure(mu, np.zeros(2), 0.25, normalization="power", m=1)
        twice = blowup_measure(
            blowup_measure(mu, np.zeros(2), 0.5, normalization="power", m=1),
            np.zeros(2), 0.5, normalization="power", m=1,
        )
        assert np.allclose(once.points, twice.points)
        assert np.allclose(once.weights, twice.weights)


class TestFlatnessDefect:
    def test_flat_half_and_diagonal(self):
        mu = line_cloud(5e-3)
        nu = blowup_measure(mu, np.zeros(2), 0.5)
        best, defect = flatness_defect(nu, 1)
        assert defect == 0.0 and best.family == "horizontal"

        keep = mu.points[:, 0] >= 0.0
        half = DiscreteMeasure(1, mu.points[keep], mu.weights[keep])
        _, d_half = flatness_defect(blowup_measure(half, np.zeros(2), 0.5), 1)
        assert d_half == pytest.approx(0.5, abs=0.15)

        y = np.linspace(-1.0, 1.0, 801)
        diag = DiscreteMeasure(1, np.column_stack([y, y]), np.full(801, 2.0 / 800))
        _, d_diag = flatness_defect(blowup_measure(diag, np.zeros(2), 0.5), 1)
        assert d_diag >= 0.9

    def test_plane_rank_validation(self):
        mu = DiscreteMeasure(1, np.array([[0.0, 0.0]]), [1.0])
        with pytest.raises(ValueError):
            flatness_defect(mu, 3)

    @pytest.mark.parametrize("budget", [1, 3, None])
    def test_given_planes_and_chunks_leave_the_result(self, budget):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((400, 3)) * [0.5, 0.05, 0.3]
        pts[0] = 0.0  # the blow-up centre, which no fit can use
        nu = DiscreteMeasure(2, pts, np.ones(400))
        planes = sample_planes(2, 1, 16, 3)
        best, defect = flatness_defect(nu, 1, planes=planes)
        with mock.patch.object(geometry, "PAIR_TILE", (budget or 10**6) * nu.natoms):
            got, got_defect = flatness_defect(nu, 1, planes=planes)
        assert same_plane(got, best) and got_defect == defect
        # the reference: one plane at a time, the given planes and then the
        # fit to the atoms off the origin, the first of equal scores kept
        d = para_norm_rows(pts)
        listed = planes + rectify._fitted_planes(2, 1, pts[1:], d[1:], nu.weights[1:])
        scores = []
        for V in listed:
            dist = para_norm_rows(project_rows(V, nu.points, "complement"))
            tube = dist <= 0.05
            scores.append(min(1.0, 1.0 - float(np.sum(nu.weights[tube])) / nu.total_mass
                              + rectify._empty_cell_fraction(V, nu.points[tube])))
        assert len(listed) == 17
        assert same_plane(got, listed[scores.index(min(scores))]) and got_defect == min(scores)

    def test_the_fit_finds_a_tilted_blow_up(self):
        # the blow-up of x2 = 0.1 x1 is the tilted line itself, which no
        # canonical line of P^2 holds in its tube
        x = np.linspace(-1.0, 1.0, 401)
        nu = DiscreteMeasure(2, np.column_stack([x, 0.1 * x, np.zeros_like(x)]), np.ones(401))
        truth = HomPlane(2, np.array([[1.0, 0.1]]) / math.sqrt(1.01), False)
        best, defect = flatness_defect(nu, 1)
        assert plane_distance(best, truth) <= 1e-12 and defect == 0.0


class TestUniquenessScan:
    def test_flat_line_unique_tangent(self):
        mu = line_cloud(5e-3)
        scan = tangent_uniqueness_scan(mu, np.zeros(2), (0.4, 0.2, 0.1), 1)
        assert scan.spread <= 1e-9
        assert scan.max_defect <= 1e-9
        d = scan.to_dict()
        assert len(d["planes"]) == 3

    def test_samples_the_candidate_planes_once(self):
        mu = line_cloud(5e-3)
        with mock.patch.object(rectify, "candidate_planes", wraps=candidate_planes) as spy:
            scan = tangent_uniqueness_scan(mu, np.zeros(2), (0.4, 0.2, 0.1), 1)
        assert spy.call_count == 1 and spy.call_args.args == (1, 1)
        assert scan.max_defect <= 1e-9

    def test_needs_three_scales(self):
        mu = line_cloud(5e-3)
        with pytest.raises(ValueError):
            tangent_uniqueness_scan(mu, np.zeros(2), (0.4, 0.2), 1)


class TestFitDifferential:
    def _graph(self, f, n=2):
        V = HomPlane.horizontal_axes(n, (0,))
        x = np.linspace(-1.0, 1.0, 2001)
        cols = [x] + [f(x)] + [np.zeros_like(x)] * (n - 1)
        return GraphSamples.from_points(np.column_stack(cols), V)

    def test_linear_graph_exact(self):
        g = self._graph(lambda x: 0.5 * x)
        fit = fit_differential(g, 1000, FitConfig(scales=(0.5, 0.1, 0.02)))
        assert fit.verdict == "differentiable" and not fit.flagged
        assert np.asarray(fit.lam) == pytest.approx(np.array([[0.5]]), abs=1e-9)
        assert all(v <= 1e-9 for _, v in fit.residual_curve)

    def test_quadratic_residual_shrinks_linearly(self):
        g = self._graph(lambda x: x * x)
        fit = fit_differential(g, 1000, FitConfig(scales=(0.5, 0.1, 0.02)))
        assert fit.verdict == "differentiable"
        residuals = [v for _, v in fit.residual_curve]
        assert residuals == pytest.approx([0.5, 0.1, 0.02], rel=0.1)

    def test_kink_detected(self):
        g = self._graph(np.abs)
        fit = fit_differential(g, 1000, FitConfig(scales=(0.5, 0.1, 0.02)))
        assert fit.verdict == "not_differentiable"
        assert fit.residual_curve[-1][1] >= 0.9

    def test_time_drift_cannot_be_matched(self):
        # values sitting on t = x: the mismatch sqrt|dt| / |dx| blows up
        V = HomPlane.horizontal_axes(2, (0,))
        x = np.linspace(-1.0, 1.0, 2001)
        g = GraphSamples.from_points(np.column_stack([x, np.zeros_like(x), x]), V)
        fit = fit_differential(g, 1000, FitConfig(scales=(0.5, 0.1)))
        assert fit.verdict == "not_differentiable"
        assert fit.residual_curve[-1][1] >= 10.0

    def test_sqrt_graph_over_t_axis(self):
        # x = L sqrt(t) over the t-axis: the residual at the origin is
        # exactly L at every scale
        t = np.linspace(0.0, 1.0, 4001)
        g = GraphSamples.from_points(np.column_stack([0.3 * np.sqrt(t), t]), HomPlane.t_axis(1))
        fit = fit_differential(g, 0, FitConfig(scales=(0.5, 0.1, 0.02)))
        assert fit.verdict == "not_differentiable"
        for _, v in fit.residual_curve:
            assert v == pytest.approx(0.3, rel=1e-9)

    def test_sparse_neighborhood_flagged(self):
        V = HomPlane.horizontal_axes(2, (0,))
        pts = np.column_stack([np.array([0.0, 0.3, 0.6]), np.zeros(3), np.zeros(3)])
        g = GraphSamples.from_points(pts, V)
        fit = fit_differential(g, 0, FitConfig(scales=(1.0, 0.01)))
        assert fit.flagged and fit.verdict is None

    def test_index_and_scale_validation(self):
        g = self._graph(lambda x: 0.0 * x)
        with pytest.raises(IndexError):
            fit_differential(g, 10**6, FitConfig(scales=(0.5,)))
        with pytest.raises(ValueError):
            fit_differential(g, 0, FitConfig(scales=()))

    @pytest.mark.parametrize("index", [3.7, 3.0, "3", None])
    def test_point_index_must_be_an_integer(self, index):
        # int(3.7) once fitted row 3
        with pytest.raises(TypeError):
            fit_differential(self._graph(lambda x: 0.5 * x), index, FitConfig(scales=(0.5,)))

    def test_numpy_integer_index(self):
        g = self._graph(lambda x: 0.5 * x)
        fit = fit_differential(g, np.int64(1000), FitConfig(scales=(0.5,)))
        assert type(fit.point_index) is int and fit.point_index == 1000

    @pytest.mark.parametrize("bad, why", [
        (0.0, "> 0"), (-0.1, "> 0"), (-math.inf, "> 0"),
        (math.nan, "finite"), (math.inf, "finite")])
    def test_every_scale_is_a_radius(self, bad, why):
        # NaN and r <= 0 once flagged the fit, and inf fitted the whole graph
        g = self._graph(lambda x: 0.5 * x)
        for scales in ((bad,), (0.5, bad), (bad, 0.1, 0.02)):
            with pytest.raises(ValueError, match=f"radius must be {why}"):
                fit_differential(g, 1000, FitConfig(scales=scales))

    def test_graph_arrays_are_read_only(self):
        # fits read the arrays computed at construction
        g = self._graph(lambda x: 0.5 * x)
        with pytest.raises(ValueError):
            g.base_h[0, 0] = 1.0
        with pytest.raises(ValueError):
            g.value_h[0, 0] = 1.0

    def test_to_dict(self):
        g = self._graph(lambda x: 0.5 * x)
        fit = fit_differential(g, 1000, FitConfig(scales=(0.5, 0.1)))
        d = fit.to_dict()
        assert isinstance(fit, DifferentialFit)
        assert d["verdict"] == "differentiable"
        assert len(d["residual_curve"]) == 2


def fit_planes(n):
    """The planes of P^n grouped by family and k: the axis planes (the
    t-axis among them) and two tilted frames where the group has them."""
    groups = {}
    for m in range(1, n + 2):
        canon = candidate_planes(n, m)
        for V in canon + sample_planes(n, m, len(canon) + 2, seed=40 + m)[len(canon):]:
            groups.setdefault((V.includes_t_axis, V.k), []).append(V)
    return list(groups.values())


def base_distances(graph, p):
    """The base distances from row p to every row, as fit_differential
    computes them."""
    dxi = graph.base_h - graph.base_h[p]
    sq = np.einsum("ij,ij->i", dxi, dxi)
    if graph.plane.includes_t_axis:
        return np.sqrt(sq + np.abs(graph.base_t - graph.base_t[p]))
    return np.sqrt(sq)


@st.composite
def fit_cases(draw):
    """A graph of 1-400 samples over a plane of P^1-P^3, its base points
    and values drawn apart: each an offset up to 1e6 plus a spread from
    1e-9 to 1e2 times normal noise, the rows' sizes optionally spread
    over six decades, with some base points repeated."""
    n = draw(st.integers(1, 3))
    V = draw(st.sampled_from(draw(st.sampled_from(fit_planes(n)))))
    N = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def cloud():
        offset = draw(st.sampled_from([0.0, 1.0, -3.5, 1e3, 1e6]))
        spread = 10.0 ** draw(st.integers(-9, 2))
        sizes = 10.0 ** rng.uniform(-draw(st.sampled_from([0, 6])), 0.0, (N, 1))
        return offset + spread * sizes * rng.standard_normal((N, n + 1))

    base = project_rows(V, cloud())
    dups = draw(st.integers(0, N - 1))
    base[rng.integers(0, N, dups)] = base[rng.integers(0, N, dups)]
    values = project_rows(V, cloud(), "complement")
    return GraphSamples(V, base, values), rng


class TestFitWindowMatchesFullScan:
    """fit_differential reads only the window of its largest scale; every
    report equals the full scan's, field for field."""

    @settings(max_examples=200, deadline=None)
    @given(case=fit_cases(), exps=st.lists(st.integers(-300, 3), max_size=2),
           threshold=st.sampled_from([0.05, 1.0, math.inf]))
    def test_reports_match_the_full_scan(self, case, exps, threshold):
        graph, rng = case
        N = len(graph)
        least = max(graph.plane.k, 1)
        for p in rng.choice(N, size=min(N, 40), replace=False).tolist():
            # the largest scale sits on a row's base distance, which puts
            # that row on the window's edge: every other time on the
            # least-th nearest, so that without it the fit is flagged
            d = np.sort(base_distances(graph, p))
            d = d[d > 0.0]
            scales = [float(10.0 ** e) * rng.uniform(1.0, 10.0) for e in exps]
            if d.size:
                scales.append(float(d[min(least, d.size) - 1 if p % 2 else rng.integers(d.size)]))
            cfg = FitConfig(scales=tuple(scales) or (1e-3,), threshold=threshold)
            got = fit_differential(graph, p, cfg).to_dict()
            assert got == reference_fit_differential(graph, p, cfg).to_dict()

    @pytest.mark.parametrize("k", [0, 1])
    def test_a_row_on_the_edge_of_a_rounded_key(self, k):
        # the one row within r lies past the key bound without slack:
        # t = 1 + 2^-52 beyond r^2 = 1, though sqrt(t) rounds to r = 1,
        # and x = 1.25 + 2^-52 beyond -0.75 + 2, though x + 0.75 rounds to 2
        if k:
            pts = np.array([[-0.75, 0.0], [1.25 + 2.0**-52, 0.0], [5.0, 0.0]])
            V = HomPlane.horizontal_axes(1, (0,))
        else:
            pts = np.array([[0.0, 0.0], [0.0, 1.0 + 2.0**-52], [0.0, 4.0]])
            V = HomPlane.t_axis(1)
        graph = GraphSamples.from_points(pts, V)
        cfg = FitConfig(scales=(1.0 + k,))
        d = base_distances(graph, 0)
        assert d[1] == 1.0 + k < d[2]
        fit = fit_differential(graph, 0, cfg)
        assert fit.to_dict() == reference_fit_differential(graph, 0, cfg).to_dict()
        assert not fit.flagged

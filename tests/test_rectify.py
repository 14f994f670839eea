"""Tangent detection, blow-ups, flatness scores and differentials."""

import math
from unittest import mock

import numpy as np
import pytest

from parabgmt import geometry, rectify
from parabgmt._index import GridIndex
from parabgmt.generators import gen_flat, gen_graph
from parabgmt.geometry import (
    GraphSamples,
    HomPlane,
    ParaPoint,
    graph_cone_check,
    para_norm_rows,
    plane_distance,
    project_rows,
    sample_planes,
)
from parabgmt.measure import DiscreteMeasure
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
    split_lipschitz,
    tangent_uniqueness_scan,
)


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
        with pytest.raises(ValueError):
            cone_defect(mu, np.zeros(2), HomPlane.t_axis(1), 1.5, 1.0, 2)
        with pytest.raises(ValueError):
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
        ("plane_budget", 0, "plane_budget must be >= 1, got 0"),
        ("refine_rounds", -1, "refine_rounds must be >= 0, got -1"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_fields_validated(self, field, value, message):
        with pytest.raises(ValueError) as err:
            TangentConfig(m=1, **{field: value})
        assert str(err.value) == message

    def test_edge_values_accepted(self):
        cfg = TangentConfig(m=1, s_list=[1e-9, 0.999], r_list=[1e-9], sample_size=1,
                            plane_budget=1, refine_rounds=0, seed=0)
        assert cfg.refine_rounds == 0

    def test_to_dict_keys(self):
        d = TangentConfig(m=2).to_dict()
        assert set(d) == {
            "m", "s_list", "r_list", "plane_budget", "threshold",
            "sample_size", "seed", "refine_rounds",
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

    @pytest.mark.parametrize("indexed", [False, True])
    def test_curve_is_cone_defect_of_argmin_plane(self, indexed):
        # the curve entry at (r, s) is cone_defect at (r, s) for the
        # argmin plane, bit for bit, and the min defect is the curve max
        rng = np.random.default_rng(4)
        pts = rng.random((3000, 3)) * [1.0, 0.2, 1.0]
        mu = DiscreteMeasure(2, pts, rng.uniform(0.5, 2.0, 3000))
        cfg = TangentConfig(m=2, s_list=(0.5, 0.25, 0.1), r_list=(0.3, 0.2, 0.1), plane_budget=16)
        index = GridIndex(mu.points, 0.3) if indexed else None
        for a in mu.points[::1000]:
            res = detect_tangent(mu, a, cfg, index=index)
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
# Reference: plane scoring one plane at a time, with the projection-based
# distance; the batched scoring must match it bit for bit


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


def ref_perturbed_planes(V, sigma, count, rng):
    if V.k == 0 or (not V.includes_t_axis and V.k == V.n):
        return []
    out = []
    for _ in range(count):
        g = rng.standard_normal(V.horiz_basis.shape)
        q, rr = np.linalg.qr((V.horiz_basis + sigma * g).T)
        diag = np.diag(rr)
        if np.min(np.abs(diag)) < 1e-12:
            continue
        q = q * np.where(diag >= 0.0, 1.0, -1.0)
        out.append(HomPlane(V.n, q.T.copy(), V.includes_t_axis))
    return out


def ref_detect_tangent(mu, a, cfg, planes=None, index=None):
    a = ParaPoint.from_coords(np.asarray(a, dtype=float))
    r_list = cfg.resolved_r_list(mu)
    s_list = tuple(float(s) for s in cfg.s_list)
    if planes is None:
        planes = rectify._candidate_planes(mu.n, cfg.m, cfg.plane_budget, cfg.seed)
    delta, d, w = rectify._gather_ball(mu, a, max(r_list), index)
    if d.size == 0:
        return None, [], "none", math.inf, None
    prefix = [int(np.searchsorted(d, r, side="right")) for r in r_list]
    best_worst, best_plane, best_curve = math.inf, None, []
    rng = np.random.default_rng(cfg.seed + 104729)
    for rnd in range(int(cfg.refine_rounds) + 1):
        if rnd:
            planes = ref_perturbed_planes(best_plane, 0.1 * 0.3 ** (rnd - 1), 8, rng)
        for V in planes:
            worst, curve = ref_plane_defect_grid(V, delta, d, w, s_list, r_list, float(cfg.m),
                                                 prefix)
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
         TangentConfig(m=2, r_list=(0.3, 0.2, 0.1), plane_budget=16, seed=1)),
        (tilted, TangentConfig(m=1, s_list=(0.1, 0.05, 0.02), seed=205)),
        (vflat, TangentConfig(m=3, threshold=0.2)),
        (DiscreteMeasure(3, blob, np.ones(800)),
         TangentConfig(m=3, r_list=(0.4, 0.2), plane_budget=24, seed=4)),
        (line_cloud(1e-2), TangentConfig(m=2, s_list=(0.9, 0.5))),
    ]


class TestBatchedScoringMatchesReference:
    @pytest.mark.parametrize("case", range(5))
    @pytest.mark.parametrize("indexed", [False, True])
    def test_detect_tangent(self, case, indexed):
        mu, cfg = reference_clouds()[case]
        r_list = cfg.resolved_r_list(mu)
        index = GridIndex(mu.points, max(r_list)) if indexed else None
        sel = np.random.default_rng(case).choice(mu.natoms, 12, replace=False)
        for a in mu.points[sel]:
            assert_matches_reference(detect_tangent(mu, a, cfg, index=index),
                                     ref_detect_tangent(mu, a, cfg, index=index))

    @pytest.mark.parametrize("budget", [1, 3])
    def test_plane_chunks(self, budget):
        # budget 1: one plane per chunk; budget 3: three planes per chunk
        mu, cfg = reference_clouds()[0]
        planes = rectify._candidate_planes(mu.n, cfg.m, cfg.plane_budget, cfg.seed)
        r_list = cfg.resolved_r_list(mu)
        s_list = tuple(cfg.s_list)
        for a in mu.points[::300]:
            delta, d, w = rectify._gather_ball(mu, ParaPoint.from_coords(a), max(r_list))
            prefix = [int(np.searchsorted(d, r, side="right")) for r in r_list]
            args = (delta, d, w, s_list, r_list, 2.0, prefix)
            with mock.patch.object(geometry, "PAIR_TILE", budget * d.size):
                chunks = list(geometry.tile_slices(len(planes), d.size))
                assert len(chunks) == -(-len(planes) // budget)
                worst, curves = rectify._plane_defect_grids(planes, *args)
                res = detect_tangent(mu, a, cfg, planes=planes)
            for V, x, curve in zip(planes, worst, curves):
                want = ref_plane_defect_grid(V, *args)
                assert bits(x) == bits(want[0])
                assert curve == want[1] and bits([c[2] for c in curve]) == bits(
                    [c[2] for c in want[1]])
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
        cfg = TangentConfig(m=1, r_list=(0.1,), refine_rounds=0)
        horizontal = HomPlane.horizontal_axes(1, (0,))
        twin = HomPlane.horizontal_axes(1, (0,))
        for planes in ([horizontal, twin], [twin, horizontal]):
            res = detect_tangent(mu, np.zeros(2), cfg, planes=planes)
            assert res.argmin_plane is planes[0]
        # an atom on the t-axis is as far from every horizontal line of P^2
        # as from the vertex, so distinct planes score the same
        lone = DiscreteMeasure(2, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.01]]), [1.0, 1.0])
        flat = TangentConfig(m=1, s_list=(0.9,), r_list=(0.2,), refine_rounds=0)
        planes = sample_planes(2, 1, 5, 0)
        for order in ([0, 1, 2, 3, 4], [3, 1, 4, 0, 2]):
            listed = [planes[i] for i in order]
            res = detect_tangent(lone, np.zeros(3), flat, planes=listed)
            assert res.argmin_plane is listed[0] and res.min_defect == 5.0

    @pytest.mark.parametrize("n,m,family", [(2, 1, "horizontal"), (2, 3, "vertical"),
                                            (3, 2, "horizontal"), (4, 4, "vertical")])
    def test_perturbed_planes(self, n, m, family):
        V = next(P for P in sample_planes(n, m, 6, 2)[2:] if P.family == family)
        for sigma in (0.1, 0.03):
            got = rectify._perturbed_planes(V, sigma, 8, np.random.default_rng(5))
            want = ref_perturbed_planes(V, sigma, 8, np.random.default_rng(5))
            assert len(got) == len(want) == 8
            assert all(same_plane(a, b) for a, b in zip(got, want))

    def test_rank_deficient_frames_are_skipped(self):
        V = HomPlane.vertical_axes(3, (0, 1))
        draws = np.random.default_rng(3).standard_normal((8, 2, 3))
        draws[2] = -V.horiz_basis / 0.1  # frame 2 collapses to zero
        draws[5, 1] = (draws[5, 0] * 0.1 + V.horiz_basis[0] - V.horiz_basis[1]) / 0.1

        class Replay:
            def __init__(self):
                self.flat = draws.ravel()

            def standard_normal(self, shape):
                size = int(np.prod(shape))
                out, self.flat = self.flat[:size].reshape(shape), self.flat[size:]
                return out

        got = rectify._perturbed_planes(V, 0.1, 8, Replay())
        want = ref_perturbed_planes(V, 0.1, 8, Replay())
        assert len(got) == len(want) == 6
        assert all(same_plane(a, b) for a, b in zip(got, want))


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

    def test_ball_is_the_mass_in_ball_ball(self):
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
        kept = mu.mass_in_ball(a, r)
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
        nu = DiscreteMeasure(2, rng.standard_normal((400, 3)) * [0.5, 0.05, 0.3], np.ones(400))
        planes = rectify._candidate_planes(2, 2, 16, 3)
        best, defect = flatness_defect(nu, 2, plane_budget=16, seed=3)
        with mock.patch.object(geometry, "PAIR_TILE", (budget or 10**6) * nu.natoms):
            got, got_defect = flatness_defect(nu, 2, planes=planes)
        assert same_plane(got, best) and got_defect == defect
        # the reference: one plane at a time, the first of equal scores kept
        scores = []
        for V in planes:
            dist = para_norm_rows(project_rows(V, nu.points, "complement"))
            tube = dist <= 0.05
            scores.append(min(1.0, 1.0 - float(np.sum(nu.weights[tube])) / nu.total_mass
                              + rectify._empty_cell_fraction(V, nu.points[tube], 6)))
        assert got is planes[scores.index(min(scores))] and got_defect == min(scores)


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
        with mock.patch.object(rectify, "sample_planes", wraps=sample_planes) as spy:
            scan = tangent_uniqueness_scan(mu, np.zeros(2), (0.4, 0.2, 0.1), 1, seed=7)
        assert spy.call_count == 1 and spy.call_args.args == (1, 1, 32, 7)
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

    def test_to_dict(self):
        g = self._graph(lambda x: 0.5 * x)
        fit = fit_differential(g, 1000, FitConfig(scales=(0.5, 0.1)))
        d = fit.to_dict()
        assert isinstance(fit, DifferentialFit)
        assert d["verdict"] == "differentiable"
        assert len(d["residual_curve"]) == 2


class TestSplitLipschitz:
    L = 0.5

    @staticmethod
    def _fitted(f, scales, resolution=0.01):
        # graph x2 = f(x1), t = 0 over the x1 axis of P^2, one fit per row
        V = HomPlane.horizontal_axes(2, (0,))
        mu, _ = gen_graph(lambda C: np.column_stack([f(C[:, 0]), np.zeros(len(C))]), V,
                          resolution=resolution)
        graph = GraphSamples.from_points(mu.points, V)
        return graph, [fit_differential(graph, i, FitConfig(scales=scales))
                       for i in range(len(graph))]

    @pytest.mark.parametrize("f", [lambda x: 0.1 * x, lambda x: 0.3 * x ** 2],
                             ids=["tilted", "curved"])
    @pytest.mark.parametrize("scales", [(0.5, 0.25, 0.125), (0.4, 0.2, 0.1)])
    def test_pieces_partition_and_certify(self, f, scales):
        graph, fits = self._fitted(f, scales)
        assert not any(fit.flagged for fit in fits)
        pieces = split_lipschitz(graph, fits, self.L)
        idx = np.concatenate([piece.indices for piece in pieces])
        assert np.array_equal(np.sort(idx), np.arange(len(graph)))
        assert len(pieces) < len(graph)
        lp = self.L / math.sqrt(1.0 - self.L ** 2)
        s_cert = lp / math.sqrt(1.0 + lp * lp)
        pts = graph.reassemble()
        for piece in pieces:
            assert graph_cone_check(pts[piece.indices], piece.plane, s_cert) == []

    def test_tilted_graph_piece_count(self):
        graph, fits = self._fitted(lambda x: 0.1 * x, (0.5, 0.25, 0.125))
        assert len(split_lipschitz(graph, fits, self.L)) == 17

    def test_validation(self):
        graph, fits = self._fitted(lambda x: 0.1 * x, (0.5, 0.25), resolution=0.1)
        with pytest.raises(ValueError):
            split_lipschitz(graph, fits, 1.0)
        with pytest.raises(ValueError):
            split_lipschitz(graph, fits[1:], self.L)
        flagged = fit_differential(graph, 0, FitConfig(scales=(1e-6,)))
        with pytest.raises(ValueError):
            split_lipschitz(graph, [flagged] + fits[1:], self.L)

"""Tangent detection, blow-ups, flatness scores and differentials."""

import math

import numpy as np
import pytest

from parabgmt.generators import gen_flat, gen_graph
from parabgmt.geometry import (
    GraphSamples,
    HomPlane,
    ParaPoint,
    graph_cone_check,
    plane_distance,
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

    def test_tilted_graph_recovers_tilt(self):
        V = HomPlane.horizontal_axes(2, (0,))
        mu, _ = gen_graph(lambda C: np.column_stack([0.1 * C[:, 0], np.zeros(len(C))]),
                          V, resolution=2e-3)
        truth = HomPlane(2, np.array([[1.0, 0.1]]) / math.sqrt(1.01), False)
        cfg = TangentConfig(m=1, s_list=(0.1, 0.05, 0.02))
        res = detect_tangent(mu, np.zeros(3), cfg)
        assert res.classification == "horizontal"
        assert plane_distance(res.best_plane, truth) <= 0.05


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


class TestUniquenessScan:
    def test_flat_line_unique_tangent(self):
        mu = line_cloud(5e-3)
        scan = tangent_uniqueness_scan(mu, np.zeros(2), (0.4, 0.2, 0.1), 1)
        assert scan.spread <= 1e-9
        assert scan.max_defect <= 1e-9
        d = scan.to_dict()
        assert len(d["planes"]) == 3

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

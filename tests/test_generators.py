"""Synthetic cloud generators: oscillation bounds, equal-pair search,
recursive rescaling, Cantor constructions and the dispatcher."""

import json
import math

import numpy as np
import pytest

from parabgmt.generators import (
    GENERATOR_KINDS,
    GeneratorSpec,
    PairNotFoundError,
    bmo_energy,
    find_equal_pair,
    gen_cantor_segments,
    gen_flat,
    gen_graph,
    gen_quartic_cantor,
    gen_regular_defeater,
    gen_vertical_cantor,
    gen_weierstrass_graph,
    generate,
    holder_lower,
    holder_upper,
    sidecar_payload,
    weierstrass_eval,
    weierstrass_truncation,
)
from parabgmt.geometry import HomPlane, dist_to_plane_rows, graph_cone_check

GRID = np.linspace(0.0, 1.0, 1025)


@pytest.fixture(scope="module")
def defeater2():
    return gen_regular_defeater(depth=2, c0=0.33, K=48, resolution=1e-3,
                                window_samples=800, atoms_per_interval=120)


class TestWeierstrassEval:
    def test_value_at_zero_is_geometric_sum(self):
        # every cosine is 1 at t = 0
        q = 2.0 ** -0.5
        expect = 0.33 * q * (1 - q ** 48) / (1 - q)
        assert weierstrass_eval(0.33, 48, 0.0) == pytest.approx(expect, rel=1e-14)

    def test_scalar_and_array_agree(self):
        arr = weierstrass_eval(0.1, 6, GRID[:5])
        assert isinstance(weierstrass_eval(0.1, 6, float(GRID[3])), float)
        assert weierstrass_eval(0.1, 6, float(GRID[3])) == arr[3]

    def test_truncation_bound_formula(self):
        assert weierstrass_truncation(0.2, 10) == pytest.approx(
            0.2 * 2.0 ** -4.5 * (2.0 + math.sqrt(2.0)))

    def test_k_validation(self):
        with pytest.raises(ValueError):
            weierstrass_eval(0.1, 0, 0.0)


class TestHolderBounds:
    def test_linear_upper_is_sqrt_of_span(self):
        # 1025 samples make the full span a dyadic stride, so the max
        # ratio |dt| / sqrt(dt) = sqrt(1) is attained exactly
        assert holder_upper(GRID, GRID) == 1.0

    def test_sqrt_upper_is_one(self):
        assert holder_upper(GRID, np.sqrt(GRID)) == pytest.approx(1.0, rel=1e-12)

    def test_lacunary_profile_bounds_frozen(self):
        f = weierstrass_eval(0.33, 48, GRID)
        up = holder_upper(GRID, f)
        lo = holder_lower(GRID, f)
        assert up == pytest.approx(1.4605, abs=2e-3)
        assert lo == pytest.approx(0.2078, abs=2e-3)
        assert 0.0 < lo < up

    def test_lower_rejects_short_samples(self):
        with pytest.raises(ValueError):
            holder_lower(GRID[:5], GRID[:5])


class TestFindEqualPair:
    def test_cosine_endpoints(self):
        f = np.cos(2.0 * np.pi * GRID)
        ia, ib = find_equal_pair(GRID, f, 0.5)
        assert (ia, ib) == (0, 1024)
        assert f[ia] == f[ib]

    def test_contract_on_rough_profile(self):
        f = weierstrass_eval(0.33, 48, GRID)
        ia, ib = find_equal_pair(GRID, f, 0.05)
        span = GRID[-1] - GRID[0]
        tol = 2.0 * np.max(np.abs(np.diff(f)))
        assert GRID[ib] - GRID[ia] >= 0.05 * span
        assert abs(f[ia] - f[ib]) <= tol

    def test_monotone_data_raises(self):
        with pytest.raises(PairNotFoundError):
            find_equal_pair(GRID, GRID.copy(), 0.5)

    def test_too_few_samples(self):
        with pytest.raises(PairNotFoundError):
            find_equal_pair(GRID[:1], GRID[:1], 0.1)


class TestWeierstrassGraph:
    def test_cloud_matches_series(self):
        mu, info = gen_weierstrass_graph(n=1, c0=0.05, K=5, resolution=0.01)
        assert mu.natoms == 101
        assert mu.total_mass == pytest.approx(101 * 0.01, rel=1e-12)
        order = np.argsort(mu.points[:, 1])
        t = mu.points[order, 1]
        assert np.allclose(t, np.linspace(0.0, 1.0, 101))
        assert np.allclose(mu.points[order, 0], weierstrass_eval(0.05, 5, t))
        assert info["truncation_bound"] == weierstrass_truncation(0.05, 5)
        assert info["expected_tangent"] == "none"
        assert info["c"] < info["holder_upper"]

    def test_n_validation(self):
        with pytest.raises(ValueError):
            gen_weierstrass_graph(n=0)


class TestRegularDefeater:
    def test_default_schedule_and_constants(self, defeater2):
        mu, info = defeater2
        assert info["L_seq"] == pytest.approx([1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)])
        c = info["c"]
        assert all(c / 2 < ck < c for ck in info["c_seq"])
        assert info["ctilde_seq"] == pytest.approx([ck ** 4 / 128.0 for ck in info["c_seq"]])
        assert mu.natoms == 4 * 120

    def test_every_level_piece_passes_its_cone_check(self, defeater2):
        _, info = defeater2
        tree = info["tree"]
        Vt = HomPlane.t_axis(1)
        for k in range(tree.depth + 1):
            a, b = tree.intervals(k)
            lev = tree.levels[k]
            s = min(tree.L_full[k] + 0.01, 0.999)
            for j in range(len(a)):
                tt = np.linspace(a[j], b[j], 250)
                ff = lev["alpha"][j] * tree.f0(tt) + lev["beta"][j] + lev["gamma"][j] * tt
                assert graph_cone_check(np.column_stack([ff, tt]), Vt, s) == []

    def test_tree_nesting_and_pair_gaps(self, defeater2):
        _, info = defeater2
        tree = info["tree"]
        for k in range(1, tree.depth + 1):
            lev = tree.levels[k]
            up = tree.levels[k - 1]
            for j in range(len(lev["a"])):
                p = int(lev["parent"][j])
                assert up["a"][p] <= lev["a"][j] < lev["b"][j] <= up["b"][p]
                window = (up["b"][p] - up["a"][p]) / 3.0
                assert lev["pair_gap"][j] >= tree.ctilde_seq[k - 1] * window

    def test_cloud_lies_on_the_deep_function(self, defeater2):
        mu, info = defeater2
        tree = info["tree"]
        assert np.allclose(tree.eval(mu.points[:, 1]), mu.points[:, 0], atol=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            gen_regular_defeater(L_seq=[0.5, 0.5], depth=2, resolution=1e-3)
        with pytest.raises(ValueError):
            gen_regular_defeater(depth=0)


class TestBmoEnergy:
    def test_constant_function_is_zero(self):
        e = bmo_energy(GRID, np.full(GRID.shape, 3.0), 0.5)
        assert e.total == 0.0

    def test_identity_approximates_span(self):
        e = bmo_energy(GRID, GRID.copy(), 0.0)
        assert e.total == pytest.approx(1.0, abs=0.01)
        assert e.excluded == pytest.approx(1.0 / 1024.0)

    def test_annuli_halve_coarse_to_fine(self):
        e = bmo_energy(GRID, GRID.copy(), 0.0)
        assert tuple(e.annuli[0]) == (0.5, 1.0)
        for prev, cur in zip(e.annuli, e.annuli[1:]):
            assert cur[1] == prev[0]
            assert cur[0] >= e.excluded
        assert np.all(e.sums >= 0.0)
        assert e.cumulative[-1] == pytest.approx(e.total)
        assert np.allclose(np.cumsum(e.sums), e.cumulative)

    def test_explicit_weights_scale_linearly(self):
        w = np.full(GRID.shape, 1.0 / 1024.0)
        e1 = bmo_energy(GRID, GRID.copy(), 0.0, weights=w)
        e2 = bmo_energy(GRID, GRID.copy(), 0.0, weights=2.0 * w)
        assert e2.total == pytest.approx(2.0 * e1.total, rel=1e-12)

    def test_to_dict_round(self):
        d = bmo_energy(GRID, GRID.copy(), 0.0).to_dict()
        json.dumps(d)
        assert set(d) == {"point", "annuli", "sums", "cumulative", "total", "excluded"}


class TestCantorSegments:
    def test_depth_two_structure(self):
        mu, info = gen_cantor_segments(n_seq=(2, 3), depth=2, points_per_segment=16)
        assert mu.natoms == 96
        assert mu.total_mass == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert info["r_levels"] == pytest.approx([0.5, 1.0 / 6.0])
        assert np.allclose(np.sort(info["segment_x"]), np.arange(6) / 6.0)

    def test_atoms_sit_on_their_segments(self):
        mu, info = gen_cantor_segments(n_seq=(2, 3), depth=2, points_per_segment=16)
        xs, tls, r = info["segment_x"], info["segment_t"], info["segment_slope"]
        order = np.argsort(xs)
        seg = np.clip(np.floor(mu.points[:, 0] / r).astype(int), 0, len(xs) - 1)
        u = mu.points[:, 0] - xs[order][seg]
        assert np.all((u > 0) & (u < r))
        assert np.max(np.abs(mu.points[:, 1] - (tls[order][seg] + r * u))) < 1e-12

    def test_children_start_on_parent_segment(self):
        _, info = gen_cantor_segments(n_seq=(2, 3), depth=2, points_per_segment=4)
        # level-1 segments start at (0,0) and (1/2,0) with slope 1/2, so a
        # child starting at x has t = (x mod 1/2) / 2
        xs, tls = info["segment_x"], info["segment_t"]
        assert np.allclose(tls, np.mod(xs, 0.5) * 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_cantor_segments(n_seq=(3, 2), depth=2)
        with pytest.raises(ValueError):
            gen_cantor_segments(n_seq=(2,), depth=2)
        with pytest.raises(ValueError):
            gen_cantor_segments(depth=0)


class TestVerticalCantor:
    def test_depth_one_structure(self):
        mu, info = gen_vertical_cantor(depth=1)
        assert mu.natoms == 32
        assert mu.total_mass == pytest.approx(1.0, rel=1e-12)
        assert info["rect_width"] == 0.25 and info["rect_height"] == 0.5
        assert info["rect_corners"].tolist() == [[0.0, 0.0], [0.75, 0.5]]

    def test_atoms_inside_rects_with_staggered_times(self):
        mu, info = gen_vertical_cantor(depth=1)
        W, H = info["rect_width"], info["rect_height"]
        corners = info["rect_corners"]
        inside = np.zeros(mu.natoms, dtype=bool)
        for a, b in corners:
            inside |= ((mu.points[:, 0] >= a) & (mu.points[:, 0] <= a + W)
                       & (mu.points[:, 1] >= b) & (mu.points[:, 1] <= b + H))
        assert inside.all()
        # column phase staggering keeps every sample time distinct
        assert len(np.unique(mu.points[:, 1])) == mu.natoms

    def test_mass_is_one_at_depth_two(self):
        mu, _ = gen_vertical_cantor(depth=2, rows=4, cols=2)
        assert mu.total_mass == pytest.approx(1.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_vertical_cantor(r_seq=[0.5, 0.25], depth=1)
        with pytest.raises(ValueError):
            gen_vertical_cantor(r_seq=[1.0, 0.3], depth=1)
        with pytest.raises(ValueError):
            gen_vertical_cantor(n_seq=(3,), depth=1)


class TestQuarticCantor:
    def test_quartic_image_law_is_exact(self):
        _, info = gen_quartic_cantor(depth=3)
        assert info["img_lengths"] == [v ** 4 for v in info["dom_lengths"]]
        assert info["dom_lengths"] == [1.0, 0.25, 0.0625, 0.015625]

    def test_mass_equals_domain_measure(self):
        mu, info = gen_quartic_cantor(depth=3)
        assert mu.natoms == 16
        assert mu.total_mass == info["domain_measure"] == 0.125

    def test_level_ratios_decrease(self):
        _, info = gen_quartic_cantor(depth=3)
        r = info["level_ratios"]
        assert r == pytest.approx([1.9922, 0.4980, 0.1245], abs=2e-4)
        assert all(b < a for a, b in zip(r, r[1:]))

    def test_endpoints_span_unit_intervals_monotonically(self):
        mu, _ = gen_quartic_cantor(depth=3)
        order = np.argsort(mu.points[:, 0])
        x, f = mu.points[order, 0], mu.points[order, 1]
        assert x[0] == 0.0 and f[0] == 0.0
        assert x[-1] == pytest.approx(1.0, abs=1e-12)
        assert f[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(f) >= 0.0)

    def test_gap_validation(self):
        with pytest.raises(ValueError):
            gen_quartic_cantor(gap_seq=[1.5], depth=1)
        with pytest.raises(ValueError):
            gen_quartic_cantor(gap_seq=[0.5], depth=2)


class TestFlatAndGraph:
    def test_line_mass_is_two(self):
        mu, info = gen_flat(HomPlane.horizontal_axes(1, (0,)), extent=1.0, resolution=1e-3)
        assert mu.total_mass == pytest.approx(2.0, rel=1e-12)
        assert np.all(mu.points[:, 1] == 0.0)
        assert info["expected_tangent"] == "horizontal"

    def test_t_axis_mass_is_two(self):
        mu, _ = gen_flat(HomPlane.t_axis(1), extent=1.0, resolution=1e-3)
        assert mu.natoms == 2001
        assert mu.total_mass == pytest.approx(2.0, rel=1e-12)
        assert np.all(mu.points[:, 0] == 0.0)

    def test_flat_cloud_lies_on_plane(self):
        V = HomPlane.vertical_axes(2, (1,))
        mu, _ = gen_flat(V, extent=0.5, resolution=0.05)
        assert float(dist_to_plane_rows(V, mu.points).max()) == 0.0

    def test_zero_graph_reduces_to_plane(self):
        V = HomPlane.horizontal_axes(2, (0,))
        mu, _ = gen_graph(lambda C: np.zeros((len(C), 2)), V, resolution=0.05)
        assert float(dist_to_plane_rows(V, mu.points).max()) == 0.0

    def test_noise_is_seed_deterministic(self):
        V = HomPlane.horizontal_axes(2, (0,))
        g = lambda C: np.column_stack([0.1 * C[:, 0], np.zeros(len(C))])
        a, _ = gen_graph(g, V, resolution=0.05, noise=0.01, seed=7)
        b, _ = gen_graph(g, V, resolution=0.05, noise=0.01, seed=7)
        c, _ = gen_graph(g, V, resolution=0.05, noise=0.01, seed=8)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_wrong_graph_shape_rejected(self):
        V = HomPlane.horizontal_axes(2, (0,))
        with pytest.raises(ValueError):
            gen_graph(lambda C: np.zeros((len(C), 1)), V, resolution=0.1)


QUICK_SPECS = [
    ("flat_plane", {"plane": {"n": 1, "axes": [0], "t": False},
                    "extent": 0.5, "resolution": 0.01}),
    ("user_graph", {"plane": {"n": 2, "axes": [0], "t": False},
                    "expr": ["0.1*x1", "0*x1"], "domain": 0.5, "resolution": 0.05}),
    ("weierstrass_graph", {"n": 1, "c0": 0.05, "K": 5, "resolution": 0.01}),
    ("regular_defeater", {"depth": 1, "resolution": 1e-3,
                          "window_samples": 600, "atoms_per_interval": 50}),
    ("cantor_segments", {"n_seq": [2, 3], "depth": 2, "points_per_segment": 8}),
    ("vertical_cantor", {"depth": 1, "rows": 4, "cols": 2}),
    ("quartic_cantor", {"depth": 3}),
]


class TestDispatcher:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec("mystery_kind")
        with pytest.raises(ValueError):
            GeneratorSpec("quartic_cantor", {"depth": 0})
        with pytest.raises(ValueError):
            GeneratorSpec("weierstrass_graph", {"resolution": -1.0})
        with pytest.raises(ValueError):
            GeneratorSpec("cantor_segments", {"n_seq": [2, -3]})

    def test_all_kinds_registered(self):
        assert sorted(k for k, _ in QUICK_SPECS) == sorted(GENERATOR_KINDS)

    @pytest.mark.parametrize("kind,params", QUICK_SPECS, ids=[k for k, _ in QUICK_SPECS])
    def test_generate_is_deterministic(self, kind, params):
        m1, i1 = generate(GeneratorSpec(kind, params, seed=3))
        m2, i2 = generate(GeneratorSpec(kind, params, seed=3))
        assert np.array_equal(m1.points, m2.points)
        assert np.array_equal(m1.weights, m2.weights)
        p1 = sidecar_payload(i1)
        assert json.dumps(p1, sort_keys=True) == json.dumps(sidecar_payload(i2), sort_keys=True)
        assert "tree" not in p1 and "structure" not in p1
        assert p1["spec"]["kind"] == kind

    def test_generate_accepts_plain_dict(self):
        m1, _ = generate({"kind": "quartic_cantor", "params": {"depth": 3}, "seed": 0})
        m2, _ = gen_quartic_cantor(depth=3)
        assert np.array_equal(m1.points, m2.points)

    def test_user_graph_records_expr(self):
        _, info = generate(GeneratorSpec("user_graph", QUICK_SPECS[1][1]))
        assert info["expr"] == ["0.1*x1", "0*x1"]

    @pytest.mark.parametrize("expr,f", [
        ("0.1*x1", lambda x1: 0.1 * x1),
        ("0", lambda x1: 0),
        ("0*x1", lambda x1: 0 * x1),
    ])
    def test_user_graph_expressions_are_bit_identical(self, expr, f):
        plane = {"n": 1, "axes": [0], "t": False}
        mu, _ = generate(GeneratorSpec("user_graph", {"plane": plane, "expr": [expr],
                                                      "resolution": 0.01}))
        ref, _ = gen_graph(lambda C: np.asarray(f(C[:, 0]), dtype=float) + np.zeros(len(C)),
                           HomPlane.horizontal_axes(1, (0,)), resolution=0.01)
        assert np.array_equal(mu.points, ref.points)
        assert np.array_equal(mu.weights, ref.weights)

    def test_user_graph_ufunc_table(self):
        plane = {"n": 2, "axes": [0], "t": False}
        mu, _ = generate(GeneratorSpec("user_graph", {
            "plane": plane, "expr": ["-np.sin(x1) ** 2", "np.maximum(x1, 0) / 4"],
            "resolution": 0.05}))
        x1 = mu.points[:, 0]
        assert np.array_equal(mu.points[:, 1], -np.sin(x1) ** 2)
        assert np.array_equal(mu.points[:, 2], np.maximum(x1, 0) / 4)

    def test_sidecar_drops_large_arrays(self):
        payload = sidecar_payload({"ok": 1.5, "big": np.zeros(5000), "arr": np.arange(3)})
        assert "big" not in payload
        assert payload["arr"] == [0, 1, 2]

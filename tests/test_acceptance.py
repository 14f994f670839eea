"""Advertised-guarantee battery: one test and one printed PASS/FAIL line
per guarantee (run with -s to see the lines interleaved, or read the -v
status column)."""

import json
import math
import subprocess
import sys
import time

import numpy as np

from parabgmt.generators import (
    defeater_energies,
    gen_flat,
    gen_graph,
    generate,
)
from parabgmt import checks
from parabgmt.geometry import (
    GraphSamples,
    HomPlane,
    graph_cone_check,
    graph_extract,
    plane_distance,
)
from parabgmt.measure import dimension_fit, flat_constant_estimate
from parabgmt.measure import GridMap, lip_image_cover_sum
from parabgmt.rectify import (
    FitConfig,
    TangentConfig,
    blowup_measure,
    classify_points,
    fit_differential,
)

TOL = 1e-12


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    msg = f"[criterion {num:02d}] {status}  {detail}"
    print(msg)
    assert ok, msg


def _rel_ok(a, b, tol=TOL):
    return np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b)))


def test_01_exact_algebra_identities_at_1e12(monkeypatch):
    # the geometry suite of the verify table; the samples of each counted
    # identity are tallied as they are drawn, and cone_complement_identity
    # also checks cone membership against the sign of the gap
    t0 = time.time()
    drawn = []
    sample = checks._sample

    def counted(rng, rows, *args):
        drawn.append(rows)
        return sample(rng, rows, *args)

    monkeypatch.setattr(checks, "_sample", counted)
    cases, ok = {}, True
    for name, fn in checks.SUITES["geometry"]:
        drawn.clear()
        passed, _ = fn(12_000, 20260825)
        ok &= bool(passed)
        cases[name] = sum(drawn)
    elapsed = time.time() - t0
    ok &= sorted(cases) == ["cone_complement_identity", "norm_homogeneity", "norm_split",
                            "projection_1lipschitz"]
    ok &= all(v >= 10_000 for v in cases.values()) and elapsed < 5.0
    _line(1, ok, f"norm/cone/projection identities on {cases} seeded cases "
                 f"at 1e-12 in {elapsed:.1f}s")


def test_02_square_root_graphs_certify_and_extract():
    Vt = HomPlane.t_axis(1)
    failures = 0
    worst_margin = math.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.random(200))
        ts[0] = 0.0
        u = rng.uniform(0.0, 0.2) * (seed % 2)
        x0 = rng.uniform(-1.0, 1.0)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        L = (0.1, 0.3, 0.5)[seed % 3]
        pts = np.column_stack([x0 + sign * L * np.sqrt(ts + u), ts])
        s = L + 0.01
        if graph_cone_check(pts, Vt, s):
            failures += 1
            continue
        ex = graph_extract(pts, Vt, s)
        bound = s / math.sqrt(1.0 - s * s)
        worst_margin = min(worst_margin, bound + 1e-9 - ex.empirical_ratio)
        if not (abs(ex.lipschitz_bound - bound) <= 1e-12
                and ex.empirical_ratio <= bound + 1e-9):
            failures += 1
    ok = failures == 0
    _line(2, ok, f"100 square-root graph fixtures certified at s = L + 0.01 and "
                 f"extracted, {failures} failures, worst bound margin {worst_margin:.2e}")


def test_03_box_counting_dimensions(square600k, weier_c1):
    results = []
    ok = True

    def fit(tag, pts, scales, lo, hi, metric="parabolic"):
        nonlocal ok
        t0 = time.time()
        rep = dimension_fit(pts, scales, metric=metric)
        dt = time.time() - t0
        good = lo <= rep.fitted_dim <= hi and dt < 60.0
        ok &= good
        results.append(f"{tag} {rep.fitted_dim:.3f} ({dt:.1f}s)")

    fit("square", square600k, (0.21, 0.17, 0.12, 0.105), 2.85, 3.15)
    grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
    fit("t-axis", np.column_stack([np.zeros(grid.size), grid]),
        (0.2, 0.14, 0.1, 0.07, 0.05), 1.9, 2.1)
    fit("segment", np.column_stack([grid, np.zeros(grid.size)]),
        (0.02, 0.014, 0.01, 0.007, 0.005), 0.9, 1.1)
    wei = weier_c1[0]
    fit("rough-graph", wei, (0.12, 0.085, 0.06, 0.0425, 0.03), 1.85, 2.15)
    fit("rough-graph-euclid", wei, (0.03, 0.021, 0.015, 0.0105, 0.0075),
        0.0, 1.6, metric="euclidean")
    _line(3, ok, "dimension fits " + ", ".join(results))


def test_04_flat_plane_constants():
    parts = []
    ok = True
    for n, m in ((1, 1), (2, 2)):
        est = flat_constant_estimate(n, m, "horizontal")
        good = abs(est.value - 2.0 ** m) <= 0.05 * 2.0 ** m
        ok &= good
        parts.append(f"h({n},{m})={est.value:.4f}")
    for n, m in ((1, 2), (2, 2), (2, 3), (3, 4)):
        est = flat_constant_estimate(n, m, "vertical")
        good = 1.0 <= est.value <= 2.0 ** m
        if m == 2:
            good &= abs(est.value - 2.0) <= 0.1
        ok &= good
        parts.append(f"v({n},{m})={est.value:.4f}")
    _line(4, ok, "flat constants " + ", ".join(parts))


def test_05_cover_sum_halves_under_refinement():
    ax = np.linspace(0.0, 1.0, 129)
    gm = GridMap(np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1), (0.0, 1.0))
    values = [lip_image_cover_sum(gm, N).value for N in (4, 16, 64)]
    ratios = [b / a for a, b in zip(values, values[1:])]
    ok = (_rel_ok(np.array(values), np.array([6.0, 3.125, 1.40625]))
          and all(0.4 <= r <= 0.6 for r in ratios))
    _line(5, bool(ok), f"identity-square cover sums {values} with refinement "
                       f"ratios {[round(r, 4) for r in ratios]} in [0.4, 0.6]")


def test_06_tangent_classification_battery(weier_c1, cantor83, vcantor):
    t0 = time.time()
    tilt = np.array([[1.0, 0.1]]) / math.sqrt(1.01)
    parts = []
    ok = True

    def frac_within(rep, truth):
        good = sum(
            1 for r in rep.results
            if r.best_plane is not None and r.best_plane.family == truth.family
            and plane_distance(r.best_plane, truth) <= 0.05)
        return good / len(rep.results)

    mu, _ = gen_flat(HomPlane.horizontal_axes(1, (0,)), extent=1.0, resolution=2e-3)
    f = frac_within(classify_points(mu, TangentConfig(m=1)),
                    HomPlane.horizontal_axes(1, (0,)))
    ok &= f >= 0.95
    parts.append(f"flat-line {f:.0%}")

    mu, _ = gen_flat(HomPlane.vertical_axes(2, (0,)), extent=1.0, resolution=2e-2)
    f = frac_within(classify_points(mu, TangentConfig(m=3)),
                    HomPlane.vertical_axes(2, (0,)))
    ok &= f >= 0.95
    parts.append(f"flat-vertical {f:.0%}")

    mu, _ = gen_graph(lambda C: np.column_stack([0.1 * C[:, 0], np.zeros(len(C))]),
                      HomPlane.horizontal_axes(2, (0,)), resolution=2e-3)
    f = frac_within(classify_points(mu, TangentConfig(m=1, s_list=(0.1, 0.05, 0.02))),
                    HomPlane(2, tilt, False))
    ok &= f >= 0.95
    parts.append(f"tilted-graph {f:.0%}")

    mu, _ = gen_graph(lambda C: 0.1 * C[:, 0],
                      HomPlane.vertical_axes(2, (0,)), resolution=2e-2)
    f = frac_within(classify_points(mu, TangentConfig(m=3, s_list=(0.1, 0.05, 0.02))),
                    HomPlane(2, tilt, True))
    ok &= f >= 0.95
    parts.append(f"tilted-vertical {f:.0%}")

    wei = weier_c1[0]
    rep = classify_points(wei, TangentConfig(m=2, r_list=(0.1, 0.05, 0.02)))
    min_defect = min(r.min_defect for r in rep.results)
    ok &= rep.fractions["none"] >= 0.90 and min_defect >= 0.05
    parts.append(f"rough-graph none {rep.fractions['none']:.0%} defect>={min_defect:.2f}")

    rep = classify_points(cantor83[0], TangentConfig(m=1, r_list=(0.05, 0.02, 0.008)))
    ok &= rep.fractions["none"] >= 0.90
    parts.append(f"diagonal-cantor none {rep.fractions['none']:.0%}")

    rep = classify_points(vcantor[0], TangentConfig(m=2, r_list=(0.006, 0.004), seed=11))
    ok &= rep.fractions["vertical"] >= 0.90
    parts.append(f"vertical-cantor {rep.fractions['vertical']:.0%}")

    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    ok &= max(weier_c1[0].natoms, cantor83[0].natoms, vcantor[0].natoms) <= 10 ** 5
    _line(6, ok, "tangent battery " + ", ".join(parts) + f" in {elapsed:.0f}s")


def test_07_blowup_contains_the_segment_y_y_0_le_y_le_one_half(cantor83):
    nu = blowup_measure(cantor83[0], np.zeros(2), 1.0 / 24.0)
    y = np.linspace(0.0, 0.5, 501)
    d2 = ((y[:, None] - nu.points[None, :, 0]) ** 2
          + (y[:, None] - nu.points[None, :, 1]) ** 2)
    one_sided = float(np.sqrt(d2.min(axis=1)).max())
    ok = one_sided <= 0.05
    _line(7, ok, f"zoom at the left-corner address point covers the diagonal "
                 f"segment to one-sided distance {one_sided:.4f} <= 0.05")


def test_08_differential_fits(quartic14, weier_c1):
    muq = quartic14[0]
    g = GraphSamples.from_points(muq.points, HomPlane.horizontal_axes(1, (0,)))
    cfg = FitConfig(scales=(2e-4, 2e-5, 5e-6))
    base = np.unique(np.linspace(0, muq.natoms - 1, 400).astype(int))
    good = 0
    agg = np.zeros(3)
    for i in base:
        fit = fit_differential(g, int(i), cfg)
        res = [v for _, v in fit.residual_curve]
        agg = np.maximum(agg, res)
        if (fit.verdict == "differentiable" and res[-1] < 0.05
                and all(b <= a + 1e-9 for a, b in zip(res, res[1:]))):
            good += 1
    frac_q = good / len(base)

    wei = weier_c1[0]
    gw = GraphSamples.from_points(wei.points, HomPlane.t_axis(1))
    cfgw = FitConfig(scales=(0.1, 0.05, 0.02, 0.01))
    basew = np.unique(np.linspace(0, wei.natoms - 1, 200).astype(int))
    goodw = sum(
        1 for i in basew
        if all(v >= 0.1 for _, v in fit_differential(gw, int(i), cfgw).residual_curve[-3:]))
    frac_w = goodw / len(basew)

    ok = frac_q >= 0.90 and frac_w >= 0.90 and bool(np.all(np.diff(agg) < 0))
    _line(8, ok, f"flat-graph residuals decrease below 0.05 at {frac_q:.0%} of "
                 f"{len(base)} points (max curve {np.round(agg, 4).tolist()}); "
                 f"rough-graph residuals stay >= 0.1 at {frac_w:.0%}")


def test_09_defeater_is_graph_like_per_level_yet_energy_diverges(defeater6):
    _, info = defeater6
    tree = info["tree"]
    Vt = HomPlane.t_axis(1)
    level_pass = True
    for k in range(1, tree.depth + 1):
        a, b = tree.intervals(k)
        lev = tree.levels[k]
        s = tree.L_full[k] + 0.01
        for j in range(len(a)):
            tt = np.linspace(a[j], b[j], 200)
            ff = lev["alpha"][j] * tree.f0(tt) + lev["beta"][j] + lev["gamma"][j] * tt
            if graph_cone_check(np.column_stack([ff, tt]), Vt, s):
                level_pass = False

    _, energies = defeater_energies(tree, grid=20001, refine=400)
    totals = np.array([e.total for e in energies])
    threshold = sum(v * v for v in info["L_seq"]) / 16.0
    exceed = int((totals > threshold).sum())

    ok = level_pass and exceed >= 10
    _line(9, ok, f"all level pieces certify at s = L_k + 0.01: {level_pass}; "
                 f"singular energy exceeds the partial sum {threshold:.6f} at "
                 f"{exceed}/{len(totals)} density points (min {totals.min():.3f})")


def test_10_cli_reports_replay_bit_identically(tmp_path, child_pythonpath):
    cli = [sys.executable, "-m", "parabgmt.cli"]
    cloud = tmp_path / "cloud.csv"
    r = subprocess.run(cli + ["generate", "--kind", "cantor_segments", "--depth", "2",
                              "--n-seq", "2,3", "--points-per-segment", "32",
                              "-o", str(cloud)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    report1 = tmp_path / "tan.json"
    r = subprocess.run(cli + ["tangent", "-i", str(cloud), "--m", "1",
                              "--sample-size", "20", "-o", str(report1)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    bytes1 = report1.read_bytes()
    # the replay writes to the same path; a replay that writes nothing must fail
    report1.unlink()

    # replay both commands purely from their embedded configs
    config = json.loads(bytes1)["config"]
    cfg = tmp_path / "replay.cfg"
    lines = []
    for key, value in sorted(config.items()):
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {text}")
    cfg.write_text("\n".join(lines) + "\n")

    gen_config = json.loads((tmp_path / "cloud.json").read_text())["config"]
    gcfg = tmp_path / "generate.cfg"
    gcfg.write_text("\n".join(
        f"{k} = {','.join(str(v) for v in val) if isinstance(val, list) else val}"
        for k, val in sorted(gen_config.items())
        if val is not None and not isinstance(val, bool)) + "\n")
    cloud2 = tmp_path / "cloud2.csv"

    r = subprocess.run(cli + ["generate", "--config", str(gcfg), "-o", str(cloud2)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    r = subprocess.run(cli + ["tangent", "--config", str(cfg)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    bytes2 = report1.read_bytes()

    ok = bytes1 == bytes2 and cloud.read_bytes() == cloud2.read_bytes()
    _line(10, ok, "generate and tangent replays from embedded configs are byte-identical")

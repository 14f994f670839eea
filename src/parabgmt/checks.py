"""Invariant checks: the identities the toolkit rests on, as one table.

SUITES maps a suite name to its (name, fn) checks, and fn(cases, seed)
returns (passed, detail) with a JSON-ready detail dict.  `parabgmt
verify` runs the table and so does the test suite.  A randomized check
spreads its `cases` seeded samples evenly over its sample blocks.
"""

import json
import os

import numpy as np

from .generators import (
    gen_cantor_segments,
    gen_flat,
    gen_quartic_cantor,
    gen_vertical_cantor,
    generate,
    holder_lower,
    holder_upper,
    sidecar_payload,
    weierstrass_eval,
)
from .geometry import (
    Cone,
    HomPlane,
    ParaPoint,
    blowup_rows,
    complement_plane,
    cone_gap_rows,
    cone_membership,
    dist_rows,
    dist_to_plane_rows,
    para_norm_rows,
    project_rows,
    sample_planes,
)
from .measure import (
    DiscreteMeasure,
    default_scales,
    dimension_fit,
    greedy_cover,
    load_cloud_csv,
    save_cloud_csv,
)
from .rectify import blowup_measure, cone_defect, flatness_defect

TOL = 1e-12


def _blocks(cases, reps):
    """(n, rows) for `reps` sample blocks at each n = 1, 2, 3."""
    rows = max(1, cases // (3 * reps))
    for n in (1, 2, 3):
        for _ in range(reps):
            yield n, rows


def _plane_blocks(cases, seed, stride):
    """(n, rows, V) for 3 sampled m-planes V of P^n at every 1 <= m <= n + 1,
    n = 1, 2, 3; the planes of (n, m) are drawn from seed + stride n + m."""
    rows = max(1, cases // 9)
    for n in (1, 2, 3):
        for m in range(1, n + 2):
            for V in sample_planes(n, m, 3, seed + stride * n + m):
                yield n, rows, V


def _sample(rng, rows, n, lo, hi):
    """rows standard normal points of P^n, scaled by one uniform factor in [lo, hi)."""
    return rng.standard_normal((rows, n + 1)) * rng.uniform(lo, hi)


def _worst(err, scale):
    """Largest err relative to max(1, scale)."""
    return float(np.max(err / np.maximum(1.0, scale)))


def _tol_result(worst, **flags):
    """Passed when worst <= TOL and every flag holds."""
    return worst <= TOL and all(flags.values()), {"max_rel_error": worst, "tol": TOL, **flags}


def _chk_norm_homogeneity(cases, seed):
    """||delta_r p|| = r ||p|| for the parabolic dilations."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, rows in _blocks(cases, 8):
        coords = _sample(rng, rows, n, 0.1, 10.0)
        r = float(rng.uniform(0.05, 20.0))
        lhs = para_norm_rows(blowup_rows(ParaPoint(np.zeros(n), 0.0), 1.0 / r, coords))
        rhs = r * para_norm_rows(coords)
        worst = max(worst, _worst(np.abs(lhs - rhs), rhs))
    return _tol_result(worst)


def _chk_norm_split(cases, seed):
    """||(x,t)||^2 = |x|^2 + |t|, and the norm equals distance to 0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, rows in _blocks(cases, 1):
        coords = _sample(rng, rows, n, 0.01, 100.0)
        norm = para_norm_rows(coords)
        split = np.sqrt(np.sum(coords[:, :n] ** 2, axis=1) + np.abs(coords[:, n]))
        dist0 = dist_rows(coords, np.zeros(n + 1))
        worst = max(worst, _worst(np.abs(norm - split) + np.abs(norm - dist0), norm))
    return _tol_result(worst)


def _chk_cone_complement(cases, seed):
    """dist(d, V)^2 + dist(d, co V)^2 = ||d||^2, and cone membership
    agrees with the sign of the gap dist(d, V) - s ||d||."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    agree = True
    s = 0.5
    for n, rows, V in _plane_blocks(cases, seed, 7):
        W = complement_plane(V)
        D = _sample(rng, rows, n, 0.1, 10.0)
        a2 = dist_to_plane_rows(V, D) ** 2
        b2 = dist_to_plane_rows(W, D) ** 2
        n2 = para_norm_rows(D) ** 2
        worst = max(worst, _worst(np.abs(a2 + b2 - n2), n2))
        gap = cone_gap_rows(V, s, D)
        cone = Cone(ParaPoint(np.zeros(n), 0.0), V, s)
        for i in range(min(rows, 20)):
            label = cone_membership(cone, ParaPoint(D[i, :n], D[i, n]))
            g = gap[i]
            agree &= label == ("inside" if g < -1e-9 else "outside" if g > 1e-9 else "boundary")
    return _tol_result(worst, membership_agrees=agree)


def _chk_projection_lipschitz(cases, seed):
    """||P_V d|| <= ||d|| and P_V P_V = P_V for homogeneous planes."""
    rng = np.random.default_rng(seed)
    worst_lip = 0.0
    worst_idem = 0.0
    for n, rows, V in _plane_blocks(cases, seed, 11):
        D = _sample(rng, rows, n, 0.1, 10.0)
        P = project_rows(V, D)
        excess = para_norm_rows(P) - para_norm_rows(D)
        worst_lip = max(worst_lip, _worst(excess, para_norm_rows(D)))
        worst_idem = max(worst_idem, float(np.max(np.abs(project_rows(V, P) - P))))
    passed = worst_lip <= TOL and worst_idem <= TOL
    return passed, {"max_excess": worst_lip, "max_idempotence_error": worst_idem, "tol": TOL}


def _chk_cover_separation(cases, seed):
    """Greedy cover: centers > r apart, every point within r of one."""
    rng = np.random.default_rng(seed)
    N = min(max(cases, 10), 1500)
    pts = np.column_stack([rng.random(N), rng.random(N)])
    r = 0.15
    centers = greedy_cover(pts, r)
    sep_ok = True
    if centers.shape[0] > 1:
        for i in range(centers.shape[0]):
            d = dist_rows(centers, centers[i])
            d[i] = np.inf
            if float(d.min()) <= r:
                sep_ok = False
                break
    cover_ok = True
    for i in range(N):
        if float(dist_rows(centers, pts[i]).min()) > r + 1e-12:
            cover_ok = False
            break
    return sep_ok and cover_ok, {
        "ncenters": int(centers.shape[0]),
        "separation_ok": sep_ok,
        "coverage_ok": cover_ok,
    }


def _chk_csv_roundtrip(cases, seed):
    """save_cloud_csv then load_cloud_csv reproduces the measure exactly."""
    # imported here so that only verify loads it
    import tempfile

    rng = np.random.default_rng(seed)
    N = min(max(cases, 10), 500)
    pts = rng.standard_normal((N, 3)) * np.array([1.0, 1e-8, 1e6])
    w = rng.uniform(0.5, 2.0, N)
    mu = DiscreteMeasure(2, pts, w)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.csv")
        save_cloud_csv(mu, path)
        nu = load_cloud_csv(path)
    exact = bool(
        np.array_equal(mu.points, nu.points) and np.array_equal(mu.weights, nu.weights)
    )
    return exact, {"natoms": mu.natoms, "exact": exact}


def _chk_dimension_bounds(cases, seed):
    """Covering counts grow as r shrinks; fitted dim lands in [0, n+2]."""
    rng = np.random.default_rng(seed)
    N = min(max(cases, 100), 4000)
    pts = np.column_stack([rng.random(N), rng.random(N)])
    rep = dimension_fit(pts, default_scales(0.01, count=5))
    counts = rep.counts
    monotone = all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    in_range = 0.0 <= rep.fitted_dim <= 3.0
    return monotone and in_range, {
        "counts": counts,
        "fitted_dim": rep.fitted_dim,
        "monotone": monotone,
    }


def _chk_scale_schedule(cases, seed):
    """default_scales: geometric, strictly decreasing, anchored finest."""
    scales = default_scales(1e-3, count=6)
    dec = all(a > b for a, b in zip(scales, scales[1:]))
    finest_ok = abs(scales[-1] - 4e-3) <= 1e-15
    ratios = [a / b for a, b in zip(scales, scales[1:])]
    ratio_ok = all(abs(q - 2.0) <= TOL for q in ratios)
    return dec and finest_ok and ratio_ok, {
        "scales": scales,
        "decreasing": dec,
        "anchor_ok": finest_ok,
        "ratio_ok": ratio_ok,
    }


def _chk_blowup_isometry(cases, seed):
    """d(T_{a,r} p, T_{a,r} q) = d(p, q) / r."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, rows in _blocks(cases, 8):
        P = rng.standard_normal((rows, n + 1))
        Q = rng.standard_normal((rows, n + 1))
        a = ParaPoint(rng.standard_normal(n), float(rng.standard_normal()))
        r = float(rng.uniform(0.05, 20.0))
        lhs = para_norm_rows(blowup_rows(a, r, P) - blowup_rows(a, r, Q))
        rhs = para_norm_rows(P - Q) / r
        worst = max(worst, _worst(np.abs(lhs - rhs), rhs))
    return _tol_result(worst)


def _chk_blowup_composition(cases, seed):
    """T_{0,r} after T_{0,s} equals T_{0,rs} at the origin."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n, rows in _blocks(cases, 8):
        zero = ParaPoint(np.zeros(n), 0.0)
        P = rng.standard_normal((rows, n + 1))
        r = float(rng.uniform(0.1, 10.0))
        s = float(rng.uniform(0.1, 10.0))
        two = blowup_rows(zero, r, blowup_rows(zero, s, P))
        one = blowup_rows(zero, r * s, P)
        worst = max(worst, _worst(np.abs(two - one), np.abs(one)))
    return _tol_result(worst)


def _chk_restriction_invariance(cases, seed):
    """Cone defects only read the ball B(a, r): restricting the measure
    to any larger ball leaves them unchanged."""
    rng = np.random.default_rng(seed)
    N = min(max(cases, 100), 2000)
    pts = np.column_stack([rng.random(N) * 2 - 1, rng.random(N) * 2 - 1])
    w = rng.uniform(0.5, 2.0, N)
    mu = DiscreteMeasure(1, pts, w)
    V = HomPlane.t_axis(1)
    worst = 0.0
    for i in (0, N // 3, (2 * N) // 3):
        a = mu.points[i]
        full = cone_defect(mu, a, V, 0.5, 0.25, 2)
        restricted = cone_defect(mu.restrict_ball(a, 0.6), a, V, 0.5, 0.25, 2)
        worst = max(worst, abs(full - restricted) / max(1.0, abs(full)))
    return _tol_result(worst)


def _chk_flatness_exact(cases, seed):
    """A flat horizontal cloud has flatness defect exactly zero."""
    V = HomPlane.horizontal_axes(1, (0,))
    mu, _ = gen_flat(V, extent=1.0, resolution=5e-3)
    nu = blowup_measure(mu, np.zeros(2), 0.5)
    best, defect = flatness_defect(nu, 1)
    passed = defect <= TOL and best.family == "horizontal"
    return passed, {"defect": defect, "family": best.family}


def _chk_generator_determinism(cases, seed):
    """generate() twice from one spec: identical arrays and sidecars."""
    spec = {"kind": "weierstrass_graph", "params": {"n": 1, "K": 20, "resolution": 2e-3}, "seed": 3}
    mu1, info1 = generate(dict(spec))
    mu2, info2 = generate(dict(spec))
    same_cloud = bool(
        np.array_equal(mu1.points, mu2.points) and np.array_equal(mu1.weights, mu2.weights)
    )
    side1 = json.dumps(sidecar_payload(info1), sort_keys=True)
    side2 = json.dumps(sidecar_payload(info2), sort_keys=True)
    return same_cloud and side1 == side2, {
        "cloud_identical": same_cloud,
        "sidecar_identical": side1 == side2,
    }


def _chk_oscillation_bounds(cases, seed):
    """Measured sqrt-Holder envelope: 0 < lower <= upper, both stable
    under re-evaluation, and stride ratios never exceed the upper bound."""
    ts = np.linspace(0.0, 1.0, 2001)
    fs = weierstrass_eval(0.05, 20, ts)
    up = holder_upper(ts, fs)
    lo = holder_lower(ts, fs)
    stable = up == holder_upper(ts, fs) and lo == holder_lower(ts, fs)
    worst = 0.0
    for stride in (1, 2, 4, 8, 16, 32, 64):
        df = np.abs(fs[stride:] - fs[:-stride])
        dt = np.sqrt(ts[stride:] - ts[:-stride])
        worst = max(worst, float(np.max(df / dt)))
    passed = 0.0 < lo <= up and stable and worst <= up * (1.0 + TOL)
    return passed, {"lower": lo, "upper": up, "max_stride_ratio": worst, "stable": stable}


def _chk_quartic_law(cases, seed):
    """Quartic construction: image lengths are fourth powers of domain
    lengths at every level and the level ratios decrease."""
    _, info = gen_quartic_cantor(depth=6)
    dom = info["dom_lengths"]
    img = info["img_lengths"]
    worst = max(abs(i - d**4) / max(i, 1e-300) for d, i in zip(dom, img))
    ratios = info["level_ratios"]
    dec = all(a > b for a, b in zip(ratios, ratios[1:]))
    return worst <= TOL and dec, {
        "max_rel_error": worst,
        "ratios_decreasing": dec,
        "levels": len(dom),
    }


def _chk_generator_masses(cases, seed):
    """Documented total masses: nested squares carry mass 1, a flat
    horizontal line of radius 1 carries length 2, the quartic image
    carries its domain measure."""
    mu_v, _ = gen_vertical_cantor(depth=2, n_seq=(2, 4), rows=4, cols=2)
    mu_f, _ = gen_flat(HomPlane.horizontal_axes(1, (0,)), extent=1.0, resolution=1e-3)
    mu_q, info_q = gen_quartic_cantor(depth=6)
    mu_c, _ = gen_cantor_segments(n_seq=(2, 3), depth=2, points_per_segment=16)
    err_v = abs(mu_v.total_mass - 1.0)
    err_f = abs(mu_f.total_mass - 2.0)
    err_q = abs(mu_q.total_mass - info_q["domain_measure"])
    passed = err_v <= 1e-9 and err_f <= 1e-9 and err_q <= TOL and mu_c.total_mass > 0
    return passed, {
        "vertical_cantor_error": err_v,
        "flat_line_error": err_f,
        "quartic_error": err_q,
        "segment_mass": mu_c.total_mass,
    }


SUITES = {
    "geometry": [
        ("norm_homogeneity", _chk_norm_homogeneity),
        ("norm_split", _chk_norm_split),
        ("cone_complement_identity", _chk_cone_complement),
        ("projection_1lipschitz", _chk_projection_lipschitz),
    ],
    "measure": [
        ("cover_separation_and_radius", _chk_cover_separation),
        ("csv_roundtrip_exact", _chk_csv_roundtrip),
        ("dimension_bounds", _chk_dimension_bounds),
        ("scale_schedule", _chk_scale_schedule),
    ],
    "rectify": [
        ("blowup_isometry", _chk_blowup_isometry),
        ("blowup_composition", _chk_blowup_composition),
        ("restriction_invariance", _chk_restriction_invariance),
        ("flatness_exact_on_planes", _chk_flatness_exact),
    ],
    "generators": [
        ("determinism", _chk_generator_determinism),
        ("oscillation_bounds", _chk_oscillation_bounds),
        ("quartic_interval_law", _chk_quartic_law),
        ("conserved_masses", _chk_generator_masses),
    ],
}

"""Tangent-plane analytics on discrete parabolic measures.

Covers the cone-defect functional, per-point tangent detection and
classification, normalized blow-ups with flatness and cross-scale
uniqueness diagnostics, and differentiability fitting for sampled graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._report import Record, jsonable, write_csv
from ._version import __version__
from .geometry import (
    HomPlane,
    ParaPoint,
    _check_aperture,
    _dot_cols,
    as_point,
    blowup_rows,
    candidate_planes,
    dist_to_planes_rows,
    para_norm_rows,
    plane_distance,
    tile_slices,
)
from .measure import DiscreteMeasure

# flatness_defect: atoms within TUBE_WIDTH of a plane are in its tube,
# and each plane axis of the unit ball is cut into GRID_CELLS cells
TUBE_WIDTH = 0.05
GRID_CELLS = 6


@dataclass
class TangentConfig(Record):
    """Search configuration for approximate tangent planes.

    The defining limit is replaced by a max over the finite (s, r) grid
    plus a threshold, and the grid is echoed into every report.  When
    r_list is None it is derived from the cloud resolution: three
    geometric scales 8, 4, 2 times the resolution.  The seed picks the
    atoms that classify_points samples and nothing else: the planes
    searched are the canonical ones and those fitted to each ball.
    """

    m: int
    s_list: tuple = (0.5, 0.25, 0.1)
    r_list: tuple | None = None
    threshold: float = 0.05
    sample_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if not len(self.s_list):
            raise ValueError("s_list must hold at least one aperture")
        for s in self.s_list:
            if not 0.0 < s < 1.0:
                raise ValueError(f"s_list: aperture {s} must lie in (0, 1)")
        if self.r_list is not None:
            if not len(self.r_list):
                raise ValueError("r_list must hold at least one radius")
            for r in self.r_list:
                if not 0.0 < r < math.inf:
                    raise ValueError(f"r_list: radius {r} must be finite and > 0")
        if math.isnan(self.threshold):
            raise ValueError("threshold must be a number, got nan")
        for name, low in (("sample_size", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")

    def resolved_r_list(self, mu):
        if self.r_list is not None:
            return tuple(float(r) for r in self.r_list)
        r0 = mu.resolution()
        if not r0 or r0 <= 0.0:
            raise ValueError("cloud resolution unavailable; pass r_list explicitly")
        return (8.0 * r0, 4.0 * r0, 2.0 * r0)


def cone_defect(mu, a, V, s, r, m):
    """Normalized mass of B(a, r) outside the cone X(a, V, s).

    Returns r^(-m) times the total weight of atoms within distance r of
    a whose perpendicular part is at least s times their distance from
    a.  The atom at a itself (distance zero) never counts.  This is the
    one-plane, one-(r, s) case of the grid that detect_tangent scores.
    """
    a = as_point(a, mu.n)
    _check_aperture(s)
    delta, d, w = _gather_ball(mu, a, r)
    return _plane_defect_grids([V], delta, d, w, (float(s),), (r,), m, [d.size])[0][0]


def _gather_ball(mu, a, r_max):
    """The atoms of the closed ball dist_rows(p, a) <= r_max around the
    ParaPoint a, from DiscreteMeasure.ball, without the atoms at
    distance 0.

    Returns (delta, dist, weight) with rows ordered by increasing
    distance; ties keep canonical atom order, since ball returns its
    rows ascending and the sort is stable.
    """
    rows, d = mu.ball(a, r_max)
    keep = d > 0.0
    rows, d = rows[keep], d[keep]
    order = np.argsort(d, kind="stable")
    rows = rows[order]
    return mu.points[rows] - a.coords(), d[order], mu.weights[rows]


def _fitted_planes(n, m, delta, d, w):
    """The m-planes of P^n fitted to a ball from _gather_ball.

    With u = x / d (finite however close the atoms) for the horizontal
    parts x of delta, the eigenvectors of sum w u u^T, largest first,
    span the fits: the top m a horizontal plane, the top m - 2 and the
    t-axis a vertical one.  A family with k = 0 or n is a single plane,
    already a canonical candidate, and gets no fit."""
    u = delta[:, :-1] / d[:, None]
    top = np.linalg.eigh((u * w[:, None]).T @ u)[1][:, ::-1].T
    return [HomPlane(n, top[:k], vertical)
            for k, vertical in ((m, False), (m - 2, True)) if 1 <= k <= n - 1]


def _plane_defect_grids(planes, delta, d, w, s_list, r_list, m, prefix):
    """Defect at every (r, s) pair for each plane on a ball from
    _gather_ball, whose first prefix[i] rows lie within r_list[i].

    Returns (worst, curves), one entry per plane in list order: the
    grid max (0.0 at least) and the flat curve [(r, s, defect), ...].
    The defect at (r, s) is float(sum of w over the rows within r with
    perp >= s * d) * r^-m, summed by np.sum over the masked weights in
    row order, so it does not depend on which planes are scored
    together.  Planes go through dist_to_planes_rows in tile_slices
    chunks, one (chunk, |s_list|, count) mask per r.
    """
    s_col = np.asarray(s_list, dtype=float)[:, None]
    keys = [(r, s) for r in r_list for s in s_list]
    worst = []
    curves = []
    for chunk in tile_slices(len(planes), d.size):
        perp = dist_to_planes_rows(planes[chunk], delta)
        grid = np.zeros((perp.shape[0], len(r_list), len(s_list)))
        for j, (r, cnt) in enumerate(zip(r_list, prefix)):
            if cnt == 0:
                continue
            scale = float(r) ** (-float(m))
            ww = w[:cnt]
            outside = perp[:, None, :cnt] >= s_col * d[:cnt]
            hits = np.count_nonzero(outside, axis=2)
            grid[:, j] = np.where(hits == cnt, float(ww.sum()) * scale, 0.0 * scale)
            for p, i in zip(*np.nonzero((hits > 0) & (hits < cnt))):
                grid[p, j, i] = float(ww[outside[p, i]].sum()) * scale
        worst.extend(np.where(grid > 0.0, grid, 0.0).max(axis=(1, 2)).tolist())
        cells = grid.reshape(grid.shape[0], -1).tolist()
        curves.extend([(r, s, x) for (r, s), x in zip(keys, row)] for row in cells)
    return worst, curves


@dataclass(eq=False)
class PointTangent:
    """Tangent-detection outcome at one point.

    best_plane is None when no plane beat the threshold, in which case
    argmin_plane still records the minimizer behind the reported curve.
    """

    best_plane: HomPlane | None
    defect_curve: list
    classification: str
    min_defect: float
    argmin_plane: HomPlane | None

    def __repr__(self):
        return f"PointTangent({self.classification}, min_defect={self.min_defect:.4g})"


def detect_tangent(mu, a, cfg, planes=None):
    """Approximate tangent plane of mu at a.

    The planes (by default the canonical candidate_planes(n, m)), then
    those _fitted_planes fits to the ball at a, are scored by the
    max of cone_defect over the (s, r) grid; the argmin wins, ties by
    list position.  A point whose punctured ball is empty at every
    scale yields class "none" with an empty curve.

    All planes are scored in one pass: _plane_defect_grids projects
    them through geometry.dist_to_planes_rows, which groups them by
    (k, includes_t_axis) for one stacked projection, in chunks of
    PAIR_TILE // N planes for a ball of N atoms, so temporaries stay
    within a few PAIR_TILE * (n + 1) floats.  Each plane's scores are
    bit for bit those it gets alone, so the result does not depend on
    the batch size.
    """
    a = as_point(a, mu.n)
    r_list = cfg.resolved_r_list(mu)
    if planes is None:
        planes = candidate_planes(mu.n, cfg.m)
    delta, d, w = _gather_ball(mu, a, max(r_list))
    if d.size == 0:
        return PointTangent(None, [], "none", math.inf, None)
    s_list = tuple(float(s) for s in cfg.s_list)
    prefix = [int(np.searchsorted(d, r, side="right")) for r in r_list]
    planes = list(planes) + _fitted_planes(mu.n, cfg.m, delta, d, w)
    worsts, curves = _plane_defect_grids(planes, delta, d, w, s_list, r_list, float(cfg.m), prefix)
    i = worsts.index(min(worsts))  # the first least score: ties go to the earlier plane
    best_worst, best_plane, best_curve = worsts[i], planes[i], curves[i]
    if best_worst > cfg.threshold:
        return PointTangent(None, best_curve, "none", best_worst, best_plane)
    return PointTangent(best_plane, best_curve, best_plane.family, best_worst, best_plane)


@dataclass(eq=False)
class TangentReport:
    """Per-point tangent classification over a seeded atom subsample."""

    config: dict
    points: list
    results: list
    fractions: dict

    def __len__(self):
        return len(self.results)

    def __repr__(self):
        parts = ", ".join(f"{k}={v:.3f}" for k, v in sorted(self.fractions.items()))
        return f"TangentReport({len(self)} points, {parts})"

    def to_dict(self):
        per_point = [
            {"a": p, "class": res.classification, "best_plane": res.best_plane,
             "defect_curve": res.defect_curve}
            for p, res in zip(self.points, self.results)
        ]
        return jsonable({
            "version": __version__,
            "config": self.config,
            "fractions": self.fractions,
            "per_point": per_point,
        })

    def defect_curves_csv(self, path):
        """Flat r,s,defect rows (plus the point index) for plotting."""
        sizes = [len(res.defect_curve) for res in self.results]
        table = np.reshape([row for res in self.results for row in res.defect_curve], (-1, 3))
        write_csv(path, ["point_index", "r", "s", "defect"],
                  [np.repeat(np.arange(len(sizes)), sizes), *table.T])


def classify_points(mu, cfg):
    """Run detect_tangent on a seeded subsample of atoms and tally the
    horizontal / vertical / none fractions (they sum to 1)."""
    if mu.natoms == 0:
        raise ValueError("measure has no atoms")
    rng = np.random.default_rng(cfg.seed)
    size = min(int(cfg.sample_size), mu.natoms)
    sel = np.sort(rng.choice(mu.natoms, size=size, replace=False))
    planes = candidate_planes(mu.n, cfg.m)
    r_list = cfg.resolved_r_list(mu)
    points = [ParaPoint.from_coords(mu.points[i]) for i in sel]
    results = [detect_tangent(mu, a, cfg, planes) for a in points]
    counts = {"horizontal": 0, "vertical": 0, "none": 0}
    for res in results:
        counts[res.classification] += 1
    fractions = {key: counts[key] / size for key in ("horizontal", "vertical", "none")}
    config = dict(cfg.to_dict(), r_list_resolved=[float(r) for r in r_list])
    return TangentReport(config, points, results, fractions)


def blowup_measure(mu, a, r, normalization="mass", m=None):
    """Zoom of mu at a by scale r, restricted to the unit ball.

    The atoms of the closed ball dist_rows(p, a) <= r go through
    p -> delta_{1/r}(p - a), and their weights are scaled by c = 1 / M,
    M the mass of that ball, for "mass" normalization or c = r^(-m) for
    "power".
    """
    a = as_point(a, mu.n)
    r = float(r)
    rows = mu.ball(a, r)[0]
    if normalization == "mass":
        mass = float(np.sum(mu.weights[rows]))
        if mass <= 0.0:
            raise ValueError(f"B(a, {r}) holds no atoms; mass normalization undefined")
        c = 1.0 / mass
    elif normalization == "power":
        mm = mu.nominal_dim if m is None else float(m)
        if mm is None:
            raise ValueError("power normalization needs m (or a nominal_dim on mu)")
        c = r ** (-float(mm))
    else:
        raise ValueError(f"unknown normalization {normalization!r}")
    hint = mu.resolution_hint / r if mu.resolution_hint else None
    return DiscreteMeasure(
        mu.n,
        blowup_rows(a, r, mu.points[rows]),
        mu.weights[rows] * c,
        nominal_dim=mu.nominal_dim,
        provenance=(mu.provenance + " | " if mu.provenance else "") + f"blowup r={r:g}",
        resolution_hint=hint,
    )


def _cell_grid(V):
    """Centers of the GRID_CELLS-per-axis grid on V within the unit ball.

    Horizontal planes grid the Euclidean ball of R^k; vertical planes
    grid {(xi, t): |xi|^2 + |t| <= 1}.  Returns (dims, valid mask) with
    the mask flattened in C order.
    """
    g = GRID_CELLS
    axes = V.k + (1 if V.includes_t_axis else 0)
    centers = -1.0 + (np.arange(g) + 0.5) * (2.0 / g)
    mesh = np.meshgrid(*([centers] * axes), indexing="ij")
    stack = np.stack([mg.ravel() for mg in mesh], axis=1)
    if V.includes_t_axis:
        sq = np.sum(stack[:, :-1] ** 2, axis=1) + np.abs(stack[:, -1])
    else:
        sq = np.sum(stack**2, axis=1)
    return axes, sq <= 1.0


def _empty_cell_fraction(V, coords):
    """Fraction of valid plane cells left empty by the projections of
    the given ambient rows.  Their plane coordinates are summed by
    _dot_cols in ascending order, with no BLAS call."""
    g = GRID_CELLS
    axes, valid = _cell_grid(V)
    total = int(np.sum(valid))
    if total == 0:
        return 1.0
    if coords.shape[0] == 0:
        return 1.0
    xcols = [coords[:, c] for c in range(V.n)]
    cols = [_dot_cols(b, xcols) for b in V.horiz_basis]
    if V.includes_t_axis:
        cols.append(coords[:, -1])
    plane_xy = np.stack(cols, axis=1)
    idx = np.clip(np.floor((plane_xy + 1.0) * (g / 2.0)).astype(int), 0, g - 1)
    codes = np.ravel_multi_index(idx.T, (g,) * axes)
    occupied = np.zeros(g**axes, dtype=bool)
    occupied[codes] = True
    hit = int(np.sum(occupied & valid))
    return float(total - hit) / float(total)


def flatness_defect(nu, m, planes=None):
    """How far nu (supported in the unit ball) is from a flat measure.

    The planes (by default the canonical candidate_planes(n, m)), then
    those _fitted_planes fits to the atoms of nu off the origin, are
    each scored by the mass fraction outside the tube of width
    TUBE_WIDTH = 0.05 about the plane plus the fraction of empty cells of
    the GRID_CELLS = 6 per axis grid on the plane (so a measure covering
    only half a plane still scores high).  Returns (best_plane, defect)
    with defect clamped to [0, 1]; ties go to the earlier plane.
    """
    if nu.natoms == 0:
        raise ValueError("flatness defect of an empty measure")
    if planes is None:
        planes = candidate_planes(nu.n, m)
    d = para_norm_rows(nu.points)
    off = d > 0.0
    planes = list(planes) + _fitted_planes(nu.n, m, nu.points[off], d[off], nu.weights[off])
    total = nu.total_mass
    best = None
    for chunk in tile_slices(len(planes), nu.natoms):
        for V, dist in zip(planes[chunk], dist_to_planes_rows(planes[chunk], nu.points)):
            in_tube = dist <= TUBE_WIDTH
            out_frac = 1.0 - float(np.sum(nu.weights[in_tube])) / total
            empty_frac = _empty_cell_fraction(V, nu.points[in_tube])
            defect = min(1.0, out_frac + empty_frac)
            if best is None or defect < best[1]:
                best = (V, defect)
    return best


@dataclass(eq=False)
class UniquenessScan(Record):
    """Cross-scale flatness scan at one point: best plane and defect per
    scale, the max pairwise plane distance (spread), and the max defect."""

    point: ParaPoint
    scales: tuple
    planes: list
    defects: list
    spread: float
    max_defect: float

    def __repr__(self):
        return f"UniquenessScan(spread={self.spread:.4g}, max_defect={self.max_defect:.4g})"

    def to_dict(self):
        d = super().to_dict()
        return {"version": __version__, "a": d.pop("point"), **d}


def tangent_uniqueness_scan(mu, a, scale_sequence, m):
    """Blow up at a over each scale, fit the flattest plane, and report
    how much the winning plane moves across scales.  A small spread and
    small defects is the empirical signature of a unique flat tangent.

    Each blow-up is mass normalized and scored by flatness_defect (tube
    width TUBE_WIDTH = 0.05, GRID_CELLS = 6 cells per plane axis) over
    candidate_planes(n, m), built once, and the planes fitted to it.
    """
    a = as_point(a, mu.n)
    scales = tuple(float(r) for r in scale_sequence)
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    candidates = candidate_planes(mu.n, m)
    planes = []
    defects = []
    for r in scales:
        V, defect = flatness_defect(blowup_measure(mu, a, r), m, planes=candidates)
        planes.append(V)
        defects.append(defect)
    spread = 0.0
    for i in range(len(planes) - 1):
        for j in range(i + 1, len(planes)):
            spread = max(spread, plane_distance(planes[i], planes[j]))
    return UniquenessScan(a, scales, planes, defects, spread, max(defects))


@dataclass
class FitConfig(Record):
    """Scales (coarse to fine) and the verdict threshold for
    differentiability fitting."""

    scales: tuple
    threshold: float = 0.05


@dataclass(eq=False)
class DifferentialFit(Record):
    """Weighted least-squares differential of a sampled graph at one
    base point.

    lam maps the horizontal coordinates of the base plane to the
    horizontal coordinates of the complement; homogeneity leaves no
    t-row, so any t-mismatch goes straight into the residual.
    residual_curve lists (scale, max normalized residual) from coarse
    to fine.
    """

    point_index: int
    base: np.ndarray
    lam: np.ndarray
    residual_curve: list
    verdict: str | None
    flagged: bool

    def __repr__(self):
        return f"DifferentialFit(p={self.point_index}, verdict={self.verdict!r})"


def fit_differential(graph, p_index, cfg):
    """Fit the parabolic differential of a sampled graph at one point.

    Per scale r, the points with base distance in (0, r] enter a least
    squares problem for lam weighted by 1 / distance^2; the residual is
    the max of |value mismatch| / base distance, where the mismatch is
    measured in the parabolic norm of the complement (any t-component
    of the values is unmatchable by lam and counts fully).  The verdict
    is "differentiable" when the finest residual is at or below the
    threshold, "not_differentiable" otherwise; neighborhoods with fewer
    than max(k, 1) points or a rank-deficient regressor flag the fit
    and leave no verdict.
    """
    V = graph.plane
    k = V.k
    p = int(p_index)
    if not 0 <= p < len(graph):
        raise IndexError(f"point index {p} out of range")
    xi = graph.base_h
    eta = graph.value_h
    co_k = eta.shape[1]
    dxi = xi - xi[p]
    deta = eta - eta[p]
    sq = np.einsum("ij,ij->i", dxi, dxi)
    if V.includes_t_axis:
        dbase = np.sqrt(sq + np.abs(graph.base_t - graph.base_t[p]))
        dtau = None
    else:
        dbase = np.sqrt(sq)
        dtau = graph.value_t - graph.value_t[p]
    scales = tuple(sorted((float(r) for r in cfg.scales), reverse=True))
    if not scales:
        raise ValueError("cfg.scales must be nonempty")
    lam = np.zeros((co_k, k))
    curve = []
    flagged = False
    for r in scales:
        sel = (dbase > 0.0) & (dbase <= r)
        cnt = int(np.sum(sel))
        if cnt < max(k, 1):
            flagged = True
            break
        if k and co_k:
            A = dxi[sel] / dbase[sel, None]
            B = deta[sel] / dbase[sel, None]
            sol, _, rank, _ = np.linalg.lstsq(A, B, rcond=None)
            if rank < k:
                flagged = True
                break
            lam = sol.T
        mis = deta[sel] - dxi[sel] @ lam.T
        num2 = np.einsum("ij,ij->i", mis, mis)
        if dtau is not None:
            num2 = num2 + np.abs(dtau[sel])
        curve.append((r, float(np.max(np.sqrt(num2) / dbase[sel]))))
    if flagged:
        verdict = None
    elif curve[-1][1] <= cfg.threshold:
        verdict = "differentiable"
    else:
        verdict = "not_differentiable"
    return DifferentialFit(p, graph.base[p].copy(), lam, curve, verdict, flagged)

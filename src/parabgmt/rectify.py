"""Tangent-plane analytics on discrete parabolic measures.

Covers the cone-defect functional, per-point tangent detection and
classification, normalized blow-ups with flatness and cross-scale
uniqueness diagnostics, and differentiability fitting for sampled graphs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._report import Record, jsonable, write_csv
from ._version import __version__
from .geometry import (
    HomPlane,
    ParaPoint,
    _check_aperture,
    _check_radius,
    _dot_cols,
    _perp_norm,
    _project_paired,
    as_point,
    blowup_rows,
    candidate_planes,
    dist_to_planes_rows,
    para_norm_rows,
    plane_distance,
    tile_count,
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
    one-ball, one-plane, one-(r, s) case of _ball_scores, the kernel
    that detect_tangent and classify_points score through.
    """
    a = as_point(a, mu.n)
    _check_aperture(s)
    score = next(_ball_scores(mu, [a], [V], (float(s),), (r,), m))
    return 0.0 if score is None else score[0][0]


def _fit_families(n, m):
    """(k, includes_t_axis) of each plane _fitted_planes fits in P^n:
    the horizontal k = m and the vertical k = m - 2, when 1 <= k <= n - 1."""
    return [(k, vertical) for k, vertical in ((m, False), (m - 2, True)) if 1 <= k <= n - 1]


def _fitted_planes(n, m, delta, d, w):
    """The m-planes of P^n fitted to the atoms p - a = delta of a
    punctured ball at distances d > 0, with weights w: _fit_bases of
    its _moment, as HomPlanes."""
    bases = _fit_bases(n, m, _moment(delta, d, w)[None])
    return [HomPlane(n, b[0], vertical) for b, (_, vertical) in zip(bases, _fit_families(n, m))]


def _moment(delta, d, w):
    """sum w u u^T over a ball's rows, with u = x / d (finite however
    close the atoms) for the horizontal parts x of delta."""
    u = delta[:, :-1] / d[:, None]
    return (u * w[:, None]).T @ u


def _fit_bases(n, m, moments):
    """The horizontal bases of the planes fitted to each of a (B, n, n)
    stack of _moment matrices, one (B, k, n) stack per family of
    _fit_families(n, m).  The eigenvectors of a moment, largest first,
    span the fits: the top m a horizontal plane, the top m - 2 and the
    t-axis a vertical one.  A family with k = 0 or n is a single plane,
    already a canonical candidate, and gets no fit.  One stacked eigh
    gives each matrix the bits it gets alone."""
    top = np.linalg.eigh(moments)[1][..., ::-1].swapaxes(-1, -2)
    return [top[:, :k] for k, _ in _fit_families(n, m)]


def _ball_blocks(mu, centres, r_max, width):
    """The punctured balls 0 < dist_rows(p, a) <= r_max around the
    ParaPoints a of centres, in blocks of consecutive centres.

    Each ball comes from DiscreteMeasure.ball.  Its rows are ordered by
    increasing distance, ties in canonical atom order: ball returns them
    ascending, and one stable lexsort by (ball, distance) orders the
    block.  A block is (delta, d, w, sizes): the differences p - a, the
    distances and the weights of its balls' rows, ball after ball, and
    each ball's row count.  It holds at most tile_count(width) rows, an
    empty ball counting as one, unless a single ball is larger.
    """
    bound = tile_count(width)
    block, used = [], 0
    for a in centres:
        rows, d = mu.ball(a, r_max)
        if block and used + max(rows.size, 1) > bound:
            yield _gathered(mu, block)
            block, used = [], 0
        block.append((a.coords(), rows, d))
        used += max(rows.size, 1)
    if block:
        yield _gathered(mu, block)


def _gathered(mu, block):
    """One block of _ball_blocks from its (centre, rows, dist) balls."""
    coords, rows, d = zip(*block)
    ids = np.repeat(np.arange(len(block)), [r.size for r in rows])
    rows, d = np.concatenate(rows), np.concatenate(d)
    keep = d > 0.0
    order = np.lexsort((d[keep], ids[keep]))
    ids, rows, d = ids[keep][order], rows[keep][order], d[keep][order]
    delta = mu.points[rows] - np.array(coords)[ids]
    return delta, d, mu.weights[rows], np.bincount(ids, minlength=len(block))


def _segment_counts(mask, lo, hi):
    """The number of True entries of mask[..., lo[i]:hi[i]] for each i,
    as integers, from one np.add.reduceat over the last axis.  The
    mask's last column must be False and lie past every hi; an empty
    segment counts 0."""
    counts = np.add.reduceat(mask, np.column_stack([lo, hi]).ravel(), axis=-1,
                             dtype=np.intp)[..., ::2]
    return np.where(lo < hi, counts, 0)


def _ball_scores(mu, centres, planes, s_list, r_list, m, fit=False):
    """Cone defects of planes on the punctured ball B(a, max(r_list))
    of each centre a, at every (r, s).  The planes are those listed,
    then, with fit, one per family of _fit_families(n, m), fitted to
    the ball.  Yields, per centre, None for an empty ball, else (worst,
    grid, fitted): each plane's grid max (0.0 at least), the (planes,
    r, s) grid of defects, and the (basis, includes_t_axis) of each
    fitted plane.

    The defect at (r, s) is float(sum of w over the rows within r with
    perp >= s * d) * r^-m.  The centres' balls are scored together, in
    blocks of _ball_blocks, and the planes of a block in tile_slices
    chunks, so a (planes, s, rows) mask holds about PAIR_TILE entries.
    Each defect keeps the bits a ball scored alone gets:
    - a (plane, row) distance has the same bits whichever planes and
      rows go with it: dist_to_planes_rows for the listed planes, and
      geometry._project_paired, which projects each row on its own
      ball's fitted basis in _dot_cols' order, for the fits;
    - each ball's moment is built from its own rows, and one stacked
      eigh fits every ball of a block (_fit_bases);
    - the hits of a ball within r are exact integer counts
      (_segment_counts);
    - a full cell, every row within r outside the cone, sums the
      ball's contiguous prefix of weights by np.sum;
    - a partial cell sums the compressed masked weights by np.sum, in
      row order: one vectorised sum would add them in another order,
      and change the bits.
    So no result depends on which centres or planes are scored together.
    """
    families = _fit_families(mu.n, m) if fit else []
    width = (len(planes) + len(families)) * len(s_list)
    for delta, d, w, sizes in _ball_blocks(mu, centres, max(r_list), width):
        ends = np.cumsum(sizes)
        starts = ends - sizes
        fitted = []
        if families:
            moments = np.zeros((sizes.size, mu.n, mu.n))
            for b in np.flatnonzero(sizes).tolist():
                lo, hi = starts[b], ends[b]
                moments[b] = _moment(delta[lo:hi], d[lo:hi], w[lo:hi])
            fitted = list(zip(_fit_bases(mu.n, m, moments), (v for _, v in families)))
        grid = _defect_grid(delta, d, w, starts, ends, planes, fitted, s_list, r_list, m)
        worst = np.where(grid > 0.0, grid, 0.0).max(axis=(2, 3))
        for b, size in enumerate(sizes.tolist()):
            if size == 0:
                yield None
            else:
                yield worst[:, b].tolist(), grid[:, b], [(f[b], v) for f, v in fitted]


def _defect_grid(delta, d, w, starts, ends, planes, fitted, s_list, r_list, m):
    """The (planes, balls, r, s) grid of defects of one block of
    _ball_blocks, whose ball b holds rows starts[b]:ends[b]: the listed
    planes, then one plane per (bases, includes_t_axis) of fitted, its
    (balls, k, n) bases holding each ball's fit."""
    nrows, nball = d.size, starts.size
    grid = np.zeros((len(planes) + len(fitted), len(s_list), nball, len(r_list)))
    if nrows == 0:
        return grid.transpose(0, 2, 3, 1)
    # the rows of ball b within r_list[j] are starts[b]:starts[b] + cnt[b, j];
    # a row at inf past the end is within no r, as _segment_counts needs
    tail = np.append(d, math.inf)
    cnt = _segment_counts(tail <= np.asarray(r_list, dtype=float)[:, None], starts, ends).T
    # r^-m as Python computes it, and only at an r some ball reaches: a
    # power past the float range raises OverflowError there alone, so a
    # scale is finite, and a cell with no hit is 0.0 * scale = 0.0
    scale = [float(r) ** (-float(m)) if reached else 0.0
             for r, reached in zip(r_list, cnt.any(axis=0).tolist())]
    s_col = np.asarray(s_list, dtype=float)[:, None]
    lo = np.repeat(starts, len(r_list))
    hi = lo + cnt.ravel()
    xcols, t = list(delta.T[:-1]), delta[:, -1]
    bases = [(np.repeat(f, ends - starts, axis=0), vertical) for f, vertical in fitted]
    sd = s_col * d
    for chunk in tile_slices(grid.shape[0], len(s_list) * nrows):
        listed = planes[chunk]
        perp = np.empty((chunk.stop - chunk.start, nrows))
        if listed:
            perp[:len(listed)] = dist_to_planes_rows(listed, delta)
        for p in range(max(chunk.start, len(planes)), chunk.stop):
            basis, vertical = bases[p - len(planes)]
            perp[p - chunk.start] = _perp_norm(vertical, xcols, t, _project_paired(basis, xcols))
        mask = np.zeros((perp.shape[0], len(s_list), nrows + 1), dtype=bool)
        np.greater_equal(perp[:, None, :], sd, out=mask[..., :nrows])
        hits = _segment_counts(mask, lo, hi).reshape(mask.shape[:2] + cnt.shape)
        full = hits == cnt
        sums = np.zeros(cnt.shape)
        for b, j in zip(*np.nonzero(full.any(axis=(0, 1)) & (cnt > 0))):
            sums[b, j] = float(w[starts[b]:starts[b] + cnt[b, j]].sum()) * scale[j]
        part = grid[chunk]
        part[...] = np.where(full, sums, 0.0)
        for p, i, b, j in zip(*(x.tolist() for x in np.nonzero((hits > 0) & ~full))):
            a, z = starts[b], starts[b] + cnt[b, j]
            part[p, i, b, j] = float(w[a:z][mask[p, i, a:z]].sum()) * scale[j]
    return grid.transpose(0, 2, 3, 1)


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

    This is the one-centre case of _tangents, which classify_points
    runs on all its sampled atoms at once.  Every score has the bits
    the point gets alone (see _ball_scores), so the result does not
    depend on which points, or how many planes, are scored with it.
    """
    a = as_point(a, mu.n)
    r_list = cfg.resolved_r_list(mu)
    if planes is None:
        planes = candidate_planes(mu.n, cfg.m)
    return _tangents(mu, [a], cfg, planes, r_list)[0]


def _tangents(mu, centres, cfg, planes, r_list):
    """detect_tangent at each ParaPoint of centres, with r_list resolved
    by the caller, from one _ball_scores pass over them all."""
    planes = list(planes)
    s_list = tuple(float(s) for s in cfg.s_list)
    keys = [(r, s) for r in r_list for s in s_list]
    results = []
    for score in _ball_scores(mu, centres, planes, s_list, r_list, cfg.m, fit=True):
        if score is None:
            results.append(PointTangent(None, [], "none", math.inf, None))
            continue
        worsts, grid, fitted = score
        i = worsts.index(min(worsts))  # the first least score: ties go to the earlier plane
        best_worst = worsts[i]
        best_plane = planes[i] if i < len(planes) else HomPlane(mu.n, *fitted[i - len(planes)])
        best_curve = [(r, s, x) for (r, s), x in zip(keys, grid[i].ravel().tolist())]
        if best_worst > cfg.threshold:
            results.append(PointTangent(None, best_curve, "none", best_worst, best_plane))
        else:
            results.append(PointTangent(best_plane, best_curve, best_plane.family, best_worst,
                                        best_plane))
    return results


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
    horizontal / vertical / none fractions (they sum to 1).

    r_list is resolved once, and the sampled atoms are scored in one
    _ball_scores pass, their balls in blocks of about PAIR_TILE mask
    entries.  Each result keeps the bits detect_tangent gives at its
    atom alone: a (plane, row) distance does not depend on the rows
    scored with it, hit counts are exact integers, and every defect is
    np.sum over its own ball's weights in row order.
    """
    if mu.natoms == 0:
        raise ValueError("measure has no atoms")
    rng = np.random.default_rng(cfg.seed)
    size = min(int(cfg.sample_size), mu.natoms)
    sel = np.sort(rng.choice(mu.natoms, size=size, replace=False))
    r_list = cfg.resolved_r_list(mu)
    points = [ParaPoint.from_coords(mu.points[i]) for i in sel]
    results = _tangents(mu, points, cfg, candidate_planes(mu.n, cfg.m), r_list)
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
    and leave no verdict.  p_index is taken through operator.index, and
    every scale must lie in (0, inf).

    A call costs its window, not N: it reads only the rows of
    graph._window at the largest scale, in ascending row order.  Every
    row within that scale is among them.  Each of its keys (see
    GraphSamples) is a coordinate whose differences make the base
    distance: the rounded square of the base_h[:, 0] difference, or the
    |dt| of the base t, is one nonnegative term of the squared distance,
    and rounding is monotone, so the key difference is as close as
    dist_rows would put a one-coordinate row, which _reach bounds.  The
    rows and their order are those of a scan over the whole graph, so
    lstsq, einsum and max get the same inputs, and the fit its bits.
    """
    V = graph.plane
    k = V.k
    p = operator.index(p_index)
    if not 0 <= p < len(graph):
        raise IndexError(f"point index {p} out of range")
    scales = [float(r) for r in cfg.scales]
    if not scales:
        raise ValueError("cfg.scales must be nonempty")
    for r in scales:
        _check_radius(r)
    scales.sort(reverse=True)
    rows = graph._window(p, scales[0])
    dxi = graph.base_h[rows] - graph.base_h[p]
    deta = graph.value_h[rows] - graph.value_h[p]
    co_k = deta.shape[1]
    sq = np.einsum("ij,ij->i", dxi, dxi)
    if V.includes_t_axis:
        dbase = np.sqrt(sq + np.abs(graph.base_t[rows] - graph.base_t[p]))
        dtau = None
    else:
        dbase = np.sqrt(sq)
        dtau = graph.value_t[rows] - graph.value_t[p]
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

"""Discrete measures and covering-based estimators.

A DiscreteMeasure is a weighted point cloud standing in for a Hausdorff
measure restricted to a set.  On top of it sit a deterministic greedy
ball covering, box-counting dimension fits in the parabolic or
euclidean metric, density profiles, the isodiametric mesh ratio that
gives the flat-measure constants, and the covering-sum evaluator for
images of Lipschitz maps into P^n.
"""

import csv
import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._index import GridIndex
from ._report import Record, write_csv
from ._version import __version__
from .geometry import (
    ParaPoint,
    _check_radius,
    _norm_cols,
    _reach,
    _sum_squares,
    as_coord_array,
    as_point,
    dist_rows,
    pair_blocks,
    para_norm_rows,
)

# finest default scale sits at 4x the cloud resolution, per-octave schedule
SCALE_RATIO = 0.5
SCALE_COUNT = 8
SCALE_ANCHOR = 4.0


def canonical_order(coords):
    """Permutation sorting rows lexicographically by x1, x2, ..., t.

    Rows already in that order give the identity, which is what the
    stable lexsort returns for them, without sorting."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    keys = tuple(coords[:, j] for j in range(coords.shape[1] - 1, -1, -1))
    if keys:
        # each pair of neighbours compared at its first differing column
        # (column 0 for equal rows); a NaN there fails and is sorted
        head, tail = coords[:-1], coords[1:]
        col = (head != tail).argmax(axis=1)
        pair = np.arange(col.size)
        if np.all(head[pair, col] <= tail[pair, col]):
            return np.arange(coords.shape[0])
    return np.lexsort(keys)


def canonical_sorted(coords):
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return coords[canonical_order(coords)]


class DiscreteMeasure:
    """Weighted atoms in P^n, canonically sorted, duplicates merged.

    points is an (N, n+1) array whose columns are x1..xn, t; weights is
    the matching (N,) array of positive masses.
    """

    def __init__(self, n, points, weights, nominal_dim=None, provenance="", resolution_hint=None):
        n = int(n)
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != n + 1:
            raise ValueError(f"points must have {n + 1} columns for n={n}")
        w = np.asarray(weights, dtype=float)
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match the number of points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not (np.all(np.isfinite(w)) and np.all(w > 0)):
            raise ValueError("weights must be finite and > 0")
        order = canonical_order(pts)
        pts = pts[order]
        w = w[order]
        if pts.shape[0] > 1:
            new_group = np.empty(pts.shape[0], dtype=bool)
            new_group[0] = True
            new_group[1:] = np.any(pts[1:] != pts[:-1], axis=1)
            starts = np.flatnonzero(new_group)
            if starts.size < pts.shape[0]:
                pts = pts[starts]
                w = np.add.reduceat(w, starts)
        self.n = n
        self.points = pts
        self.weights = w
        self.nominal_dim = None if nominal_dim is None else float(nominal_dim)
        self.provenance = str(provenance)
        self.resolution_hint = None if resolution_hint is None else float(resolution_hint)
        self._resolution = None

    @property
    def natoms(self):
        return self.points.shape[0]

    @property
    def total_mass(self):
        return float(np.sum(self.weights))

    def atoms(self):
        """Iterate (ParaPoint, weight) pairs in canonical order."""
        for row, w in zip(self.points, self.weights):
            yield ParaPoint(row[:-1], row[-1]), float(w)

    def __len__(self):
        return self.natoms

    def __eq__(self, other):
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    def __repr__(self):
        return (
            f"DiscreteMeasure(n={self.n}, atoms={self.natoms}, mass={self.total_mass:.6g}, "
            f"provenance={self.provenance!r})"
        )

    @functools.cached_property
    def _index(self):
        """The GridIndex of the atoms, built on first use: every ball,
        resolution() and greedy_cover of the measure read it."""
        return GridIndex(self.points)

    def ball(self, a, r, metric="parabolic"):
        """The closed ball dist_rows(p, a) <= r as (rows, dist): the rows
        of the atoms in it, ascending, and their dist_rows values.

        Only one of a's x1 and t windows is scanned (see _index), and
        every atom of the ball lies in it, so rows and distances are those
        of a scan over the whole cloud, bit for bit.  A distance that
        overflows is inf, outside the ball, and raises no warning."""
        return self._index.ball(as_point(a, self.n).coords(), r, metric)

    def restrict_ball(self, a, r, metric="parabolic"):
        rows = self.ball(a, r, metric)[0]
        if not rows.size:
            raise ValueError("no atoms inside the requested ball")
        return DiscreteMeasure(
            self.n,
            self.points[rows],
            self.weights[rows],
            nominal_dim=self.nominal_dim,
            provenance=self.provenance + " | restricted",
            resolution_hint=self.resolution_hint,
        )

    def resolution(self):
        """Parabolic resolution scale of the cloud: the generator hint
        when present, else the median nearest-neighbor distance of 256
        evenly spread atoms.

        Each atom's neighbour is sought only in its window (see _index)
        at its distance h to an adjacent canonical row; the windows of
        all 256 atoms come from one call.  Every row within h lies in
        its window, so the minimum is the one a scan over the whole
        cloud takes, bit for bit.  ball cannot serve here: h may be inf,
        which opens the window to the whole cloud."""
        if self.resolution_hint is not None:
            return self.resolution_hint
        if self._resolution is None:
            if self.natoms < 2:
                self._resolution = 0.0
            else:
                self._resolution = self._measured_resolution()
        return self._resolution

    def _measured_resolution(self):
        pts, last = self.points, self.natoms - 1
        take = _spread_index(self.natoms, min(self.natoms, 256))
        adjacent = np.stack([np.where(take > 0, take - 1, 1),
                             np.where(take < last, take + 1, last - 1)])
        # a distance that overflows is +inf, the largest a minimum can be
        with np.errstate(over="ignore"):
            h = dist_rows(pts[adjacent], pts[take]).min(axis=0)
            index = self._index
            mins = []
            for i, *window in zip(take.tolist(), *index.windows(pts[take], h)):
                rows = index.rows(*window)
                d = dist_rows(pts.take(rows, axis=0), pts[i])
                d[rows.searchsorted(i)] = np.inf
                mins.append(float(d.min()))
        return _median(mins)


def _median(values):
    """float(np.median(values)), the mean of the middle sorted values,
    without the NaN check of np.median, which imports numpy.ma."""
    vals = np.sort(values)
    return float(vals[(vals.size - 1) // 2 : vals.size // 2 + 1].mean())


def save_cloud_csv(mu, path):
    """Point-cloud CSV: header x1,...,xn,t,w, shortest round-trip floats."""
    header = [f"x{i + 1}" for i in range(mu.n)] + ["t", "w"]
    write_csv(path, header, [*mu.points.T, mu.weights])


def load_cloud_csv(path, nominal_dim=None, provenance=None):
    """Read a point-cloud CSV, the format save_cloud_csv writes.

    The first line is the header x1,...,xn,t,w with n >= 1.  Every other
    non-blank line is a data row of n + 2 numbers: the coordinates x1..xn
    and t, then the weight w.  A number is anything Python's float()
    reads, and a field may be quoted.  The atoms must be finite and the
    weights > 0, as DiscreteMeasure requires.

    A malformed file raises ValueError with a message that starts with
    the path: `path: empty file`, `path: header must end with t,w`,
    `path: header must be x1,...,xn,t,w` or `path: no data rows`.  A bad
    data row gives `path:line: expected k fields, got m` or
    `path:line: ` followed by float()'s message, where the header is line 1.

    The data rows are parsed by one np.loadtxt call.  When that call
    fails, finds no rows or finds rows of the wrong width (quoted fields,
    underscores in numbers, every malformed row), the csv module parses
    them again, row by row.  That parser decides what else is accepted
    and words every diagnostic.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        expected_tail = ["t", "w"]
        if len(header) < 3 or header[-2:] != expected_tail:
            raise ValueError(f"{path}: header must end with t,w")
        n = len(header) - 2
        if header[:n] != [f"x{i + 1}" for i in range(n)]:
            raise ValueError(f"{path}: header must be x1,...,xn,t,w")
        try:
            with warnings.catch_warnings():
                # a file without rows is the csv parser's to report
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                arr = np.loadtxt(
                    path, delimiter=",", skiprows=1, comments=None, ndmin=2, encoding="utf-8"
                )
        except ValueError:
            arr = np.empty((0, n + 2))
        if arr.shape[0] == 0 or arr.shape[1] != n + 2:
            rows = []
            for lineno, rec in enumerate(reader, start=2):
                if not rec:
                    continue
                if len(rec) != n + 2:
                    raise ValueError(f"{path}:{lineno}: expected {n + 2} fields, got {len(rec)}")
                try:
                    rows.append([float(v) for v in rec])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not rows:
                raise ValueError(f"{path}: no data rows")
            arr = np.asarray(rows, dtype=float)
    return DiscreteMeasure(
        n,
        arr[:, :-1],
        arr[:, -1],
        nominal_dim=nominal_dim,
        provenance=provenance if provenance is not None else f"csv:{path}",
    )


def _points_of(points):
    if isinstance(points, DiscreteMeasure):
        return points.points
    return as_coord_array(points)


def default_scales(resolution, count=SCALE_COUNT, ratio=SCALE_RATIO, anchor=SCALE_ANCHOR):
    """Decreasing geometric scale schedule anchored at anchor*resolution."""
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    finest = anchor * resolution
    return [finest * (1.0 / ratio) ** i for i in range(count - 1, -1, -1)]


CAND_CAP = 32
EVAL_CAP = 512


@functools.lru_cache(maxsize=128)
def _spread_index(size, count):
    """count indices spread evenly over range(size), rounded, without
    repeats; cached and read-only."""
    sel = np.round(np.linspace(0, size - 1, count)).astype(int)  # ascending
    sel = sel[np.append(True, sel[1:] != sel[:-1])]  # np.unique would import numpy.ma
    sel.flags.writeable = False
    return sel


def _stride_pick(arr, cap):
    if arr.size <= cap:
        return arr
    return arr[_spread_index(arr.size, cap)]


def _next_unset(mask, start):
    """The first index i >= start with mask[i] False, or mask.size.

    Searches windows that double in length from start, so finding an
    index d places on costs O(d) elements and O(log d) numpy calls."""
    width = 64
    while start < mask.size:
        window = mask[start : start + width]
        j = int(window.argmin())
        if not window[j]:
            return start + j
        start += width
        width *= 2
    return mask.size


def _indexed(points):
    """The canonically sorted rows of points and their GridIndex: a
    DiscreteMeasure's own, or one built for the rows of an array."""
    if isinstance(points, DiscreteMeasure):
        return points.points, points._index
    pts = canonical_sorted(as_coord_array(points))
    return pts, GridIndex(pts)


def greedy_cover(points, r, metric="parabolic"):
    """Deterministic greedy ball cover; returns the (K, n+1) array of
    chosen centers, which are always input points.

    Scans atoms in canonical order; for the first uncovered point it
    picks, among the uncovered candidates within r of it, the one whose
    ball covers the most still-uncovered points (evaluated on a bounded
    deterministic sample), then marks that ball covered.  Every ball is
    the closed one of dist_rows, {q : dist_rows(q, c) <= r}, so centers
    stay mutually more than r apart by dist_rows: candidates are never
    covered.

    Each centre reads the window (see _index) of the scanned row p at
    the reach R, just past 2r; the windows of p and the 63 rows after it
    come from one call, and serve the next scans in that range.  The
    centre drops the covered rows first, and takes one dist_rows pass
    from p over the free rest.  That pass gives the candidates (within
    r of p), the evaluation sample (within 2r) and the free rows within
    R, on the values separate r-, 2r- and
    R-centred queries would compute.  When the sample is every free row
    within R (no more than EVAL_CAP of them, none in the band past 2r),
    one (candidates x rows) mask within r gives both the gains, its row
    sums, and the ball of the chosen centre, its row.  Otherwise the
    sample is cut to EVAL_CAP rows spread by index, and the ball of the
    chosen centre takes one more dist_rows pass over the free rows
    within R.  Either way the centres are those of separate queries,
    bit for bit, while no squared distance overflows (r below about
    1e154): a row within r of the chosen centre lies within R of p
    (geometry._reach), and covered rows would only be marked again.

    A DiscreteMeasure's cover reads the measure's own index; the rows of
    an array are sorted canonically and indexed for the one call.  A
    non-finite coordinate or radius is refused, since the scan would
    never end on it.
    """
    _check_radius(r)
    pts, index = _indexed(points)
    npts = pts.shape[0]
    if npts == 0:
        return pts.copy()
    # The windows are taken at the radius R = _reach(2r), so the window
    # of row p holds every q with dist_rows(q, best) <= r (geometry._reach
    # gives the argument).  Past r of about 9e307 R would overflow, and
    # is capped at the largest float, which leaves out only rows at
    # dist_rows = inf; 2r is capped with it, so the sample leaves them
    # out too.
    reach = min(_reach(2.0 * r, pts.shape[1]), sys.float_info.max)
    ev_radius = min(2.0 * r, reach)
    block = range(0)
    covered = np.zeros(npts, dtype=bool)
    centers = []
    scan = 0
    # a distance that overflows is inf, outside every radius, like the index's
    with np.errstate(over="ignore"):
        while True:
            scan = _next_unset(covered, scan)
            if scan == npts:
                break
            if scan not in block:
                block = range(scan, min(scan + 64, npts))  # one call per 64 rows
                key, lo, hi = index.windows(pts[scan : block.stop], reach, metric)
            j = scan - block.start
            idx = index.rows(key[j], lo[j], hi[j])
            idx = idx[~covered[idx]]
            dist = dist_rows(pts.take(idx, axis=0), pts[scan], metric)
            # scan is the least free row within r (its own distance is
            # 0), and _stride_pick keeps the first index, so cand[0] == scan
            cand = _stride_pick(idx[dist <= r], CAND_CAP)
            if cand.size == 1:
                centers.append(scan)
                covered[scan] = True
                continue
            ev = idx[dist <= ev_radius]
            hits = idx[dist <= reach]
            if ev.size == hits.size <= EVAL_CAP:
                near = dist_rows(pts.take(hits, axis=0), pts[cand, None], metric) <= r
                best = int(near.sum(axis=1).argmax())
                covered[hits[near[best]]] = True
            else:
                ev = _stride_pick(ev, EVAL_CAP)
                gains = (dist_rows(pts[ev], pts[cand, None], metric) <= r).sum(axis=1)
                best = int(gains.argmax())
                dist = dist_rows(pts.take(hits, axis=0), pts[cand[best]], metric)
                covered[hits[dist <= r]] = True
            centers.append(int(cand[best]))
    return pts[np.asarray(centers, dtype=int)]


def _diameter_power(r, e):
    """(2r)^e, the factor of a covering sum or a density at scale r.  A
    factor past the float range is refused, where Python's power would
    raise OverflowError or give inf."""
    try:
        factor = (2.0 * r) ** e
    except OverflowError:
        factor = math.inf
    if not math.isfinite(factor):
        raise ValueError(f"(2r)^{e!r} at scale r={r!r} is not a finite float")
    return factor


class _Estimate(Record):
    """Record whose dict also carries the package version and a seed."""

    def to_dict(self, seed=None):
        return {**super().to_dict(), "version": __version__, "seed": seed}


@dataclass(eq=False)
class CoveringReport(_Estimate):
    metric: str
    scales: list
    counts: list
    sums: dict
    fitted_dim: float
    fit_residual: float | None


def dimension_fit(points, scales, metric="parabolic", sum_exponents=()):
    """Box-counting dimension: least squares slope of log N(r) against
    log(1/r) over the greedy covering counts; equal counts give 0.0, None."""
    # sorted once: every cover then finds its rows in canonical order, and
    # the covers of a DiscreteMeasure share its index
    if not isinstance(points, DiscreteMeasure):
        points = canonical_sorted(as_coord_array(points))
    n = _points_of(points).shape[1] - 1
    scales = sorted((float(r) for r in scales), reverse=True)
    if len(scales) < 2:
        raise ValueError("need at least two scales")
    for r in scales:
        _check_radius(r)
    # a factor (2r)^s past the float range is refused before any cover runs
    factors = {str(s): [_diameter_power(r, s) for r in scales] for s in sum_exponents}
    counts = [greedy_cover(points, r, metric).shape[0] for r in scales]
    sums = {s: [c * f for c, f in zip(counts, fs)] for s, fs in factors.items()}
    if all(c == counts[0] for c in counts):
        return CoveringReport(metric, scales, counts, sums, 0.0, None)
    # the line through (log 1/r, log N) from exactly rounded sums, so no
    # BLAS kernel decides the last bits
    xs = [math.log(1.0 / r) for r in scales]
    ys = [math.log(c) for c in counts]
    xbar, ybar = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx = [x - xbar for x in xs]
    slope = math.fsum(d * (y - ybar) for d, y in zip(dx, ys)) / math.fsum(d * d for d in dx)
    icpt = ybar - slope * xbar
    resid = math.sqrt(math.fsum((icpt + slope * x - y) ** 2 for x, y in zip(xs, ys)) / len(xs))
    upper = float(n + 2 if metric == "parabolic" else n + 1)
    return CoveringReport(metric, scales, counts, sums, min(max(slope, 0.0), upper), resid)


@dataclass(eq=False)
class DensityEstimate(_Estimate):
    point: ParaPoint
    s: float
    scales: list
    values: list
    upper: float
    lower: float


def density_profile(mu, a, s, scales):
    """Values (2r)^{-s} mu(B(a,r)) per scale; upper/lower are the
    max/min over the finest third of the scales.  A factor (2r)^{-s}
    past the float range is refused."""
    a = as_point(a, mu.n)
    scales = sorted((float(r) for r in scales), reverse=True)
    if not scales:
        raise ValueError("need at least one scale")
    for r in scales:
        _check_radius(r)
    if not math.isfinite(s):
        raise ValueError("density exponent s must be finite")
    # one ball at the largest scale; each smaller one is cut from it,
    # the same weights in the same order as a scan of the whole cloud
    rows, d = mu.ball(a, scales[0])
    w = mu.weights[rows]
    values = [_diameter_power(r, -s) * float(np.sum(w[d <= r])) for r in scales]
    k = max(1, len(scales) // 3)
    fine = values[-k:]
    return DensityEstimate(a, float(s), scales, values, max(fine), min(fine))


@dataclass(eq=False)
class FlatConstantEstimate(_Estimate):
    family: str
    m: int
    value: float
    ball_atoms: int
    extremal_atoms: int


def _flat_plane_counts(n, m, family):
    """(ball_atoms, extremal_atoms) of a uniform mesh of the canonical
    plane V of P(n,m), in the plane's own coordinates: the atoms in
    V cap B(0,1), and those of them in E*_V = {4|x|^2 + 2|t| <= 1}.

    The mesh is the product of a grid of the k spatial axes V spans
    (k = m on a horizontal plane, m - 2 on a vertical one) and a grid
    of t, which is the one point t = 0 on a horizontal plane.  So both
    tests are outer sums of |x|^2 over the spatial grid and |t| over
    the t grid, and no mesh row is stored.  The axes of P^n that V
    leaves out would be zero in every atom; each would only add +0.0
    at the end of the even or the odd partial sum of _sum_squares, so
    every sum has the bits it has in P^n.  The t-axis (k = 0) has the
    one spatial point x = 0."""
    if family == "horizontal":
        if not 1 <= m <= n:
            raise ValueError(f"horizontal family needs 1 <= m <= n, got m={m}, n={n}")
        k, hx, t = m, {1: 1e-3, 2: 4e-3}.get(m, 2e-2), np.zeros(1)
    elif family == "vertical":
        if not 2 <= m <= n + 1:
            raise ValueError(f"vertical family needs 2 <= m <= n+1, got m={m}, n={n}")
        k = m - 2
        hx = 8e-3 if k == 1 else 4e-2
        ht = {0: 2e-5, 1: 2e-3}.get(k, 1e-2)
        t = np.arange(-1.0, 1.0 + ht / 2, ht)
    else:
        raise ValueError(f"unknown family {family!r}")
    axis = np.arange(-1.0, 1.0 + hx / 2, hx)
    # the spatial grid as broadcast views of one axis, flattened to a column
    x2 = _sum_squares(np.broadcast_arrays(*np.ix_(*[axis] * k))) if k else np.zeros(1)
    x2 = x2.reshape(-1, 1)
    t = np.abs(t)
    ball = x2 + t <= 1.0
    extremal = (4.0 * x2 + 2.0 * t <= 1.0) & ball
    return int(np.count_nonzero(ball)), int(np.count_nonzero(extremal))


def flat_constant_estimate(n, m, family):
    """The flat-measure constant of the canonical plane V of P(n,m): the
    number p(V) with H^m(V cap B(0,r)) = p(V) r^m, where H^m is the
    Hausdorff measure (covers by sets of any shape, summing diam^m).

    On V, H^m is Lebesgue measure L divided by the largest L of a set of
    diameter 1 (the isodiametric inequality; S. Rigot, Isodiametric
    inequality in Carnot groups, Ann. Acad. Sci. Fenn. Math. 36 (2011)).
    Steiner symmetrisation in each axis does not raise the diameter, and
    a symmetric set of diameter 1 lies in E*_V = {4|x|^2 + 2|t| <= 1},
    which has diameter 1.  So p(V) = L(V cap B(0,1)) / L(E*_V): 2^m on a
    horizontal plane, where E*_V is the ball of radius 1/2, and 2^(m-1)
    on a vertical one, the t-axis included.

    The estimate is the ratio of two atom counts on one uniform mesh of
    V cap B(0,1): all its atoms (ball_atoms) over those in E*_V
    (extremal_atoms).
    """
    ball, extremal = _flat_plane_counts(int(n), int(m), family)
    return FlatConstantEstimate(family, int(m), ball / extremal, ball, extremal)


class GridMap:
    """Samples of a map from a cube in R^{n+1} into P^n on a uniform
    inclusive grid: values has shape (M, ..., M, n+1) with equal grid
    axes, domain is the (lo, hi) interval shared by every input axis.
    values is kept as a read-only copy, so the map cannot change under
    its cached ratios."""

    def __init__(self, values, domain=(0.0, 1.0)):
        values = np.array(values, dtype=float)
        if values.ndim < 3:
            # P^0 has no spatial axis, and no norm here takes a sum of no squares
            raise ValueError("values must have at least two grid axes plus a coordinate axis")
        d = values.ndim - 1
        M = values.shape[0]
        if any(sz != M for sz in values.shape[:d]) or M < 2:
            raise ValueError("all grid axes must have the same length >= 2")
        if values.shape[-1] != d:
            raise ValueError(
                "a map into P^n needs n+1 output coordinates matching the n+1 input axes"
            )
        lo, hi = float(domain[0]), float(domain[1])
        if not hi > lo:
            raise ValueError("domain must be a nondegenerate interval")
        values.flags.writeable = False
        self.values = values
        self.lo = lo
        self.hi = hi

    @property
    def d(self):
        return self.values.ndim - 1

    @property
    def n(self):
        return self.d - 1

    @property
    def M(self):
        return self.values.shape[0]

    @property
    def side(self):
        return self.hi - self.lo

    def axis_points(self):
        return np.linspace(self.lo, self.hi, self.M)

    def domain_points(self):
        axes = [self.axis_points() for _ in range(self.d)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.d)

    def flat_values(self):
        return self.values.reshape(-1, self.d)

    @functools.cached_property
    def _lip_ratios(self):
        """(lhat_coarse, far, lhat_fine), the map's Lipschitz ratios, which
        lip_image_cover_sum reads at every N.  lhat_coarse and far are the
        largest parabolic-image over domain distance ratios among about
        1024 strided samples at domain separation >= R/4 and >= 0.75
        sqrt(n+1) R, nearly the domain diameter; lhat_fine is the largest
        ratio between neighbours along a grid axis."""
        R = self.side
        dom = self.domain_points()
        stride = max(1, int(np.ceil(dom.shape[0] / 1024)))
        lhat_coarse, far = _pairwise_ratio_max(
            dom[::stride], self.flat_values()[::stride], (R / 4.0, 0.75 * math.sqrt(self.d) * R)
        )
        spacing = R / (self.M - 1)
        lhat_fine = 0.0
        for axis in range(self.d):
            a = np.moveaxis(self.values, axis, 0)
            dpar = para_norm_rows((a[1:] - a[:-1]).reshape(-1, self.d))
            lhat_fine = max(lhat_fine, float(np.max(dpar)) / spacing)
        return lhat_coarse, far, lhat_fine


@dataclass(eq=False)
class LipCoverSum(_Estimate):
    value: float
    N: int
    delta: float
    columns: int
    balls: int
    lhat: float
    lhat_fine: float
    lhat_coarse: float
    flagged: bool


def _pairwise_ratio_max(dom, img, seps):
    """For each separation in seps, the max parabolic-image over
    euclidean-domain distance ratio among pairs at least that far apart
    in the domain; one sweep over the pair blocks serves them all."""
    best = [0.0] * len(seps)
    for _, upper, (ddom, dimg) in pair_blocks(dom, img):
        dd = _norm_cols(ddom, "euclidean")
        dpar = _norm_cols(dimg)
        for k, sep in enumerate(seps):
            keep = (dd >= sep) & upper
            if np.any(keep):
                best[k] = max(best[k], float(np.max(dpar[keep] / dd[keep])))
    return best


def lip_image_cover_sum(gm, N):
    """Covering-sum evaluator at dimension n+1 for the image of a grid
    map into P^n, following the column-counting scheme: with r = R/N
    and ball diameter delta = sqrt(R r), the image is split into
    delta-columns in the horizontal coordinates and each column is
    charged max(1, ceil(t_extent / (delta^2/2))) balls, where t_extent
    is the observed extent capped by the Lipschitz chain bound
    (n+1)^2 Lhat^2 R r.

    A sampled non-Lipschitz map (fine-scale ratios much larger than
    coarse ones) sets the flagged bit; the chain bound uses the global
    diameter ratio Lhat, so the counting still reflects the scheme
    rather than the degenerate empirical extents.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if (gm.M - 1) % N != 0:
        raise ValueError(f"grid with {gm.M} points per axis is not N-refined for N={N}")
    n = gm.n
    R = gm.side
    r = R / N
    delta = math.sqrt(R * r)
    vals = gm.flat_values()
    xs = vals[:, :-1]
    ts = vals[:, -1]
    if np.all(vals == vals[0]):
        return LipCoverSum(0.0, N, delta, 0, 0, 0.0, 0.0, 0.0, False)
    lhat_coarse, far, lhat_fine = gm._lip_ratios
    flagged = lhat_fine > 2.0 * lhat_coarse
    # far, the ratio over nearly the domain diameter, is a lower bound
    # for any true Lipschitz constant
    lhat = far if far > 0 else (lhat_coarse if lhat_coarse > 0 else lhat_fine)
    cols_idx = np.floor(xs / delta).astype(np.int64)
    # the exact integer column ids in lexicographic order, whatever the
    # spread of the image; a stable lexsort keeps each column's atoms in
    # input order (np.unique(axis=0) would import numpy.ma)
    order = np.lexsort(cols_idx.T[::-1])
    sorted_cols = cols_idx[order]
    sorted_ts = ts[order]
    starts = np.flatnonzero(np.append(True, np.any(sorted_cols[1:] != sorted_cols[:-1], axis=1)))
    t_max = np.maximum.reduceat(sorted_ts, starts)
    t_min = np.minimum.reduceat(sorted_ts, starts)
    extent = t_max - t_min
    cap = (n + 1) ** 2 * lhat**2 * R * r
    capped = np.minimum(extent, cap)
    balls = np.maximum(1, np.ceil(capped / (delta * delta / 2.0)).astype(np.int64))
    total = float(np.sum(balls)) * delta ** (n + 1)
    return LipCoverSum(
        total, N, delta, int(starts.size), int(np.sum(balls)), lhat, lhat_fine, lhat_coarse, flagged
    )

"""The sorted-window neighbour index of a point cloud, the one owner of
the rows of every closed ball of dist_rows, of every differential fit's
window and of every nearest-neighbour distance.

A row q that dist_rows puts within r of a centre c lies within
R = geometry._reach(r, d) of c in the exact metric, so
|q_x1 - c_x1| <= R, and |q_t - c_t| <= T = _t_reach(R, metric): R^2,
padded, in the parabolic metric and R in the euclidean one.  The index
keeps two keys (_window_key): the x1 column and the t column, each with
its argsort, none for x1 where the rows are canonically sorted.  A
window of c is the run of a key's sorted order whose values lie within
that key's reach of c's, found by two searchsorted calls (_windows);
the t window is taken where it holds under a quarter of the x1
window's rows, the x1 window (a range, read without a sort) elsewhere.
Rounding is monotone, so each holds every row of the ball; the distance
filter drops the others.  Its rows come out ascending (_window_rows):
an x1 run of sorted rows is a range, and a t run is sorted.  So every
ball sees its rows in the order of a scan over the whole cloud, and
every sum over them keeps its bits.

A window costs four binary searches and its own rows, whatever the
cloud: a t-axis cloud (x1 all equal) takes t windows, a graph over x1
takes x1 windows.  One windows call serves any number of centres
(balls), so its fixed cost is paid once per batch.  A reach that
overflows (r past about 1e154 for T in the parabolic metric, 1e308 for
R) is inf, which opens that key's window to the whole cloud; the other
key still bounds it.  The index has no build radius: one index serves
every radius and both metrics.

DiscreteMeasure builds one lazily over its atoms, which ball, the
tangent search's balls, resolution() (nearest) and greedy_cover all
read; GraphSamples builds one over its two key columns for
fit_differential.
"""

import operator

import numpy as np

from .geometry import _check_finite, _check_radius, _reach, dist_rows


def _t_reach(R, metric):
    """How far along t a row lies from p when it lies within R of p in
    the exact metric, R a _reach: R itself in the euclidean metric, and
    a float no less than R^2 in the parabolic one, where |dt| <= R^2.

    R is padded to fl(R (1 + 2^-50)) >= R (1 + 2^-51) before squaring,
    since fl(R R) may lie half an ulp below R^2.  Where the square is
    normal, fl of the padded square is at least
    R^2 (1 + 2^-51)^2 (1 - 2^-53) > R^2.  Where it is subnormal, below
    2^-1022, it may round down by up to 2^-1075, but there it bounds
    only differences that are floats themselves: two floats are
    multiples of 2^-1074, so is their exact difference, and below
    2^-1022 every such multiple is a float.  Rounding is monotone, so a
    float |dt| <= R^2 stays at most the rounded square.  R >= 2^-535
    (the pad of _reach), so the square is never 0.  Past R of about
    1e154 it overflows to inf, which opens a t window to the whole
    cloud.  Run under np.errstate(over="ignore") for array R."""
    if metric == "euclidean":
        return R
    if metric == "parabolic":
        R = R * (1.0 + 2.0**-50)
        return R * R
    raise ValueError(f"unknown metric {metric!r}")


def _window_key(col):
    """One key of a sorted window (_windows): the column and its
    argsort, or None for the argsort where the column is ascending
    already.  The column is kept as given, a view if it is one: a window
    reads it through searchsorted(..., sorter=order), which takes the
    intp argsort as it is and a strided column without a copy.  The
    argsort need not be stable: a window holds every row of a value or
    none, and _window_rows sorts its rows."""
    if not np.any(col[1:] < col[:-1]):
        return col, None
    return col, np.argsort(col)


def _windows(keys, centres, reaches):
    """(key, lo, hi): the narrow window of each centre.

    keys are the two _window_key pairs (col, order) of x1 and t over one
    cloud's rows; centres[k] and reaches[k] are the centres' values along
    key k and the reach there, scalars or arrays of one length.  The
    window along key k of a centre c at reach e is entries lo:hi of the
    key's sorted order, the rows whose key lies in [fl(c - e), fl(c + e)].
    Rounding is monotone and each column holds floats, so a row whose key
    lies within e of c exactly is in it.  The t window (key 1) is taken
    only when it holds fewer than a quarter of the rows of the x1 window:
    x1 is in canonical order, whose windows are ranges, while the rows of
    a t window are gathered and sorted, which costs a few times as much
    per row.  An end that overflows is inf, and opens the window to that
    end of the cloud.  _window_rows names the rows."""
    with np.errstate(over="ignore"):
        (a, b), (c, d) = [(col.searchsorted(v - e, "left", sorter=order),
                           col.searchsorted(v + e, "right", sorter=order))
                          for (col, order), v, e in zip(keys, centres, reaches)]
    narrower = 4 * (d - c) < b - a
    return np.where(narrower, 1, 0), np.where(narrower, c, a), np.where(narrower, d, b)


def _window_rows(key, lo, hi):
    """The rows of entries lo:hi of a _window_key, ascending."""
    order = key[1]
    return np.arange(lo, hi) if order is None else np.sort(order[lo:hi])


def _adjacent(ranks, last):
    """The two ranks next to each of ranks in a sorted order of last + 1
    rows: the one before and the one after, the two nearest at the
    ends."""
    return np.stack([np.where(ranks > 0, ranks - 1, 1), np.where(ranks < last, ranks + 1, last - 1)])


class GridIndex:
    """The x1 and t window keys of the rows of pts.  windows(centres, r,
    metric) gives each centre's window, rows(key, lo, hi) its rows,
    ascending; balls(centres, radii, metric), ball(c, radius, metric)
    and query(i, radius, metric) the closed balls dist_rows <= radius,
    as a full scan gives them; nearest(rows) each row's distance to its
    nearest other row.  The index reads the rows from pts itself, so pts
    must not change while it is used.

    The name is that of the hashed grid this index replaced, kept
    because the benchmark's tracer (perfbench/tracer.py) wraps
    GridIndex.__init__ and GridIndex.query by name."""

    def __init__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _check_finite(pts, "points")
        self._pts = pts
        self._keys = (_window_key(pts[:, 0]), _window_key(pts[:, -1]))

    def windows(self, centres, r, metric="parabolic"):
        """(key, lo, hi) of _windows for the rows of centres, an (n+1,)
        point or a (K, n+1) array, at R = _reach(r, n+1) along x1 and
        _t_reach(R, metric) along t; r is a radius or an array of K."""
        centres = np.asarray(centres, dtype=float)
        with np.errstate(over="ignore"):
            reach = _reach(r, self._pts.shape[1])
            reaches = (reach, _t_reach(reach, metric))
        return _windows(self._keys, (centres[..., 0], centres[..., -1]), reaches)

    def rows(self, key, lo, hi):
        """The rows of one window of windows(), ascending."""
        return _window_rows(self._keys[key], lo, hi)

    def balls(self, centres, radii, metric="parabolic"):
        """Yield (rows, dist) for each row c of the (K, n+1) centres: the
        rows q with dist_rows(q, c) <= radius, ascending, and those
        distances, from one windows call.  radii is one radius or K of
        them, unchecked: an inf radius holds every row.  A distance that
        overflows is inf, inside no finite ball, and raises no warning."""
        centres = np.asarray(centres, dtype=float)
        radii = np.broadcast_to(radii, centres.shape[:1])
        for c, radius, *window in zip(centres, radii, *self.windows(centres, radii, metric)):
            idx = self.rows(*window)
            with np.errstate(over="ignore"):
                dist = dist_rows(self._pts.take(idx, axis=0), c, metric)
            keep = dist <= radius
            yield idx[keep], dist[keep]

    def ball(self, c, radius, metric="parabolic"):
        """The ball of balls around one point c.  A radius outside
        (0, inf) is refused."""
        _check_radius(radius)
        return next(self.balls([c], radius, metric))

    def query(self, i, radius, metric="parabolic"):
        """Indices of the rows within `radius` of row i, ascending."""
        i = operator.index(i)
        if not 0 <= i < self._pts.shape[0]:
            raise ValueError(f"row {i} out of range for {self._pts.shape[0]} points")
        return self.ball(self._pts[i], radius, metric)[0]

    def nearest(self, rows):
        """The parabolic distance from each of rows to its nearest other
        row, as a list of floats, of two rows at least.

        h, a row's least distance to the rows next to it in x1 order and
        in t order, is the distance to another row, so the nearest lies
        within h: the ball at h, the row itself left out, holds it, and
        its minimum is the one a scan over the whole cloud takes, bit for
        bit.  With the t neighbours a graph over t, whose x1 neighbours
        may lie far apart, gets a short h too.  A distance that overflows
        is inf, the largest a minimum can be; h = inf opens the window to
        the whole cloud."""
        pts, last = self._pts, self._pts.shape[0] - 1
        adjacent = []
        for _, order in self._keys:
            if order is None:
                adjacent.append(_adjacent(rows, last))
            else:
                rank = np.empty_like(order)
                rank[order] = np.arange(order.size)
                adjacent.append(order[_adjacent(rank[rows], last)])
        with np.errstate(over="ignore"):
            h = dist_rows(pts[np.vstack(adjacent)], pts[rows]).min(axis=0)
        return [float(d[near != i].min())
                for i, (near, d) in zip(np.asarray(rows).tolist(), self.balls(pts[rows], h))]

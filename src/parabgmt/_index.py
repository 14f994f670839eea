"""The sorted-window neighbour index of a point cloud, the one source
of the rows of every closed ball of dist_rows.

A row q that dist_rows puts within r of a centre c lies within
R = geometry._reach(r, d) of c in the exact metric, so
|q_x1 - c_x1| <= R, and |q_t - c_t| <= T = geometry._t_reach(R, metric):
R^2, padded, in the parabolic metric and R in the euclidean one.  The
index keeps two keys (geometry._window_key): the x1 column and the t
column, each with its argsort, none for x1 where the rows are
canonically sorted.  A window of c is the run of a key's sorted order
whose values lie within that key's reach of c's, found by two
searchsorted calls (geometry._windows); the t window is taken where it
holds under a quarter of the x1 window's rows, the x1 window (a range,
read without a sort) elsewhere.  Rounding is monotone, so each holds
every row of the ball; the distance filter drops the others.  Its rows come out ascending
(geometry._window_rows): an x1 run of sorted rows is a range, and a t
run is sorted.  So every ball sees its rows in the order of a scan over
the whole cloud, and every sum over them keeps its bits.

A window costs four binary searches and its own rows, whatever the
cloud: a t-axis cloud (x1 all equal) takes t windows, a graph over x1
takes x1 windows.  A reach that overflows (r past about 1e154 for T in
the parabolic metric, 1e308 for R) is inf, which opens that key's
window to the whole cloud; the other key still bounds it.  The index
has no build radius: one index serves every radius and both metrics.

DiscreteMeasure builds one lazily, which ball, resolution() and
greedy_cover all read, and GraphSamples runs the same window code over
its own keys for fit_differential.
"""

import operator

import numpy as np

from .geometry import _check_finite, _check_radius, _reach, _t_reach, _window_key, _window_rows, _windows, dist_rows


class GridIndex:
    """The x1 and t window keys of the rows of pts.  windows(centres, r,
    metric) gives each centre's window, rows(key, lo, hi) its
    rows, ascending; ball(c, radius, metric) and query(i, radius, metric)
    the closed ball dist_rows <= radius around a point or around row i,
    as a full scan gives it.  The index reads the rows from pts itself,
    so pts must not change while it is used.

    The name is that of the hashed grid this index replaced, kept
    because the benchmark's tracer (perfbench/tracer.py) wraps
    GridIndex.__init__ and GridIndex.query by name."""

    def __init__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _check_finite(pts, "points")
        self._pts = pts
        self._keys = (_window_key(pts[:, 0]), _window_key(pts[:, -1]))

    def windows(self, centres, r, metric="parabolic"):
        """(key, lo, hi) of geometry._windows for the rows of centres, an
        (n+1,) point or a (K, n+1) array, at R = _reach(r, n+1) along x1
        and _t_reach(R, metric) along t; r is a radius or an array of K."""
        centres = np.asarray(centres, dtype=float)
        with np.errstate(over="ignore"):
            reach = _reach(r, self._pts.shape[1])
            reaches = (reach, _t_reach(reach, metric))
        return _windows(self._keys, (centres[..., 0], centres[..., -1]), reaches)

    def rows(self, key, lo, hi):
        """The rows of one window of windows(), ascending."""
        return _window_rows(self._keys[key], lo, hi)

    def ball(self, c, radius, metric="parabolic"):
        """(rows, dist): the rows q with dist_rows(q, c) <= radius,
        ascending, and those distances.  A distance that overflows is
        inf, outside the ball, and raises no warning.  A radius outside
        (0, inf) is refused."""
        _check_radius(radius)
        idx = self.rows(*self.windows(c, radius, metric))
        with np.errstate(over="ignore"):
            dist = dist_rows(self._pts.take(idx, axis=0), c, metric)
        keep = dist <= radius
        return idx[keep], dist[keep]

    def query(self, i, radius, metric="parabolic"):
        """Indices of the rows within `radius` of row i, ascending."""
        i = operator.index(i)
        if not 0 <= i < self._pts.shape[0]:
            raise ValueError(f"row {i} out of range for {self._pts.shape[0]} points")
        return self.ball(self._pts[i], radius, metric)[0]

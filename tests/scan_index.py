"""Full-scan stand-ins, for tests that check the indexed and windowed
code paths against a scan over every point."""

import numpy as np

from parabgmt.geometry import dist_rows
from parabgmt.measure import _spread_index


class ScanIndex:
    """GridIndex's ball queries answered by one dist_rows scan: `ball`
    returns the hits in ascending index order with their distances,
    `query` the hits alone."""

    def __init__(self, pts, r, metric="parabolic"):
        self.pts = np.atleast_2d(np.asarray(pts, dtype=float))
        self.r = float(r)
        self.metric = metric

    def ball(self, center, radius=None):
        radius = self.r if radius is None else float(radius)
        dist = dist_rows(self.pts, center, self.metric)
        hits = np.flatnonzero(dist <= radius)
        return hits, dist[hits]

    def query(self, center, radius=None):
        return self.ball(center, radius)[0]


def reference_resolution(points):
    """DiscreteMeasure.resolution() of canonically sorted, merged points
    by full scans: for each of the 256 evenly spread atoms, dist_rows to
    every atom, its own entry set to inf, the minimum; then the median."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] < 2:
        return 0.0
    mins = []
    with np.errstate(over="ignore"):
        for i in _spread_index(pts.shape[0], min(pts.shape[0], 256)):
            d = dist_rows(pts, pts[i])
            d[i] = np.inf
            mins.append(float(d.min()))
    return float(np.median(mins))

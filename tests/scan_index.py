"""A full-scan stand-in for parabgmt._index.GridIndex, for tests that
check the indexed code paths against a scan over every point."""

import numpy as np

from parabgmt.geometry import dist_rows


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

"""Sparse hashed bucket grid for ball queries on point clouds.

A parabolic ball of radius r has x-extent r and t-extent r^2, so the
grid uses cells of size r along spatial axes and r^2 along time; a
query then only has to look at a small block of neighboring cells.
With metric='euclidean' all axes use cell size r.

Only occupied cells are stored, after Teschner et al., "Optimized
Spatial Hashing for Collision Detection of Deformable Objects" (VMV
2003): the integer cell coordinates are hashed by a linear map modulo
2^64 (uint64 multiply-add with fixed odd multipliers, wrap-around
intended), so the code of a cell never depends on how far apart the
occupied cells lie.  The points are sorted by code into `order`, and
the index keeps its own copy of them in that order, so the points of
one code form one contiguous run of rows.  One table holds the sorted
distinct codes with the start offset and the length of their run.

The map is linear, so the codes of a query's block of cells are the
code of its corner plus the distinct codes of the block's cell offsets
(outer sums of per-axis terms, cached per block shape).  A query looks
them all up with one searchsorted, gathers the rows of their runs from
the cell-ordered copy (contiguous reads) and keeps the rows p with
geometry.dist_rows(p, center) <= radius; only those hits are mapped back
through `order` and sorted.  That is a fixed number of numpy calls,
however many cells the block has.  A hash collision can only add
candidates from a far cell, and the exact distance filter drops them,
so the answer is the set of points in the ball, in ascending index
order.
"""

import math
import sys
from functools import reduce

import numpy as np

from .geometry import _dist_pad, dist_rows

# float cell coordinates are clipped here before the int64 cast, so an
# infinite or huge quotient lands in an edge cell instead of overflowing
_CELL_LIMIT = float(2**61)


def _multipliers(d):
    """d fixed odd 64-bit multipliers (splitmix64 of 1..d)."""
    out = []
    z = 0
    for _ in range(d):
        z = (z + 0x9E3779B97F4A7C15) % 2**64
        x = z
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append((x ^ (x >> 31)) | 1)
    return out


class GridIndex:
    """Ball queries on the rows of pts.  query(center, radius) returns
    the indices i with dist_rows(pts[i], center) <= radius, the same
    closed ball a full scan with dist_rows gives."""

    def __init__(self, pts, r, metric="parabolic"):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if r <= 0:
            raise ValueError("cell scale r must be > 0")
        if metric not in ("parabolic", "euclidean"):
            raise ValueError(f"unknown metric {metric!r}")
        self.r = float(r)
        self.metric = metric
        d = pts.shape[1]
        self._pad = _dist_pad(d)
        # cells of r (r^2 along t), padded so that they stay positive and
        # finite when r^2 underflows or overflows; a tiny cell sends far
        # quotients to inf, which the clip below takes in
        side = self.r + self._pad
        cell = np.full(d, side)
        if metric == "parabolic":
            cell[-1] = min(side * side, sys.float_info.max)
        with np.errstate(over="ignore"):
            ci = pts / cell
        np.floor(ci, out=ci)
        np.clip(ci, -_CELL_LIMIT, _CELL_LIMIT, out=ci)
        ci = ci.astype(np.int64)
        self._cell = cell.tolist()
        # occupied cell range per axis
        self._first = ci.min(axis=0).tolist()
        self._last = ci.max(axis=0).tolist()
        self._mult = _multipliers(d)
        # the int64 -> uint64 view is two's complement, so this is the
        # linear map of the signed cell coordinates modulo 2^64
        codes = ci.view(np.uint64) @ np.array(self._mult, dtype=np.uint64)
        # the cell coordinates, codes and run starts are freed before the
        # cell-ordered copy below is made, so it never coexists with them
        del ci
        # a query sorts its hits, so the order of points within a run is free
        self.order = np.argsort(codes)
        ordered = codes[self.order]
        del codes
        start = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        self._keys = ordered[start]
        # (start, length) of each key's run in order
        self._ranges = np.column_stack((start, np.diff(np.append(start, ordered.size))))
        del ordered, start
        # row j is pts[order[j]]: each run is a contiguous block of rows
        self._sorted = pts.take(self.order, axis=0)
        self._blocks = {}

    def _block(self, shape):
        """Distinct codes of the cells 0 <= c < shape (one per axis),
        cached per block shape; the code of the block at corner a is
        this plus the code of a."""
        offsets = self._blocks.get(shape)
        if offsets is None:
            terms = [np.arange(s, dtype=np.uint64) * np.uint64(m)
                     for s, m in zip(shape, self._mult)]
            offsets = self._blocks[shape] = np.unique(reduce(np.add.outer, terms))
        return offsets

    def query(self, center, radius=None):
        """Indices of points within `radius` of center (default: the
        build scale r), in ascending index order."""
        center = np.asarray(center, dtype=float).ravel()
        if center.size != len(self._cell):
            raise ValueError(f"center has {center.size} coordinates, the index {len(self._cell)}")
        radius = self.r if radius is None else float(radius)
        # dist_rows rounds, so a point it keeps can lie a few ulps of the
        # radius outside the exact ball, or, where its squares underflow,
        # up to the pad outside it; the block reaches past both
        far = radius * (1.0 + 2.0**-40) + self._pad
        reach = [far] * (center.size - 1)
        reach.append(far * far if self.metric == "parabolic" else far)
        # the block of cells that can hold a point of the ball, clamped
        # to the occupied range; a few scalars, so plain Python floats
        lo, hi = [], []
        axes = zip(center.tolist(), reach, self._cell, self._first, self._last)
        for c, e, w, first, last in axes:
            a = min(max((c - e) / w, first), last)
            b = min(max((c + e) / w, first), last)
            if not a <= b:
                return np.empty(0, dtype=np.intp)
            lo.append(math.floor(a))
            hi.append(math.floor(b))
        corner = sum(a * m for a, m in zip(lo, self._mult)) % 2**64
        codes = self._block(tuple(b - a + 1 for a, b in zip(lo, hi))) + np.uint64(corner)
        pos = self._keys.searchsorted(codes)
        start, size = self._ranges[pos[self._keys.take(pos, mode="clip") == codes]].T
        if size.size == 0:
            return np.empty(0, dtype=np.intp)
        # ragged gather: item j of range i is row start[i] + j of the
        # cell-ordered copy
        end = size.cumsum()
        rows = np.arange(end[-1]) + (start + size - end).repeat(size)
        rows = rows[dist_rows(self._sorted.take(rows, axis=0), center, self.metric) <= radius]
        hits = self.order.take(rows)
        hits.sort()
        return hits

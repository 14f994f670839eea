"""Sparse hashed bucket grid with a neighbour table, for the cell rings
around the rows of a point cloud.

GridIndex(pts, r) answers ring(i) for a row i of pts: the rows of row
i's cell ring, unfiltered, a superset of every row q with
dist_rows(q, pts[i]) <= r.  query(i, radius) filters the ring to the
closed ball of a radius no larger than r.  Every cell lookup is made
once, at build time, so a ring is a fixed number of numpy calls.

Cells.  A row that dist_rows puts within r of p lies within
far = geometry._reach(r, d) of p in the exact metric (its docstring
gives the argument).  So along axis k the two differ by at most the
reach e_k: far on a spatial axis, far^2 along t in the parabolic
metric (where an x-extent of r goes with a t-extent of r^2), far on
every axis in the euclidean one.  The cell width is
w_k = max(e_k, tiny) (1 + 2^-7), with tiny the least normal float, so
e_k / w_k <= 1 - 2^-8 even where e_k underflows.  A row's cell is
c_k = floor(h), h = clip(fl(fl(p_k - o_k) / w_k), -L, L), L = 2^40,
with o_k the middle value of the column, so a cloud far from the origin
keeps quotients the size of its own spread.

Containment.  The ring of a cell is the 3^d cells c + {-1, 0, 1}^d.
It holds every row q within the reach of any row p in the cell.  Let
g = (p_k - o_k) / w_k exactly.  For |g| <= 2L the two roundings move
h by less than 2L 2^-52 (1 + 2^-50) + 2^-1074 < 2^-10 from clip(g),
and clip is 1-Lipschitz, so |h(q) - h(p)| < e_k / w_k + 2^-9 < 1 and
the floors differ by at most one.  Where g > 2L the rounded quotient
still exceeds L, so h = L for p and for every q within the reach of
it (their g exceeds 2L - 1); likewise below -2L.  That needs a
difference p_k - o_k which overflows to have |g| > 2L, that is
2L w_k <= the largest float; an axis whose width fails that (or is
infinite, as far^2 is past radii of about 1e154) gets one cell.
Rounding is monotone, so h never decreases along an axis.

Hash.  Only occupied cells are stored, after Teschner et al.,
"Optimized Spatial Hashing for Collision Detection of Deformable
Objects" (VMV 2003): the integer cell coordinates are hashed by a
linear map modulo 2^64 (uint64 multiply-add with fixed odd
multipliers, wrap-around intended).  The rows are sorted by code into
`order`, so the rows of one code form one contiguous run of `order`.
The map is linear, so the codes of a ring are the code of its cell
plus the distinct codes of the 3^d offsets.  A collision puts the rows
of distinct cells in one run; their rings then have the same codes,
the union of both, so a collision only adds candidates, which the
distance filter drops.

Table.  For every occupied cell, the build looks up the codes of its
ring once (one searchsorted over tiles of cells, tile_slices) and
stores the runs they name, adjacent runs merged, as a CSR table over
cells: entries ptr[k]:ptr[k + 1] of the run lengths and of the shift
that puts item j of the cell's gather at position j + shift of
`order`.  Each row keeps the number of its cell.

Query.  ring(i) reads the entries of row i's cell, expands their runs
with one ragged arange, and returns the rows they name through
`order`: in cell order, unsorted, each row once (the codes of a ring
are distinct, so no run is named twice).  greedy_cover, the one caller
in the package, filters the ring to its free rows and computes their
distances itself.  query(i) gathers the ring's rows of pts, keeps the
ones with dist_rows(row, pts[i]) <= radius and sorts them; a distance
that overflows is inf, outside every radius, and is dropped without a
warning.
"""

import math
import operator
import sys
from functools import reduce

import numpy as np

from .geometry import _check_finite, _check_radius, _reach, dist_rows, tile_slices

# cell coordinates are clipped to [-_CELL_LIMIT, _CELL_LIMIT] before the
# int64 cast, so an infinite or huge quotient lands in an edge cell
_CELL_LIMIT = float(2**40)


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


def _ring_offsets(mult):
    """Distinct codes of the cell offsets {-1, 0, 1}^d; the code of the
    cell c + delta is the code of c plus that of delta."""
    terms = [np.array([-m % 2**64, 0, m], dtype=np.uint64) for m in mult]
    offsets = np.sort(reduce(np.add.outer, terms), axis=None)  # np.unique imports numpy.ma
    return offsets[np.append(True, offsets[1:] != offsets[:-1])]


class GridIndex:
    """Cell rings around the rows of pts.  ring(i) returns the indices
    of the cell ring that holds every row within the build radius r of
    row i; query(i, radius) returns the indices j with
    dist_rows(pts[j], pts[i]) <= radius, sorted, the same closed ball a
    full scan with dist_rows gives.  The radius defaults to r and may
    not exceed it.  The index reads the rows from pts itself, so pts
    must not change while it is used."""

    def __init__(self, pts, r, metric="parabolic"):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _check_finite(pts, "points")
        _check_radius(r)
        if metric not in ("parabolic", "euclidean"):
            raise ValueError(f"unknown metric {metric!r}")
        self.r = float(r)
        self.metric = metric
        self._pts = pts
        npts, d = pts.shape
        far = _reach(self.r, d)
        reach = [far] * d
        if metric == "parabolic":
            reach[-1] = far * far
        mult = _multipliers(d)
        codes = np.zeros(npts, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for k, (e, m) in enumerate(zip(reach, mult)):
                width = max(e, sys.float_info.min) * (1.0 + 2.0**-7)
                if math.isinf(width * 2.0 * _CELL_LIMIT):
                    continue  # one cell along this axis
                # the middle order statistic as origin (np.median imports numpy.ma)
                cell = pts[:, k] - np.partition(pts[:, k], npts // 2)[npts // 2]
                cell /= width
                np.floor(cell, out=cell)
                np.clip(cell, -_CELL_LIMIT, _CELL_LIMIT, out=cell)
                # the int64 -> uint64 view is two's complement, so this
                # adds the linear map of the signed coordinates modulo 2^64
                cell = cell.astype(np.int64).view(np.uint64)
                cell *= np.uint64(m)
                codes += cell
                del cell
        # ring returns its rows in cell order, and the order of rows
        # within a run is free; row numbers fit 32 bits below 2^31 rows
        itype = np.int32 if npts < 2**31 else np.int64
        self.order = np.argsort(codes).astype(itype)
        ordered = codes[self.order]
        del codes
        first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
        keys = ordered[first]
        del ordered
        bounds = np.append(first, npts)  # run k holds rows bounds[k]:bounds[k + 1]
        del first
        ncells = keys.size
        self._cell = np.empty(npts, dtype=itype)
        self._cell[self.order] = np.arange(ncells, dtype=itype).repeat(np.diff(bounds))
        offsets = _ring_offsets(mult)
        counts = np.empty(ncells, dtype=np.int64)
        self._total = np.empty(ncells, dtype=itype)
        shifts, lengths = [], []
        for tile in tile_slices(ncells, offsets.size):
            # the codes of the ring of each cell, and the runs that hold them
            ring = keys[tile, None] + offsets
            pos = keys.searchsorted(ring)
            pos[keys.take(pos, mode="clip") != ring] = ncells + 1
            del ring
            pos.sort(axis=1)
            # consecutive runs are consecutive rows: merge them
            step = pos[:, 1:] != pos[:, :-1] + 1
            closes = pos < ncells
            opens = closes.copy()
            opens[:, 1:] &= step
            closes[:, :-1] &= step
            nopen = np.count_nonzero(opens, axis=1)
            lo = bounds[pos[opens]]
            size = bounds[pos[closes] + 1] - lo
            del pos, opens, closes, step
            # every cell finds its own run, so each has an entry; item j
            # of a cell's gather lies in the entry whose items start at
            # `before`, at row lo + j - before
            lead = nopen.cumsum() - nopen
            before = size.cumsum() - size
            before -= before[lead].repeat(nopen)
            counts[tile] = nopen
            self._total[tile] = np.add.reduceat(size, lead)
            shifts.append((lo - before).astype(itype))
            lengths.append(size.astype(itype))
            del lo, size, before
        del keys, bounds
        self._ptr = np.concatenate(([0], counts.cumsum()))
        self._shift = np.concatenate(shifts)
        self._len = np.concatenate(lengths)
        del shifts, lengths

    def ring(self, i):
        """Indices of the rows in the 3^d cell ring of row i's cell, in
        cell order, not sorted, each once: every row within the build
        radius r of row i, and others besides."""
        i = operator.index(i)
        if not 0 <= i < self._cell.size:
            raise ValueError(f"row {i} out of range for {self._cell.size} points")
        k = self._cell[i]
        a, b = self._ptr[k], self._ptr[k + 1]
        # ragged gather: item j of the cell's runs is order[j + shift]
        rows = np.arange(self._total[k])
        rows += self._shift[a:b].repeat(self._len[a:b])
        return self.order.take(rows)

    def query(self, i, radius=None):
        """Indices of the rows within `radius` of row i (default: the
        build radius r), in ascending index order."""
        idx = self.ring(i)
        radius = self.r if radius is None else float(radius)
        if not radius <= self.r:
            raise ValueError(f"radius {radius!r} exceeds the build radius {self.r!r}")
        with np.errstate(over="ignore"):
            dist = dist_rows(self._pts.take(idx, axis=0), self._pts[i], self.metric)
        hits = idx[dist <= radius]
        hits.sort()
        return hits

"""Exact algebra of the parabolic space P^n = R^n x R.

The norm is ||(x,t)|| = sqrt(|x|^2 + |t|), the dilations are
delta_r(x,t) = (r x, r^2 t), and the homogeneous (dilation invariant)
planes come in two families: horizontal planes inside R^n x {0} and
vertical planes containing the t-axis.  Everything here is pure
function algebra on immutable values; the heavier estimators live in
the measure and rectify modules.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-10
CONE_BAND = 1e-9


class DimensionMismatchError(ValueError):
    pass


class ConeViolationError(ValueError):
    """Raised when a point set fails a cone condition it was required to satisfy."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


def _check_finite(arr, name):
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")


def _check_radius(r):
    """Refuse a ball radius outside (0, inf): "radius must be > 0" for
    r <= 0, "radius must be finite" for inf or NaN."""
    if r <= 0:
        raise ValueError("radius must be > 0")
    if not math.isfinite(r):
        raise ValueError("radius must be finite")


class ParaPoint:
    """A point (x, t) of P^n with spatial vector x and time t."""

    __slots__ = ("x", "t")

    def __init__(self, x, t):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1 or x.size < 1:
            raise ValueError("x must be a vector of length >= 1")
        _check_finite(x, "x")
        t = float(t)
        if not np.isfinite(t):
            raise ValueError("t must be finite")
        self.x = x
        self.t = t

    @property
    def n(self):
        return self.x.size

    def coords(self):
        return np.append(self.x, self.t)

    @classmethod
    def from_coords(cls, arr):
        arr = np.asarray(arr, dtype=float)
        return cls(arr[:-1], arr[-1])

    def __add__(self, other):
        _same_dim(self, other)
        return ParaPoint(self.x + other.x, self.t + other.t)

    def __sub__(self, other):
        _same_dim(self, other)
        return ParaPoint(self.x - other.x, self.t - other.t)

    def __eq__(self, other):
        if not isinstance(other, ParaPoint):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.x, other.x) and self.t == other.t

    def __repr__(self):
        return f"ParaPoint({self.x.tolist()}, {self.t})"


def _same_dim(p, q):
    if p.n != q.n:
        raise DimensionMismatchError(f"ambient dimensions differ: {p.n} vs {q.n}")


def as_point(a, n):
    """a as a ParaPoint of P^n: a ParaPoint or n + 1 coordinates x1..xn, t.

    Raises DimensionMismatchError for any other ambient dimension."""
    if isinstance(a, ParaPoint):
        if a.n != n:
            raise DimensionMismatchError(f"point has n={a.n}, measure has n={n}")
        return a
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size != n + 1:
        raise DimensionMismatchError(f"expected {n + 1} coordinates, got {arr.size}")
    return ParaPoint.from_coords(arr)


def para_norm(p):
    """||(x,t)|| = sqrt(|x|^2 + |t|)."""
    if isinstance(p, ParaPoint):
        return float(np.sqrt(p.x @ p.x + abs(p.t)))
    arr = np.asarray(p, dtype=float)
    return float(np.sqrt(arr[:-1] @ arr[:-1] + abs(arr[-1])))


def para_norm_rows(coords):
    """Row-wise parabolic norm of an (N, n+1) coordinate array."""
    coords = np.asarray(coords, dtype=float)
    return np.sqrt(np.einsum("ij,ij->i", coords[:, :-1], coords[:, :-1]) + np.abs(coords[:, -1]))


def _sum_squares(cols, out=None):
    """Elementwise sum of squares of k same-shaped arrays, the k columns
    of a (..., k) block, with the bits np.einsum("...i,...i->...") gives
    on that block.  With out, an array the columns broadcast to that
    none of them shares memory with, the sum is written there.

    Up to 7 columns einsum adds the even-indexed squares in one running
    sum and the odd-indexed ones in another, then even + odd; a plain
    left-to-right sum differs from k = 3 on.  From 8 columns on einsum
    adds in a SIMD order, so the columns are stacked and einsum adds
    them itself.  Working on columns, which may be strided views, saves
    einsum's inner loop per row of k elements.  The order is numpy's
    choice, not a promise: TestSumSquares holds this kernel against
    einsum for k = 1..12, so a numpy that adds otherwise fails there.

    A column given as None is an exact +0.0.  Up to 7 columns its term
    is skipped in its even or odd sum: +0.0 + y = y for every square y,
    and a sum with no term left is +0.0.  From 8 columns on a zero
    column takes its place in the stack, since einsum's order depends on
    the column count.  With every column None and no out the sum is the
    scalar +0.0.
    """
    if len(cols) >= 8:
        if any(c is None for c in cols):
            zero = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in cols if c is not None)))
            cols = [zero if c is None else c for c in cols]
        block = np.stack(cols, axis=-1)
        sums = np.einsum("...i,...i->...", block, block)
        if out is None:
            return sums
        out[...] = sums
        return out
    even = None
    for c in cols[::2]:
        if c is None:
            continue
        if even is None:
            even = np.multiply(c, c, out=out)
        else:
            even += c * c
    odd = None
    for c in cols[1::2]:
        if c is None:
            continue
        if odd is None:  # into out when the odd sum is the whole sum
            odd = np.multiply(c, c, out=out if even is None else None)
        else:
            odd += c * c
    if even is None:
        return np.multiply(0.0, 0.0, out=out) if odd is None else odd
    return even if odd is None else np.add(even, odd, out=out)


def _norm_cols(cols, metric="parabolic"):
    """Row norms of a (..., n+1) block given by its n+1 columns: the
    spatial squares summed by _sum_squares, then the time column added,
    as |t| (parabolic) or t^2 (euclidean)."""
    d2 = _sum_squares(cols[:-1])
    if metric == "parabolic":
        return np.sqrt(d2 + np.abs(cols[-1]))
    if metric == "euclidean":
        return np.sqrt(d2 + cols[-1] * cols[-1])
    raise ValueError(f"unknown metric {metric!r}")


def dist_rows(coords, p, metric="parabolic"):
    """Distances from each row of an (N, n+1) array to the point p.

    The two broadcast over their leading axes like numpy operands, so a
    (K, 1, n+1) stack of points gives the (K, N) distance matrix.  This
    is the one distance of every ball query: a row lies in the closed
    ball B(p, r) when its entry here is <= r.  The differences are taken
    and squared column by column (_sum_squares), which gives the bits of
    an einsum over the (N, n) block of spatial differences without its
    per-row inner loop.
    """
    coords = np.asarray(coords, dtype=float)
    pc = p.coords() if isinstance(p, ParaPoint) else np.asarray(p, dtype=float)
    if coords.shape[-1] != pc.shape[-1]:
        raise DimensionMismatchError(f"coordinate counts differ: {coords.shape[-1]} vs {pc.shape[-1]}")
    return _norm_cols([coords[..., j] - pc[..., j] for j in range(coords.shape[-1])], metric)


def _reach(r, d):
    """How far from p, in the exact metric, a row of d coordinates can
    lie when dist_rows puts it within r of p: r (1 + 2^-40) plus the pad
    sqrt(d) 2^-535.  Every window of the neighbour index (_windows) and
    greedy_cover's window radius rest on this one bound.

    The relative slack covers the few ulps dist_rows rounds by, but not
    underflow: a squared coordinate difference below 2^-1022 is rounded
    to a multiple of 2^-1074, up to 2^-1075 away, so the d squares of a
    row lose at most d 2^-1075 together; the pad squared, d 2^-1070, is
    32 times that.  Above radii of about 1e-140 the pad changes no bit.
    A row whose squares overflow lies at inf, in no ball.  The exact
    distance bounds every spatial difference, and in the parabolic
    metric the square root of the t difference.

    At 2r two steps compose: D(q, c) <= r and D(c, p) <= r for
    D = dist_rows bound the exact |q - p| by the sum of two exact
    distances of about r, so D(q, p)^2 <= 4 r^2 (1 + 2^-43) + 3 d 2^-1074,
    which is less than _reach(2r, d)^2, while r is below about 1e154 and
    the squares do not overflow.
    """
    return r * (1.0 + 2.0**-40) + math.sqrt(d) * 2.0**-535


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

    keys are _window_key pairs (col, order) over one cloud's rows;
    centres[k] and reaches[k] are the centres' values along key k and
    the reach there, scalars or arrays of one length.  The window along
    key k of a centre c at reach e is entries lo:hi of the key's sorted
    order, the rows whose key lies in [fl(c - e), fl(c + e)].  Rounding
    is monotone and each column holds floats, so a row whose key lies
    within e of c exactly is in it.  A later key's window is taken only
    when it holds fewer than a quarter of the rows of the one taken so
    far: the first key is x1 in canonical order, whose windows are
    ranges, while the rows of any other window are gathered and sorted,
    which costs a few times as much per row.  An end that
    overflows is inf, and opens the window to that end of the cloud.
    _window_rows names the rows."""
    with np.errstate(over="ignore"):
        spans = [(col.searchsorted(c - e, "left", sorter=order),
                  col.searchsorted(c + e, "right", sorter=order))
                 for (col, order), c, e in zip(keys, centres, reaches)]
    key, (lo, hi) = 0, spans[0]
    for k, (a, b) in enumerate(spans[1:], 1):
        narrower = 4 * (b - a) < hi - lo
        key, lo, hi = np.where(narrower, k, key), np.where(narrower, a, lo), np.where(narrower, b, hi)
    return key, lo, hi


def _window_rows(key, lo, hi):
    """The rows of entries lo:hi of a _window_key, ascending."""
    order = key[1]
    return np.arange(lo, hi) if order is None else np.sort(order[lo:hi])


def _check_aperture(s):
    """Refuse a cone aperture outside (0, 1)."""
    if not 0.0 < s < 1.0:
        raise ValueError("aperture must lie in (0, 1)")


def blowup_rows(a, r, coords):
    """T_{a,r}(p) = delta_{1/r}(p - a), which maps B(a,r) onto B(0,1),
    for every row p of the (N, n+1) coordinates."""
    if r <= 0:
        raise ValueError("blow-up scale must be > 0")
    ac = a.coords() if isinstance(a, ParaPoint) else np.asarray(a, dtype=float)
    out = np.empty_like(np.asarray(coords, dtype=float))
    out[:, :-1] = (coords[:, :-1] - ac[:-1]) / r
    out[:, -1] = (coords[:, -1] - ac[-1]) / (r * r)
    return out


class HomPlane:
    """A homogeneous plane, stored as an orthonormal horizontal basis
    (rows of shape (k, n)) plus a flag saying whether the t-axis is
    included.  Parabolic Hausdorff dimension m = k + 2 if the t-axis is
    in, else m = k.

    axes is the tuple of spatial axes of the basis rows, in row order,
    when every row is a unit coordinate vector (one 1.0, every other
    entry +-0.0), as horizontal_axes, vertical_axes, t_axis and
    candidate_planes build them; () for the t-axis.  For any other
    basis, a -1.0 row included, it is None.  It is derived from the
    basis, so to_dict leaves it out.
    """

    __slots__ = ("n", "horiz_basis", "includes_t_axis", "axes")

    def __init__(self, n, horiz_basis, includes_t_axis):
        n = int(n)
        if n < 1:
            raise ValueError("ambient dimension n must be >= 1")
        basis = np.asarray(horiz_basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(0, n)
        if basis.ndim != 2 or basis.shape[1] != n:
            raise ValueError(f"horiz_basis must have shape (k, {n})")
        _check_finite(basis, "horiz_basis")
        k = basis.shape[0]
        gram = basis @ basis.T
        if k and not np.all(np.abs(gram - np.eye(k)) <= ORTHO_TOL):
            raise ValueError("horiz_basis rows are not orthonormal within 1e-10")
        m = k + (2 if includes_t_axis else 0)
        if not 0 < m < n + 2:
            raise ValueError(f"plane dimension m={m} out of range for n={n}")
        if not includes_t_axis and not 1 <= k <= n:
            raise ValueError("horizontal plane needs 1 <= k <= n")
        if includes_t_axis and not 0 <= k <= n - 1:
            raise ValueError("vertical plane needs 0 <= k <= n-1")
        self.n = n
        self.horiz_basis = basis
        self.includes_t_axis = bool(includes_t_axis)
        self.axes = _coordinate_axes(basis)

    @property
    def k(self):
        return self.horiz_basis.shape[0]

    @property
    def m(self):
        return self.k + (2 if self.includes_t_axis else 0)

    @property
    def family(self):
        return "vertical" if self.includes_t_axis else "horizontal"

    def horiz_projector(self):
        """The n x n orthogonal projector onto the horizontal part."""
        return self.horiz_basis.T @ self.horiz_basis

    def __eq__(self, other):
        if not isinstance(other, HomPlane):
            return NotImplemented
        if self.n != other.n or self.includes_t_axis != other.includes_t_axis:
            return False
        return bool(
            np.allclose(self.horiz_projector(), other.horiz_projector(), atol=ORTHO_TOL, rtol=0.0)
        )

    def __repr__(self):
        return f"HomPlane(n={self.n}, m={self.m}, {self.family})"

    def to_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "includes_t_axis": self.includes_t_axis,
            "horiz_basis": [float(v) for v in self.horiz_basis.ravel()],
        }

    @classmethod
    def from_dict(cls, d):
        n = int(d["n"])
        flag = bool(d["includes_t_axis"])
        k = int(d["m"]) - (2 if flag else 0)
        basis = np.asarray(d["horiz_basis"], dtype=float).reshape(k, n)
        return cls(n, basis, flag)

    @classmethod
    def horizontal_axes(cls, n, axes):
        return cls(n, _axis_rows(n, axes), False)

    @classmethod
    def vertical_axes(cls, n, axes=()):
        return cls(n, _axis_rows(n, axes), True)

    @classmethod
    def t_axis(cls, n):
        return cls.vertical_axes(n)


def _coordinate_axes(basis):
    """The axis of each row of an orthonormal basis when every row is a
    unit coordinate vector, in row order, else None."""
    axes = []
    for row in basis.tolist():
        nonzero = [c for c, v in enumerate(row) if v != 0.0]
        if len(nonzero) != 1 or row[nonzero[0]] != 1.0:
            return None
        axes.append(nonzero[0])
    return tuple(axes)


def _axis_rows(n, axes):
    """Rows of the n x n identity for the given axes, each in 0..n-1."""
    for a in axes:
        if not 0 <= a < n:
            raise ValueError(f"axis {a} out of range for n={n}")
    return np.eye(n)[list(axes)]


def project(V, p, part="onto"):
    """Parabolic projection onto V or onto its complement.

    Horizontal V: P_V(x,t) = (Px, 0) and the complement keeps
    (x - Px, t).  Vertical V: P_V(x,t) = (Px, t), complement (x - Px, 0).
    The two parts always sum back to p.
    """
    if isinstance(p, ParaPoint):
        out = project_rows(V, p.coords()[None, :], part)[0]
        return ParaPoint.from_coords(out)
    return project_rows(V, p, part)


def _dot_cols(weights, cols):
    """sum_c weights[..., c] * cols[c], added in ascending c from +0.0.

    Weights that are one number per c for every row (a single basis)
    skip trivial terms: +-0.0 drops a term, +-1.0 adds or subtracts its
    column unmultiplied.  On finite columns the bits hold, since the sum
    never holds -0.0 and x * 1.0 = x.  No term left gives a read-only
    +0.0 array of the broadcast shape."""
    if not cols:
        return 0.0
    if weights.size != weights.shape[-1]:  # stacked or paired: every term multiplied
        acc = weights[..., 0] * cols[0]
        acc += 0.0  # the sum starts from +0.0, so a lone -0.0 product gives +0.0
        for c in range(1, len(cols)):
            acc += weights[..., c] * cols[c]
        return acc
    acc = None
    for c, w in enumerate(weights.reshape(-1).tolist()):
        if w == 0.0:
            continue
        col = cols[c] if w in (1.0, -1.0) else weights[..., c] * cols[c]
        if acc is None:
            zero = np.zeros(weights.shape[:-1])
            acc = np.subtract(zero, col) if w == -1.0 else np.add(zero, col)
        elif w == -1.0:
            acc -= col
        else:
            acc += col
    if acc is None:
        return np.broadcast_to(0.0, np.broadcast_shapes(weights.shape[:-1], np.shape(cols[0])))
    return acc


def _project_cols(basis, cols):
    """The one kernel of every plane projection: the n columns of the
    horizontal projection px of points x given by their n spatial
    columns, for an orthonormal basis B of shape (..., k, n).

    px_c = sum_j xi_j B[j, c] with xi_j = sum_c B[j, c] x_c, each sum
    in ascending index order from +0.0, from numpy multiplies and adds
    alone.  No BLAS call is made, so a row's bits do not depend on how
    many rows go with it.  The leading axes of B broadcast ahead of the
    columns' axes: a (G, k, n) stack and (N,) columns give (G, N)
    columns.  A basis with k = 0 gives the scalar +0.0 per column.
    """
    k, n = basis.shape[-2:]
    return _project_paired(basis.reshape(basis.shape[:-2] + (1,) * np.ndim(cols[0]) + (k, n)),
                           cols)


def _project_paired(basis, cols):
    """_project_cols with the leading axes of the (..., k, n) basis
    broadcast against the columns' axes, not ahead of them: an (N, k, n)
    stack and (N,) columns project each row on its own basis, by the
    same multiplies and adds in the same order."""
    k, n = basis.shape[-2:]
    xi = [_dot_cols(basis[..., j, :], cols) for j in range(k)]
    return [_dot_cols(basis[..., :, c], xi) for c in range(n)]


def _perp_norm(vertical, xcols, t, pxcols):
    """||P_{V perp} q|| from q's spatial columns, its time column and the
    columns of its horizontal projection: sqrt(|x - px|^2 + |t_perp|),
    t_perp being t for a horizontal plane and 0 for a vertical one."""
    d2 = _sum_squares([x - px for x, px in zip(xcols, pxcols)])
    return np.sqrt(d2 if vertical else d2 + np.abs(t))


def _project_parts(V, coords):
    """The projections P_V q and P_{V perp} q of each row q of an
    (N, n+1) array, from one call of the column kernel."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != V.n + 1:
        raise DimensionMismatchError(f"expected {V.n + 1} coordinates, got {coords.shape[1]}")
    xcols = list(coords.T[:-1])
    onto = np.empty_like(coords)
    comp = np.empty_like(coords)
    for c, (x, px) in enumerate(zip(xcols, _project_cols(V.horiz_basis, xcols))):
        onto[:, c] = px
        comp[:, c] = x - px
    t = coords[:, -1]
    onto[:, -1] = t if V.includes_t_axis else 0.0
    comp[:, -1] = 0.0 if V.includes_t_axis else t
    return onto, comp


def project_rows(V, coords, part="onto"):
    """project() for each row of an (N, n+1) coordinate array."""
    if part not in ("onto", "complement"):
        raise ValueError(f"unknown part {part!r}")
    return _project_parts(V, coords)[part == "complement"]


def dist_to_planes_rows(planes, coords):
    """Parabolic distances ||P_{V perp} q|| from each row q of an (N, n+1)
    array to each plane V of a list, as a (P, N) array.

    The planes are grouped by (k, includes_t_axis).  Each group stacks
    its bases as B of shape (G, k, n) and projects the rows' columns
    with _project_cols, which gives every (plane, row) entry the bits
    it has alone: a distance does not depend on the other planes in the
    list nor on the other rows.  The temporaries take about
    (k + 2n) G N floats; callers bound them by passing at most
    PAIR_TILE // N planes at a time (see tile_slices).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    out = np.empty((len(planes), coords.shape[0]))
    xcols = list(coords.T[:-1])
    groups = {}
    for i, V in enumerate(planes):
        if coords.shape[1] != V.n + 1:
            raise DimensionMismatchError(f"expected {V.n + 1} coordinates, got {coords.shape[1]}")
        groups.setdefault((V.k, V.includes_t_axis), []).append(i)
    for (_, vertical), idx in groups.items():
        basis = np.stack([planes[i].horiz_basis for i in idx])
        out[idx] = _perp_norm(vertical, xcols, coords[:, -1], _project_cols(basis, xcols))
    return out


def dist_to_plane_rows(V, coords):
    """Parabolic distance from each row to the plane V (= ||P_{V perp} q||)."""
    return dist_to_planes_rows([V], coords)[0]


def plane_distance(V, W):
    """Distance on the plane families: spectral norm of the difference of
    the horizontal projectors, forced to at least 1 across different
    t-axis flags so distinct families are never conflated.
    """
    if V.n != W.n:
        raise DimensionMismatchError("planes live in different ambient dimensions")
    diff = V.horiz_projector() - W.horiz_projector()
    term = float(np.max(np.abs(np.linalg.eigvalsh(diff)))) if V.n else 0.0
    if V.includes_t_axis != W.includes_t_axis:
        return max(term, 1.0)
    return term


def complement_plane(V):
    """The orthogonal complement plane: horizontal <-> vertical, with
    horizontal parts orthocomplementary in R^n; dimensions add to n+2.
    """
    co_basis = np.linalg.svd(V.horiz_basis)[2][V.k :]
    return HomPlane(V.n, co_basis, not V.includes_t_axis)


def orthonormal_frames(cols):
    """Orthonormal row frames of a (P, n, k) stack of column sets, k >= 1.

    One stacked QR factors every (n, k) set; its frame is Q^T with each
    row's sign flipped so that diag R > 0.  A set with min |diag R| <
    1e-12 is rank deficient and dropped.  Returns the (P', k, n) frames
    of the kept sets, in stack order, and the (P,) keep mask.
    """
    q, r = np.linalg.qr(cols)
    diag = np.diagonal(r, axis1=1, axis2=2)
    keep = np.min(np.abs(diag), axis=1) >= 1e-12
    q = q * np.where(diag >= 0.0, 1.0, -1.0)[:, None, :]
    return np.ascontiguousarray(q[keep].transpose(0, 2, 1)), keep


def candidate_planes(n, m):
    """The axis-aligned m-planes of P^n, which every plane search scores
    ahead of the planes it fits to the cloud: the horizontal ones, then
    the vertical ones, each in itertools.combinations order of their
    axes."""
    n = int(n)
    m = int(m)
    if not 0 < m < n + 2:
        raise ValueError(f"m={m} out of range for n={n}")
    canon_h = [HomPlane.horizontal_axes(n, c) for c in itertools.combinations(range(n), m)]
    if m < 2:
        return canon_h
    return canon_h + [HomPlane.vertical_axes(n, c) for c in itertools.combinations(range(n), m - 2)]


def sample_planes(n, m, count, seed):
    """Exactly `count` planes of P(n,m): the canonical planes first, then
    seeded random frames, alternating the horizontal and vertical
    families whenever both exist.  The horizontal frames come from
    np.random.default_rng(seed), the vertical ones from seed + 1.
    Finite families are cycled, so repeats are possible.  No plane
    search calls this; the verify checks and the tests draw from it.
    """
    n = int(n)
    m = int(m)
    count = int(count)
    canon = candidate_planes(n, m)
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    canon_h = [V for V in canon if not V.includes_t_axis]
    canon_v = [V for V in canon if V.includes_t_axis]
    canon = [p for pair in itertools.zip_longest(canon_h, canon_v) for p in pair if p is not None]
    planes = canon[:count]
    need = count - len(planes)
    if need > 0:
        fill = []
        families = ((canon_h, m, False, seed), (canon_v, m - 2, True, seed + 1))
        for canon_f, k, vertical, fseed in families:
            if not canon_f:
                continue
            if k in (0, n):  # the family is the one plane R^n x {0} or the t-axis
                fill.append(canon_f)
            else:
                cols = np.random.default_rng(fseed).standard_normal((need, n, k))
                fill.append([HomPlane(n, b, vertical) for b in orthonormal_frames(cols)[0]])
        pools = [itertools.cycle(f) for f in fill]
        for i in range(need):
            planes.append(next(pools[i % len(pools)]))
    return planes


class Cone:
    """Parabolic cone X(p, V, s) = {q : ||P_{V perp}(q - p)|| < s ||q - p||}."""

    __slots__ = ("vertex", "plane", "aperture")

    def __init__(self, vertex, plane, aperture):
        s = float(aperture)
        _check_aperture(s)
        if vertex.n != plane.n:
            raise DimensionMismatchError("vertex and plane dimensions differ")
        self.vertex = vertex
        self.plane = plane
        self.aperture = s

    def __repr__(self):
        return f"Cone(vertex={self.vertex!r}, plane={self.plane!r}, s={self.aperture})"


def cone_gap_rows(V, s, delta_coords):
    """||P_{V perp} d|| - s ||d|| per row; negative means inside the cone."""
    return dist_to_plane_rows(V, delta_coords) - s * para_norm_rows(delta_coords)


def cone_membership(c, q):
    """'inside', 'boundary' or 'outside', with a 1e-9 band for 'boundary'.
    The vertex itself is reported as boundary."""
    _same_dim(c.vertex, q)
    d = (q - c.vertex).coords()[None, :]
    gap = float(cone_gap_rows(c.plane, c.aperture, d)[0])
    if gap < -CONE_BAND:
        return "inside"
    if gap > CONE_BAND:
        return "outside"
    return "boundary"


def as_coord_array(points, n=None):
    """Normalize list-of-ParaPoint / (N, n+1) array input to an array;
    a non-finite coordinate is refused."""
    if isinstance(points, np.ndarray):
        arr = np.atleast_2d(np.asarray(points, dtype=float))
    elif len(points) and isinstance(points[0], ParaPoint):
        arr = np.array([p.coords() for p in points], dtype=float)
    else:
        arr = np.atleast_2d(np.asarray(points, dtype=float))
    if n is not None and arr.shape[1] != n + 1:
        raise DimensionMismatchError(f"expected {n + 1} coordinates per point")
    _check_finite(arr, "points")
    return arr


PAIR_TILE = 1 << 16


def tile_count(width):
    """How many items of the given width fit in PAIR_TILE, at least one."""
    return max(1, PAIR_TILE // max(width, 1))


def tile_slices(count, width):
    """Consecutive slices of range(count), each as long as fits in
    PAIR_TILE items of the given width (at least one item), so arrays
    of slice length times width stay bounded."""
    step = tile_count(width)
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def pair_blocks(*arrays):
    """The pairs i < j of the rows of (N, d) arrays, in blocks of whole
    rows i taken from tile_slices, so each block holds at most
    max(PAIR_TILE, N) entries.

    Yields (lo, upper, diffs) per block of rows lo <= i < hi.  diffs
    holds, for each array, its d columns of differences as
    (hi - lo, N - lo - 1) arrays: entry (a, b) of column c is
    arr[j, c] - arr[i, c] with i = lo + a and j = lo + 1 + b, taken by
    broadcasting with no gather.  Only the entries with j > i are
    pairs; upper masks them, and its nonzero entries run in (i, j)
    lexicographic order.

    Every block reuses the same memory: the difference columns are
    written into buffers of the first (largest) block's size, and upper,
    which depends only on the offsets (a, b), is a view of the first
    block's mask.  A caller reads a block before it asks for the next,
    and may overwrite the difference columns, not upper.
    """
    npts = arrays[0].shape[0]
    cols = [list(np.asarray(a, dtype=float).T.copy()) for a in arrays]
    mask = bufs = None
    for rows in tile_slices(npts - 1, npts):
        lo, hi = rows.start, rows.stop
        if mask is None:
            mask = _read_only(np.arange(npts - lo - 1) >= np.arange(hi - lo)[:, None])
            bufs = [[np.empty(mask.size) for _ in a] for a in cols]
        upper = mask[: hi - lo, : npts - lo - 1]
        yield lo, upper, [
            [np.subtract(c[None, lo + 1 :], c[lo:hi, None], out=b[: upper.size].reshape(upper.shape))
             for c, b in zip(a, ab)]
            for a, ab in zip(cols, bufs)]


def _check_spread(pts):
    """Refuse a cloud whose pair distances may overflow: the bound
    sum_c spread_c^2 + spread_t, spread being fl(max - min) per column
    and the squares summed by _sum_squares, must be finite.  Rounding is
    monotone, so below a finite bound every pair difference, square and
    norm is finite, and so is every projection of a difference."""
    if len(pts):
        with np.errstate(over="ignore"):
            spread = pts.max(axis=0) - pts.min(axis=0)
            bound = _sum_squares(list(spread[:-1])) + spread[-1]
        if not math.isfinite(bound):
            raise ValueError("points lie too far apart: their pair distances overflow")


def _cone_gap_blocks(pts, V, s, base=False):
    """The cone test of every pair of rows of pts, one pair block at a
    time: the one kernel of graph_cone_check and graph_extract.

    For the differences d = q - p of each block of pair_blocks(pts),
    yields (lo, upper, bad, perp, db).  perp is ||P_{V perp} d||; bad
    masks the pairs (upper applied) with perp - s ||d|| > CONE_BAND, the
    pairs cone_membership calls "outside"; db is ||P_V d|| with base,
    else None.  Each norm is the _sum_squares of its spatial columns,
    then |t| added where the part keeps t, then the square root, so the
    values have the bits of _perp_norm and _norm_cols.

    A coordinate plane (V.axes not None) is not projected: ||P_V d||^2
    is _sum_squares of d's columns with those off the axes passed as
    None, and ||P_{V perp} d||^2 the same with the axis columns passed as
    None.  The bits hold on finite columns: the projection kernel gives
    px_c = +0.0 + x_c on an axis and +0.0 off it, so x_c - px_c is +0.0
    or x_c, and a square erases the sign of a zero.  Every other plane
    projects d by _project_cols.

    A cloud is refused before the first block by _check_spread, so
    every pair difference, square and norm is finite, where the bits
    above hold.

    The norms and the mask are written, in place, into buffers of the
    first (largest) block's size, which every later block reuses: a
    caller reads a block's arrays before it asks for the next.  The
    difference columns, pair_blocks' own reused buffers, are overwritten
    too: t by |t|, and on the projected path each spatial column x by
    x - px once ||d|| has taken its square.
    """
    _check_spread(pts)
    vertical = V.includes_t_axis
    on = None if V.axes is None else [c in V.axes for c in range(V.n)]
    flat = None
    for lo, upper, (d,) in pair_blocks(pts):
        if flat is None:
            flat = [np.empty(upper.size, dtype) for dtype in (float, float, float, bool)]
        perp, gap, db, bad = (b[: upper.size].reshape(upper.shape) for b in flat)
        x, t = d[:-1], np.abs(d[-1], out=d[-1])
        if on is None:
            onto, off = _project_cols(V.horiz_basis, x), x
        else:
            onto = [xc if a else None for xc, a in zip(x, on)]
            off = [None if a else xc for xc, a in zip(x, on)]
        if base:
            _sum_squares(onto, out=db)
            if vertical:
                db += t
            np.sqrt(db, out=db)
        _sum_squares(x, out=gap)
        if on is None:
            for xc, pc in zip(x, onto):
                np.subtract(xc, pc, out=xc)
        _sum_squares(off, out=perp)
        if not vertical:
            perp += t
        np.sqrt(perp, out=perp)
        gap += t
        np.sqrt(gap, out=gap)
        gap *= s
        np.subtract(perp, gap, out=gap)
        np.greater(gap, CONE_BAND, out=bad)
        bad &= upper
        yield lo, upper, bad, perp, db if base else None


def graph_cone_check(points, V, s):
    """Check that every pair of distinct points satisfies the cone
    condition over V with aperture s.  Returns the violating pairs (i, j),
    i < j, in lexicographic order; an empty list means pass.  A pair
    violates exactly when cone_membership(Cone(p_i, V, s), p_j) is
    "outside"; the condition is symmetric, so only i < j is examined.
    Points so far apart that their squared distances overflow are
    refused with ValueError.
    """
    _check_aperture(s)
    pts = as_coord_array(points, V.n)
    violations = []
    for lo, _, bad, _, _ in _cone_gap_blocks(pts, V, s):
        if bad.any():
            a, b = np.nonzero(bad)
            violations += zip((a + lo).tolist(), (b + lo + 1).tolist())
    return violations


class GraphSamples:
    """A sampled graph over a homogeneous plane: base points P_V(p) and
    complement values P_{V perp}(p), kept as ambient (N, n+1) coordinate
    arrays.  base + values reassembles the original points exactly.

    The derived arrays (base_h, value_h and the window keys of
    _window, the argsorts of base_h[:, 0] and of the base t) are
    computed once, on first use, over all rows; base_h and value_h are
    read-only.  Like GridIndex with its pts, they are not recomputed, so
    base and values must not change after construction.
    """

    def __init__(self, plane, base, values):
        self.plane = plane
        self.base = np.atleast_2d(np.asarray(base, dtype=float))
        self.values = np.atleast_2d(np.asarray(values, dtype=float))
        if self.base.shape != self.values.shape:
            raise ValueError("base and values must have matching shapes")
        if self.base.shape[1] != plane.n + 1:
            raise DimensionMismatchError("coordinate width does not match the plane")

    @classmethod
    def from_points(cls, points, plane):
        return cls(plane, *_project_parts(plane, as_coord_array(points, plane.n)))

    def __len__(self):
        return self.base.shape[0]

    @functools.cached_property
    def base_h(self):
        """Intrinsic horizontal base coordinates, shape (N, k)."""
        return _read_only(self.base[:, :-1] @ self.plane.horiz_basis.T)

    @property
    def base_t(self):
        """Time coordinate of the base, or None for horizontal planes."""
        return self.base[:, -1] if self.plane.includes_t_axis else None

    @functools.cached_property
    def co_plane(self):
        return complement_plane(self.plane)

    @functools.cached_property
    def value_h(self):
        """Horizontal complement coordinates, shape (N, n - k)."""
        co = self.co_plane
        if co.k == 0:
            return _read_only(np.zeros((len(self), 0)))
        return _read_only(self.values[:, :-1] @ co.horiz_basis.T)

    @property
    def value_t(self):
        """Time coordinate of the values, or None when V is vertical."""
        return None if self.plane.includes_t_axis else self.values[:, -1]

    @functools.cached_property
    def _keys(self):
        """The _window_key of base_h[:, 0] when k > 0, then that of the
        base t when V is vertical."""
        cols = [self.base_h[:, 0]] if self.plane.k else []
        if self.plane.includes_t_axis:
            cols.append(self.base[:, -1])
        return [_window_key(col) for col in cols]

    def _window(self, p, r):
        """The rows, ascending, of row p's narrowest window (_windows)
        at _reach(r, 1) along base_h[:, 0] and the parabolic _t_reach of
        it along base t: every row whose keys lie that close."""
        keys, reach = self._keys, _reach(r, 1)
        reaches = [reach] * len(keys)
        if self.plane.includes_t_axis:
            reaches[-1] = _t_reach(reach, "parabolic")
        key, lo, hi = _windows(keys, [col[p] for col, _ in keys], reaches)
        return _window_rows(keys[key], lo, hi)


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@dataclass(eq=False)
class ExtractResult:
    """Output of graph_extract: the finite graph map plus the certified
    Lipschitz bound s / sqrt(1 - s^2) and the measured pairwise ratio."""

    graph: GraphSamples
    lipschitz_bound: float
    empirical_ratio: float


def graph_extract(points, V, s):
    """Extract g = P_{V perp} o (P_V|G)^{-1} from a point set satisfying
    the cone condition over V with aperture s.

    Exact duplicate points are collapsed first: the rows are sorted
    lexicographically by a stable lexsort, and of equal rows the first
    in input order survives, which decides only the sign a zero
    coordinate keeps (-0.0 == 0.0).  The point indices in the errors
    below are rows of that sorted array, not of the caller's points.
    Raises ConeViolationError naming the first violating pair (i, j) in
    lexicographic order, the pair graph_cone_check(...)[0] names, and
    only when no pair violates the cone condition, the first pair whose
    difference projects to 0 in V.  Like graph_cone_check, it refuses
    points whose squared distances overflow with ValueError.

    One sweep over the pair blocks does all of it.  Each block takes
    the differences d = q - p of its pairs (p, q) and projects them
    once, and the projections of d give everything: ||P_{V perp} d|| -
    s ||d|| is the cone gap graph_cone_check computes, ||P_V d|| = 0
    fails the injectivity test, and ||P_{V perp} d|| / ||P_V d|| is the
    pair's ratio.  Projecting d, rather than subtracting the projections
    of p and q, keeps the ratio exact to a few ulps for a cloud far from
    the origin.  Since ||d||^2 = ||P_V d||^2 + ||P_{V perp} d||^2
    exactly, a pair inside the cone has ||P_V d|| >= sqrt(1 - s^2) ||d||
    > 0: only pairs closer than about CONE_BAND / (1 - s) can pass the
    cone check and still project to 0.  The sweep stops at the first
    block with a cone violation.
    """
    pts = as_coord_array(points, V.n)
    _check_aperture(s)
    pts = pts[np.lexsort(pts.T[::-1])]  # np.unique(axis=0) would import numpy.ma
    first = np.ones(len(pts), dtype=bool)
    first[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[first]
    _check_spread(pts)  # before the projection, which would overflow first
    graph = GraphSamples.from_points(pts, V)
    ratio = 0.0
    same = None
    for lo, upper, bad, perp, db in _cone_gap_blocks(pts, V, s, base=True):
        if bad.any():
            a, b = np.argwhere(bad)[0] + (lo, lo + 1)
            raise ConeViolationError(
                f"cone condition fails for pair ({a}, {b}): "
                f"{pts[a].tolist()} vs {pts[b].tolist()}",
                pair=(pts[a].copy(), pts[b].copy()),
            )
        if same is None:
            zero = (db == 0.0) & upper
            if zero.any():
                same = np.argwhere(zero)[0] + (lo, lo + 1)
            else:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = max(ratio, float(np.max(np.divide(perp, db, out=perp),
                                                    where=upper, initial=0.0)))
    if same is not None:
        a, b = same
        raise ConeViolationError(
            f"projection to the plane is not injective: points {a} and {b}",
            pair=(graph.base[a].copy(), graph.base[b].copy()),
        )
    return ExtractResult(graph, float(s / np.sqrt(1.0 - s * s)), ratio)

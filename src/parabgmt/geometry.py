"""Exact algebra of the parabolic space P^n = R^n x R.

The norm is ||(x,t)|| = sqrt(|x|^2 + |t|), the dilations are
delta_r(x,t) = (r x, r^2 t), and the homogeneous (dilation invariant)
planes come in two families: horizontal planes inside R^n x {0} and
vertical planes containing the t-axis.  Everything here is pure
function algebra on immutable values; the heavier estimators live in
the measure and rectify modules.
"""

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


def metric_eval(p, q, metric="parabolic"):
    """Distance between p and q, parabolic or euclidean."""
    _same_dim(p, q)
    return float(dist_rows(p.coords(), q, metric))


def dist_rows(coords, p, metric="parabolic"):
    """Distances from each row of an (N, n+1) array to the point p.

    The two broadcast over their leading axes like numpy operands, so a
    (K, 1, n+1) stack of points gives the (K, N) distance matrix.  This
    is the one distance of every ball query: a row lies in the closed
    ball B(p, r) when its entry here is <= r.
    """
    coords = np.asarray(coords, dtype=float)
    pc = p.coords() if isinstance(p, ParaPoint) else np.asarray(p, dtype=float)
    dx = coords[..., :-1] - pc[..., :-1]
    dt = coords[..., -1] - pc[..., -1]
    d2 = np.einsum("...i,...i->...", dx, dx)
    if metric == "parabolic":
        return np.sqrt(d2 + np.abs(dt))
    if metric == "euclidean":
        return np.sqrt(d2 + dt * dt)
    raise ValueError(f"unknown metric {metric!r}")


def _dist_pad(d):
    """Absolute slack that covers the underflow of dist_rows on rows of
    d coordinates.

    Relative slack covers every rounding of dist_rows except one: a
    squared coordinate difference below 2^-1022 is rounded to a multiple
    of 2^-1074, up to 2^-1075 away, however small the radius.  The d
    squares of a row lose at most d 2^-1075 together; the pad squared,
    d 2^-1070, is 32 times that.  Above radii of about 1e-140 adding the
    pad changes no bit.
    """
    return math.sqrt(d) * 2.0**-535


def dilate(r, p):
    """The parabolic dilation delta_r(x,t) = (r x, r^2 t)."""
    if r <= 0:
        raise ValueError("dilation factor must be > 0")
    return ParaPoint(r * p.x, r * r * p.t)


def blowup_map(a, r, p):
    """T_{a,r}(p) = delta_{1/r}(p - a); maps B(a,r) onto B(0,1)."""
    if r <= 0:
        raise ValueError("blow-up scale must be > 0")
    _same_dim(a, p)
    return ParaPoint((p.x - a.x) / r, (p.t - a.t) / (r * r))


def blowup_rows(a, r, coords):
    """Array version of blowup_map for (N, n+1) coordinates."""
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
    """

    __slots__ = ("n", "horiz_basis", "includes_t_axis")

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

    def contains(self, p, tol=1e-9):
        return para_norm(project(self, p, "complement")) <= tol

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
        basis = np.eye(n)[list(axes)]
        return cls(n, basis, False)

    @classmethod
    def vertical_axes(cls, n, axes=()):
        basis = np.eye(n)[list(axes)] if axes else np.zeros((0, n))
        return cls(n, basis, True)

    @classmethod
    def t_axis(cls, n):
        return cls.vertical_axes(n)


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


def project_rows(V, coords, part="onto"):
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if coords.shape[1] != V.n + 1:
        raise DimensionMismatchError(f"expected {V.n + 1} coordinates, got {coords.shape[1]}")
    x = coords[:, :-1]
    t = coords[:, -1]
    if V.k:
        xi = x @ V.horiz_basis.T
        px = xi @ V.horiz_basis
    else:
        px = np.zeros_like(x)
    out = np.empty_like(coords)
    if part == "onto":
        out[:, :-1] = px
        out[:, -1] = t if V.includes_t_axis else 0.0
    elif part == "complement":
        out[:, :-1] = x - px
        out[:, -1] = 0.0 if V.includes_t_axis else t
    else:
        raise ValueError(f"unknown part {part!r}")
    return out


def dist_to_planes_rows(planes, coords):
    """Parabolic distances ||P_{V perp} q|| from each row q of an (N, n+1)
    array to each plane V of a list, as a (P, N) array.

    The planes are grouped by (k, includes_t_axis).  Each group stacks
    its bases as B of shape (G, k, n), computes the horizontal
    projections px = (x @ B^T) @ B in one stacked product, and takes
    sqrt(|x - px|^2 + |t_perp|), where t_perp is t for a horizontal
    plane and 0 for a vertical one.  Every plane's row is computed as
    it would be alone, so a distance does not depend on the other
    planes in the list.  The temporaries take G * N * (n + 1) floats;
    callers bound them by passing at most PAIR_TILE // N planes at a
    time (see tile_slices).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    out = np.empty((len(planes), coords.shape[0]))
    x = coords[:, :-1]
    groups = {}
    for i, V in enumerate(planes):
        if coords.shape[1] != V.n + 1:
            raise DimensionMismatchError(f"expected {V.n + 1} coordinates, got {coords.shape[1]}")
        groups.setdefault((V.k, V.includes_t_axis), []).append(i)
    for (_, vertical), idx in groups.items():
        basis = np.stack([planes[i].horiz_basis for i in idx])
        perp = x - (x @ basis.transpose(0, 2, 1)) @ basis
        d2 = np.einsum("gni,gni->gn", perp, perp)
        out[idx] = np.sqrt(d2 if vertical else d2 + np.abs(coords[:, -1]))
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


def _halton_rows(d, seed, count, start):
    """Rows start .. start+count-1 of a d-dimensional scrambled Halton
    sequence (Owen's random digit permutations), as a (count, d) array
    in [0, 1); see _halton_frames for the definition."""
    bases = []
    cand = 2
    while len(bases) < d:
        if all(cand % b for b in bases):
            bases.append(cand)
        cand += 1
    rng = np.random.default_rng(seed)
    index = np.arange(start, start + count, dtype=np.int64)
    rows = np.empty((count, d))
    for col, b in enumerate(bases):
        perms = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = index.copy()
        b2r = 1.0 / b
        u = np.zeros(count)
        for perm in perms:
            u += perm[q % b] * b2r
            q //= b
            b2r /= b
        rows[:, col] = u
    return rows


# Cephes ndtri: the rational approximation for |y - 1/2| <= 1/2 - exp(-2),
# then two in z = 1 / sqrt(-2 log y), split at sqrt(-2 log y) = 8.  Each
# denominator carries its leading 1.0, which Cephes' p1evl leaves implicit.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_SQRT_2PI = 2.50662827463100050242


def _polevl(x, coefs):
    """The polynomial with the given coefficients, highest power first,
    at x, in Horner order."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y):
    """The standard normal quantile of a float y, as Cephes' ndtri computes
    it: -inf at 0, inf at 1, nan outside [0, 1]."""
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    upper = y > 1.0 - _EXP_M2
    if upper:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))) * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    else:
        x1 = z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2)
    x = x - math.log(x) / x - x1
    return x if upper else -x


def _halton_frames(n, k, count, seed):
    """Deterministic pseudo-uniform orthonormal (k, n) frames.

    Row i = 0, 1, 2, ... of a scrambled Halton sequence in d = n*k
    dimensions is u_i with coordinates u_i[c] = sum_j P_c,j[a_j] w_j for
    j = 0 .. ceil(54 / log2 b) - 2, added in that order, where b is the
    (c+1)-th prime, a_0, a_1, ... are the base-b digits of i, least
    significant first, and w_j is 1/b divided j more times by b.  The
    digit permutations P_c,j are copies of 0..b-1 shuffled in turn by
    np.random.default_rng(seed).shuffle, all of base 2's first, then
    base 3's, and so on.  The standard normal quantiles ndtri(u_i),
    filled row by row into an (n, k) matrix, go through
    orthonormal_frames, which drops a rank-deficient row; the frames are
    those of the first `count` rows kept.  (This is the sequence that
    scipy's qmc.Halton(d, seed=seed, scramble=True) draws.)

    The quantile is _ndtri, Cephes' ndtri in Python floats, so it takes
    its logarithms from math.log, as the compiled Cephes does from the C
    library; np.log rounds some of them differently, which moves the
    frames' last bits.
    """
    if k == 0:
        return [np.zeros((0, n)) for _ in range(count)]
    frames = []
    start = 0
    while len(frames) < count:
        need = count - len(frames)
        u = _halton_rows(n * k, seed, need, start)
        z = np.array([_ndtri(v) for v in u.ravel().tolist()]).reshape(need, n, k)
        start += need
        frames.extend(orthonormal_frames(z)[0])
    return frames


def _canonical_planes(n, m):
    """The axis-aligned m-planes of P^n, as (horizontal, vertical) lists
    in itertools.combinations order of their axes."""
    canon_h = [HomPlane.horizontal_axes(n, c) for c in itertools.combinations(range(n), m)]
    canon_v = (
        [HomPlane.vertical_axes(n, c) for c in itertools.combinations(range(n), m - 2)]
        if m >= 2
        else []
    )
    return canon_h, canon_v


def sample_planes(n, m, count, seed):
    """Exactly `count` planes of P(n,m): the axis-aligned canonical
    planes first, then seeded low-discrepancy frames, alternating the
    horizontal and vertical families whenever both exist.  Finite
    families are cycled, so repeats are possible.
    """
    n = int(n)
    m = int(m)
    count = int(count)
    if not 0 < m < n + 2:
        raise ValueError(f"m={m} out of range for n={n}")
    if count < 1:
        raise ValueError("count must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    canon_h, canon_v = _canonical_planes(n, m)
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
                fill.append([HomPlane(n, b, vertical) for b in _halton_frames(n, k, need, fseed)])
        pools = [itertools.cycle(f) for f in fill]
        for i in range(need):
            planes.append(next(pools[i % len(pools)]))
    return planes


def candidate_planes(n, m, budget, seed):
    """The m-planes of P^n that every plane search scores: the canonical
    horizontal planes, then the canonical vertical ones, then the
    seeded frames that sample_planes(n, m, budget, seed) draws after its
    canonical prefix.  The cycled repeats of a family with a single
    plane (k = 0 or k = n) are left out, so no plane is listed twice."""
    sampled = sample_planes(n, m, budget, seed)
    canon_h, canon_v = _canonical_planes(n, m)
    drawn = sampled[len(canon_h) + len(canon_v) :]
    return canon_h + canon_v + [V for V in drawn if V.k not in (0, n)]


class Cone:
    """Parabolic cone X(p, V, s) = {q : ||P_{V perp}(q - p)|| < s ||q - p||}."""

    __slots__ = ("vertex", "plane", "aperture")

    def __init__(self, vertex, plane, aperture):
        s = float(aperture)
        if not 0.0 < s < 1.0:
            raise ValueError("aperture must lie in (0, 1)")
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
    """Normalize list-of-ParaPoint / (N, n+1) array input to an array."""
    if isinstance(points, np.ndarray):
        arr = np.atleast_2d(np.asarray(points, dtype=float))
    elif len(points) and isinstance(points[0], ParaPoint):
        arr = np.array([p.coords() for p in points], dtype=float)
    else:
        arr = np.atleast_2d(np.asarray(points, dtype=float))
    if n is not None and arr.shape[1] != n + 1:
        raise DimensionMismatchError(f"expected {n + 1} coordinates per point")
    return arr


PAIR_TILE = 1 << 16


def tile_slices(count, width):
    """Consecutive slices of range(count), each as long as fits in
    PAIR_TILE items of the given width (at least one item), so arrays
    of slice length times width stay bounded."""
    step = max(1, PAIR_TILE // max(width, 1))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def pair_tiles(npts):
    """The pairs i < j of npts points, as tiles in (i, j) lexicographic order.

    Yields index arrays (i, j) of equal length, so pts.take(j, 0) -
    pts.take(i, 0) are the tile's pair differences (take gathers rows
    several times faster than pts[j]).  A tile takes whole rows i, as
    many as fit in PAIR_TILE row-column pairs (at least one row), so the
    arrays built on it stay bounded at any npts.
    """
    cols = np.arange(npts)
    for rows in tile_slices(npts - 1, npts):
        i = cols[rows]
        yield np.repeat(i, npts - 1 - i), np.concatenate([cols[k + 1 :] for k in i])


def graph_cone_check(points, V, s):
    """Check that every pair of distinct points satisfies the cone
    condition over V with aperture s.  Returns the violating pairs (i, j),
    i < j, in lexicographic order; an empty list means pass.  A pair
    violates exactly when cone_membership(Cone(p_i, V, s), p_j) is
    "outside"; the condition is symmetric, so only i < j is examined.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("aperture must lie in (0, 1)")
    pts = as_coord_array(points, V.n)
    violations = []
    for i, j in pair_tiles(pts.shape[0]):
        bad = cone_gap_rows(V, s, pts.take(j, 0) - pts.take(i, 0)) > CONE_BAND
        violations += zip(i[bad].tolist(), j[bad].tolist())
    return violations


class GraphSamples:
    """A sampled graph over a homogeneous plane: base points P_V(p) and
    complement values P_{V perp}(p), kept as ambient (N, n+1) coordinate
    arrays.  base + values reassembles the original points exactly.
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
        pts = as_coord_array(points, plane.n)
        return cls(plane, project_rows(plane, pts, "onto"), project_rows(plane, pts, "complement"))

    def __len__(self):
        return self.base.shape[0]

    def reassemble(self):
        return self.base + self.values

    @property
    def base_h(self):
        """Intrinsic horizontal base coordinates, shape (N, k)."""
        return self.base[:, :-1] @ self.plane.horiz_basis.T

    @property
    def base_t(self):
        """Time coordinate of the base, or None for horizontal planes."""
        return self.base[:, -1] if self.plane.includes_t_axis else None

    @property
    def co_plane(self):
        return complement_plane(self.plane)

    @property
    def value_h(self):
        """Horizontal complement coordinates, shape (N, n - k)."""
        co = self.co_plane
        if co.k == 0:
            return np.zeros((len(self), 0))
        return self.values[:, :-1] @ co.horiz_basis.T

    @property
    def value_t(self):
        """Time coordinate of the values, or None when V is vertical."""
        return None if self.plane.includes_t_axis else self.values[:, -1]


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

    Exact duplicate points are collapsed first, by np.unique(points,
    axis=0), and the point indices in the errors below are rows of that
    sorted unique array, not of the caller's points.  Raises
    ConeViolationError naming the first violating pair (i, j) in
    lexicographic order, the pair graph_cone_check(...)[0] names, and
    only when no pair violates the cone condition, the first pair whose
    P_V images are equal.

    One sweep over the pairs does all of it.  Each tile gathers the rows
    (p, P_V p, P_{V perp} p) of its pairs (p, q) once, and one
    subtraction gives three differences: d = q - p, whose cone gap is
    computed by cone_gap_rows as in graph_cone_check, and the
    differences of the graph's base and values, whose parabolic norms
    give the injectivity test and the pair's ratio.  Since ||d||^2 =
    ||P_V d||^2 + ||P_{V perp} d||^2 exactly, a pair inside the cone has
    ||P_V d|| >= sqrt(1 - s^2) ||d|| > 0: only pairs closer than about
    CONE_BAND / (1 - s) can pass the cone check and still share a P_V
    image in floating point.  The sweep stops at the first tile with a
    cone violation.
    """
    pts = np.unique(as_coord_array(points, V.n), axis=0)
    if not 0.0 < s < 1.0:
        raise ValueError("aperture must lie in (0, 1)")
    graph = GraphSamples.from_points(pts, V)
    w = pts.shape[1]
    rows = np.hstack([pts, graph.base, graph.values])
    ratio = 0.0
    same = None
    for i, j in pair_tiles(pts.shape[0]):
        diff = rows.take(j, 0) - rows.take(i, 0)
        # a contiguous d, as graph_cone_check projects it
        bad = np.flatnonzero(cone_gap_rows(V, s, np.ascontiguousarray(diff[:, :w])) > CONE_BAND)
        if bad.size:
            a, b = i[bad[0]], j[bad[0]]
            raise ConeViolationError(
                f"cone condition fails for pair ({a}, {b}): "
                f"{pts[a].tolist()} vs {pts[b].tolist()}",
                pair=(pts[a].copy(), pts[b].copy()),
            )
        if same is None:
            db = para_norm_rows(diff[:, w : 2 * w])
            zero = np.flatnonzero(db == 0.0)
            if zero.size:
                same = i[zero[0]], j[zero[0]]
            else:
                ratio = max(ratio, float(np.max(para_norm_rows(diff[:, 2 * w :]) / db)))
    if same is not None:
        a, b = same
        raise ConeViolationError(
            f"projection to the plane is not injective: points {a} and {b}",
            pair=(graph.base[a].copy(), graph.base[b].copy()),
        )
    return ExtractResult(graph, float(s / np.sqrt(1.0 - s * s)), ratio)


class EuclideanPlane:
    """A linear subspace of R^{n+1} given by orthonormal basis rows,
    used only for the euclidean-cone comparison; it need not be
    homogeneous."""

    def __init__(self, basis):
        basis = np.atleast_2d(np.asarray(basis, dtype=float))
        _check_finite(basis, "basis")
        d, amb = basis.shape
        if not 1 <= d <= amb:
            raise ValueError("basis must have 1 <= rows <= columns")
        if not np.allclose(basis @ basis.T, np.eye(d), atol=ORTHO_TOL, rtol=0.0):
            raise ValueError("basis rows are not orthonormal within 1e-10")
        self.basis = basis

    @property
    def ambient(self):
        return self.basis.shape[1]

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def inside_h(self):
        return bool(np.all(np.abs(self.basis[:, -1]) < ORTHO_TOL))


@dataclass(eq=False)
class EuclidConeResult:
    ok: bool
    radius: float | None
    witness: np.ndarray | None
    checked: int


def verticalize(V):
    """The vertical homogeneous plane W = {(v, t) : v in V cap H}, for a
    euclidean subspace V of R^{n+1} not contained in H."""
    if V.inside_h:
        raise ValueError("V lies inside R^n x {0}; verticalization needs V not in H")
    n = V.ambient - 1
    tcol = V.basis[:, -1][None, :]
    if V.dim == 1:
        horiz = np.zeros((0, n))
    else:
        mix = np.linalg.svd(tcol)[2][1:] @ V.basis
        horiz = orthonormal_frames(mix[:, :-1].T[None])[0][0]
    return HomPlane(n, horiz, True)


def euclid_cone_radius(V, s, tol=1e-3):
    """Search for r such that the euclidean cone X_E(0, V, s^2)
    intersected with B_E(0, r) lies inside the parabolic cone
    X(0, W, s), W being the verticalized plane of V.

    The check is a deterministic grid sample at relative resolution
    tol; candidate radii are halved from 1 down to tol.  Returns an
    EuclidConeResult; ok=False carries a witness point.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    if V.inside_h:
        raise ValueError("V lies inside R^n x {0}")
    if V.dim > V.ambient - 1:
        raise ValueError("V must be a proper subspace so that W exists")
    W = verticalize(V)
    amb = V.ambient
    steps = max(int(np.ceil(2.0 / tol)), 8)
    axes = [np.linspace(-1.0, 1.0, steps + 1) for _ in range(amb)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, amb)
    grid = grid[np.linalg.norm(grid, axis=1) > 0]
    witness = None
    r = 1.0
    while r >= tol:
        q = grid * r
        qn = np.linalg.norm(q, axis=1)
        keep = (qn <= r) & (qn > 0)
        q = q[keep]
        qn = qn[keep]
        perp = q - (q @ V.basis.T) @ V.basis
        in_cone = np.linalg.norm(perp, axis=1) < s * s * qn
        q = q[in_cone]
        if q.shape[0]:
            gap = cone_gap_rows(W, s, q)
            bad = np.nonzero(gap > CONE_BAND)[0]
            if bad.size == 0:
                return EuclidConeResult(True, r, None, int(q.shape[0]))
            witness = q[bad[0]].copy()
        else:
            return EuclidConeResult(True, r, None, 0)
        r *= 0.5
    return EuclidConeResult(False, None, witness, int(grid.shape[0]))

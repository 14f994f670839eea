"""Full-scan stand-ins, for tests that check the indexed and windowed
code paths against a scan over every point, the stored flat-plane
meshes that the flat-constant counts are checked against, the
one-point blow-up map that blowup_rows is checked against, the
per-row CSV writer that write_csv is checked against, the deque
scan that find_equal_pair is checked against, and the full-scan
differential fit that fit_differential is checked against."""

from collections import deque

import numpy as np

from parabgmt.generators import PairNotFoundError
from parabgmt.geometry import ParaPoint, _same_dim, _sum_squares, dist_rows
from parabgmt.measure import _spread_index
from parabgmt.rectify import DifferentialFit


class ScanIndex:
    """GridIndex's queries answered by full scans: the window of every
    centre is every row, in ascending index order; `balls`, `ball` and
    `query` return the rows within the radius, found by one dist_rows
    scan per centre, in ascending index order; and `nearest` takes each
    row's least distance to every other row."""

    def __init__(self, pts):
        self.pts = np.atleast_2d(np.asarray(pts, dtype=float))

    def windows(self, centres, r, metric="parabolic"):
        every = np.broadcast_to(len(self.pts), np.shape(centres)[:-1])
        return np.zeros_like(every), np.zeros_like(every), every

    def rows(self, key, lo, hi):
        return np.arange(lo, hi)

    def balls(self, centres, radii, metric="parabolic"):
        centres = np.asarray(centres, dtype=float)
        for c, radius in zip(centres, np.broadcast_to(radii, centres.shape[:1])):
            yield reference_ball(self.pts, c, radius, metric)

    def ball(self, c, radius, metric="parabolic"):
        return next(self.balls([c], radius, metric))

    def query(self, i, radius, metric="parabolic"):
        if not 0 <= i < len(self.pts):
            raise ValueError(f"row {i} out of range for {len(self.pts)} points")
        return self.ball(self.pts[i], radius, metric)[0]

    def nearest(self, rows):
        mins = []
        with np.errstate(over="ignore"):
            for i in rows:
                d = dist_rows(self.pts, self.pts[i])
                d[i] = np.inf
                mins.append(float(d.min()))
        return mins


def reference_ball(points, a, r, metric="parabolic"):
    """DiscreteMeasure.ball by one dist_rows scan over every atom: the
    rows within r of a in ascending order, and their distances."""
    with np.errstate(over="ignore"):
        dist = dist_rows(points, a, metric)
    rows = np.flatnonzero(dist <= r)
    return rows, dist[rows]


def reference_resolution(points):
    """DiscreteMeasure.resolution() of canonically sorted, merged points
    by full scans: for each of the 256 evenly spread atoms, dist_rows to
    every atom, its own entry set to inf, the minimum; then the median."""
    index = ScanIndex(points)
    if len(index.pts) < 2:
        return 0.0
    return float(np.median(index.nearest(_spread_index(len(index.pts), min(len(index.pts), 256)))))


def reference_plane_cloud(n, m, family):
    """Uniform mesh of the canonical plane of P(n,m) inside B(0,1), every
    row stored; measure._flat_plane_counts counts the same atoms.

    The cloud is written in the plane's own coordinates: the spatial
    axes the plane spans, then t.  The axes of P^n it leaves out would
    be zero in every atom; each would only add +0.0 at the end of the
    even or the odd partial sum of _sum_squares, so every norm has the
    bits it has in P^n.  A horizontal plane gives (N, m+1) rows
    x1..xm, t (t = 0) and a vertical one (N, k+1) rows x1..xk, t with
    k = m - 2; the t-axis (k = 0) spans no spatial axis and keeps one
    zero column, since a sum of no squares has no shape."""
    if family == "horizontal":
        if not 1 <= m <= n:
            raise ValueError(f"horizontal family needs 1 <= m <= n, got m={m}, n={n}")
        h = {1: 1e-3, 2: 4e-3}.get(m, 2e-2)
        axes = [np.arange(-1.0, 1.0 + h / 2, h) for _ in range(m)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
        mesh = mesh[np.einsum("ij,ij->i", mesh, mesh) <= 1.0]
        pts = np.zeros((mesh.shape[0], m + 1))
        pts[:, :m] = mesh
        return pts
    if family == "vertical":
        if not 2 <= m <= n + 1:
            raise ValueError(f"vertical family needs 2 <= m <= n+1, got m={m}, n={n}")
        k = m - 2
        if k == 0:
            ht = 2e-5
            t = np.arange(-1.0, 1.0 + ht / 2, ht)
            t = t[np.abs(t) <= 1.0]
            pts = np.zeros((t.size, 2))
            pts[:, -1] = t
            return pts
        hx = 8e-3 if k == 1 else 4e-2
        ht = 2e-3 if k == 1 else 1e-2
        axes = [np.arange(-1.0, 1.0 + hx / 2, hx) for _ in range(k)]
        axes.append(np.arange(-1.0, 1.0 + ht / 2, ht))
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, k + 1)
        keep = np.einsum("ij,ij->i", mesh[:, :k], mesh[:, :k]) + np.abs(mesh[:, k]) <= 1.0
        return mesh[keep]
    raise ValueError(f"unknown family {family!r}")


def reference_extremal_mask(pts):
    """Mask of the rows of a plane cloud, in the plane's own coordinates,
    that lie in E*_V = {4|x|^2 + 2|t| <= 1}.  On a horizontal plane
    t = 0, so there E*_V is the Euclidean ball |x| <= 1/2."""
    x2 = _sum_squares([pts[:, j] for j in range(pts.shape[1] - 1)])
    return 4.0 * x2 + 2.0 * np.abs(pts[:, -1]) <= 1.0


def blowup_map(a, r, p):
    """T_{a,r}(p) = delta_{1/r}(p - a) of one ParaPoint; geometry.blowup_rows
    maps every row of an array so."""
    if r <= 0:
        raise ValueError("blow-up scale must be > 0")
    _same_dim(a, p)
    return ParaPoint((p.x - a.x) / r, (p.t - a.t) / (r * r))


def reference_write_csv(path, header, columns):
    """The per-row writer that _report.write_csv replaced, as
    save_cloud_csv had it: the float columns stacked into rows of Python
    floats, each value written by repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.column_stack(columns).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def reference_find_equal_pair(ts, fs, ctilde, refine_steps=40):
    """generators.find_equal_pair as one scan over fs sorted stably: the
    window start lo advances while sf[hi] - sf[lo] > tol, two monotone
    deques keep the least and greatest sample index in the window, and
    a strict > keeps the first widest pair.  The local refinement is
    find_equal_pair's own."""
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    n = len(ts)
    if n < 2:
        raise PairNotFoundError("need at least two samples")
    span = ts[-1] - ts[0]
    tol = 2.0 * float(np.max(np.abs(np.diff(fs))))
    order = np.argsort(fs, kind="stable")
    sf = fs[order]

    best_gap = -1.0
    best = None
    lo = 0
    minq = deque()
    maxq = deque()
    for hi in range(n):
        while minq and order[minq[-1]] >= order[hi]:
            minq.pop()
        minq.append(hi)
        while maxq and order[maxq[-1]] <= order[hi]:
            maxq.pop()
        maxq.append(hi)
        while sf[hi] - sf[lo] > tol:
            lo += 1
        while minq[0] < lo:
            minq.popleft()
        while maxq[0] < lo:
            maxq.popleft()
        i0 = int(order[minq[0]])
        i1 = int(order[maxq[0]])
        gap = ts[i1] - ts[i0]
        if gap > best_gap:
            best_gap = gap
            best = (i0, i1)

    need = ctilde * span
    if best is None or best_gap < need:
        raise PairNotFoundError(
            f"no equal pair with gap >= {need!r} (best {best_gap!r}, tol {tol!r})"
        )
    ia, ib = best
    la = np.arange(max(0, ia - refine_steps), min(n, ia + refine_steps + 1))
    lb = np.arange(max(0, ib - refine_steps), min(n, ib + refine_steps + 1))
    diffs = np.abs(fs[la][:, None] - fs[lb][None, :])
    gaps = ts[lb][None, :] - ts[la][:, None]
    diffs = np.where(gaps >= need, diffs, np.inf)
    flat = int(np.argmin(diffs))
    ra, rb = divmod(flat, len(lb))
    if np.isfinite(diffs[ra, rb]):
        ia, ib = int(la[ra]), int(lb[rb])
    return ia, ib


def reference_fit_differential(graph, p_index, cfg):
    """fit_differential by one scan over every sample: the base distances
    from row p to all N rows, then each scale's selection among them."""
    V = graph.plane
    k = V.k
    p = int(p_index)
    if not 0 <= p < len(graph):
        raise IndexError(f"point index {p} out of range")
    xi = graph.base_h
    eta = graph.value_h
    co_k = eta.shape[1]
    dxi = xi - xi[p]
    deta = eta - eta[p]
    sq = np.einsum("ij,ij->i", dxi, dxi)
    if V.includes_t_axis:
        dbase = np.sqrt(sq + np.abs(graph.base_t - graph.base_t[p]))
        dtau = None
    else:
        dbase = np.sqrt(sq)
        dtau = graph.value_t - graph.value_t[p]
    scales = tuple(sorted((float(r) for r in cfg.scales), reverse=True))
    if not scales:
        raise ValueError("cfg.scales must be nonempty")
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

"""Deterministic example constructions with calibrated weights.

Every generator emits a point cloud whose weights approximate the natural
parabolic Hausdorff measure of the underlying set, together with an info
dict recording measured constants, the truncation scale, and a ground
truth label.  Identical inputs produce bit-identical clouds.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import math
import operator

import numpy as np

from ._report import Record, jsonable
from .geometry import HomPlane, complement_plane
from .measure import DiscreteMeasure, _median

_SEQ_KEYS = ("L_seq", "c_seq", "n_seq", "r_seq", "gap_seq")


class ConstructionError(RuntimeError):
    """gen_regular_defeater found no equal-value pair in some window."""


class PairNotFoundError(RuntimeError):
    """No equal-value pair with the required gap exists in the window."""


@dataclasses.dataclass
class GeneratorSpec(Record):
    """Serializable recipe: construction kind, kind-specific params, seed."""

    kind: str
    params: dict = dataclasses.field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        self.params = dict(self.params)
        self.seed = int(self.seed)
        _require("seed", self.seed, 0)
        depth = self.params.get("depth")
        if depth is not None and int(depth) < 1:
            raise ValueError("depth must be >= 1")
        res = self.params.get("resolution")
        if res is not None and not float(res) > 0:
            raise ValueError("resolution must be positive")
        for key in _SEQ_KEYS:
            seq = self.params.get(key)
            if seq is not None and any(v <= 0 for v in seq):
                raise ValueError(f"{key} entries must be positive")


def _require(name, value, low):
    """Refuse a value below low with a one-line ValueError."""
    if not value >= low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def sidecar_payload(info):
    """JSON-safe subset of a generator info dict (objects and big arrays dropped)."""
    out = {}
    for key, value in info.items():
        if isinstance(value, np.ndarray) and value.size > 1000:
            continue
        try:
            out[key] = jsonable(value)
        except TypeError:
            continue
    return out


# ---------------------------------------------------------------------------
# Weierstrass-type graphs


def weierstrass_eval(c0, K, t):
    """Partial sum c0 * sum_{k=1..K} 2^(-k/2) cos(2^k t)."""
    K = int(K)
    if K < 1:
        raise ValueError("K must be >= 1")
    ts = np.asarray(t, dtype=float)
    acc = np.zeros(ts.shape)
    for k in range(1, K + 1):
        acc += 2.0 ** (-0.5 * k) * np.cos(2.0 ** k * ts)
    acc *= c0
    if acc.ndim == 0:
        return float(acc)
    return acc


def weierstrass_truncation(c0, K):
    """Bound for the tail dropped after K terms."""
    return abs(c0) * 2.0 ** (-0.5 * (K - 1)) * (2.0 + math.sqrt(2.0))


def holder_upper(ts, fs):
    """Largest |f(t)-f(s)| / sqrt(|t-s|) over strided sample pairs.

    Strides are contiguous up to 64 and dyadic beyond, so every
    log2 phase of the separation is sampled; a coarse dyadic sweep alone
    misses the worst phase of lacunary series.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    n = len(ts)
    strides = list(range(1, min(64, n - 1) + 1))
    s = strides[-1] * 2 if strides else 1
    while s < n:
        strides.append(s)
        s *= 2
    best = 0.0
    for stride in strides:
        dt = ts[stride:] - ts[:-stride]
        df = np.abs(fs[stride:] - fs[:-stride])
        ok = dt > 0
        if np.any(ok):
            best = max(best, float(np.max(df[ok] / np.sqrt(dt[ok]))))
    return best


def holder_lower(ts, fs, min_steps=10):
    """Constant c with oscillation > c*sqrt(span) on every window of >= min_steps steps.

    Windows are swept at dyadic sizes; the returned value carries a 1/sqrt(2)
    factor so that intermediate window sizes are covered too.  The extremes
    of the windows of one size come from van Herk / Gil-Werman: split fs into
    blocks of the window's size; a window's extreme is that of the block
    suffix at its first element and the block prefix at its last.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    n = len(fs)
    if n < min_steps + 1:
        raise ValueError("sample too short for the requested window size")
    step = (ts[-1] - ts[0]) / (n - 1)
    best = float(fs.max() - fs.min()) / math.sqrt(ts[-1] - ts[0])
    w = int(min_steps)
    while w < n - 1:
        # the windows fs[j : j + w + 1], j < count, whose centre
        # j + (w + 1) // 2 lies at least (w + 1) // 2 from either end;
        # none of them reaches the padding
        count = n - 2 * ((w + 1) // 2)
        blocks = np.pad(fs, (0, -n % (w + 1))).reshape(-1, w + 1)
        extremes = []
        for acc in (np.maximum, np.minimum):
            prefix = acc.accumulate(blocks, axis=1).ravel()
            suffix = acc.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
            extremes.append(acc(suffix[:count], prefix[w : w + count]))
        best = min(best, float(np.min(extremes[0] - extremes[1])) / math.sqrt(w * step))
        w *= 2
    return best / math.sqrt(2.0)


def gen_weierstrass_graph(n=1, c0=0.05, K=30, resolution=1e-3):
    """Cloud on {(f(t), y, t)} for the lacunary cosine series f.

    The base is the vertical plane of the y and t axes; weights are the
    Lebesgue measure of the base grid cells, which calibrates the cloud to
    the (n+1)-dimensional measure of the graph up to the graph's bilipschitz
    distortion.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = int(round(1.0 / resolution))
    t = np.linspace(0.0, 1.0, steps + 1)
    f = weierstrass_eval(c0, K, t)
    if n == 1:
        pts = np.column_stack([f, t])
    else:
        ygrids = [t.copy() for _ in range(n - 1)]
        mesh = np.meshgrid(*ygrids, t, indexing="ij")
        tt = mesh[-1].ravel()
        cols = [weierstrass_eval(c0, K, tt)] + [g.ravel() for g in mesh[:-1]] + [tt]
        pts = np.column_stack(cols)
    w = np.full(pts.shape[0], resolution ** n)
    upper = holder_upper(t, f)
    lower = holder_lower(t, f) if len(t) > 16 else 0.0
    mu = DiscreteMeasure(
        n,
        pts,
        w,
        resolution_hint=math.sqrt(resolution) if n == 1 else resolution,
    )
    info = {
        "kind": "weierstrass_graph",
        "ground_truth": "no approximate tangent planes at any point",
        "expected_tangent": "none",
        "c0": c0,
        "K": K,
        "resolution": resolution,
        "truncation_bound": weierstrass_truncation(c0, K),
        "truncation_scale": resolution,
        "holder_upper": upper,
        "c": lower,
        "ctilde": lower ** 4 / 128.0,
    }
    return mu, info


# ---------------------------------------------------------------------------
# Regular-graph defeater (recursively rescaled Weierstrass)


def find_equal_pair(ts, fs, ctilde, refine_steps=40):
    """Widest sample pair with nearly equal values and gap >= ctilde * span.

    Equality tolerance is twice the largest adjacent-sample oscillation.  A
    local refinement then trades at most refine_steps grid steps of width for
    the tightest value match, which keeps later rescaling jumps negligible.
    Raises PairNotFoundError when every qualifying pair is narrower than
    ctilde * span (e.g. strictly monotone data).

    The search runs on fs sorted stably, as sf = fs[order].  Each sorted
    position h closes a window [lo[h], h], lo[h] being the least l with
    sf[h] - sf[l] <= tol, and the window's pair is the samples of least
    and greatest index in it, (min, max) of order over the window.
    searchsorted(sf, sf - tol) places each lo up to the rounding of that
    difference; lo then steps a whole run of equal sf values at a time,
    up while the rounded difference exceeds tol and down while the value
    before lo passes, so lo is the least l of the rounded test itself.
    The minima and maxima of order come from a sparse table built one
    power of two at a time, np.minimum and np.maximum of the runs of the
    width below, each window read from the two runs of the largest width
    2^j that fits in it.  The pair kept is the first window with the
    widest gap ts[i1] - ts[i0], the one a scan with a strict > keeps.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    n = len(ts)
    if n < 2:
        raise PairNotFoundError("need at least two samples")
    span = ts[-1] - ts[0]
    tol = 2.0 * float(np.max(np.abs(np.diff(fs))))
    order = np.argsort(fs, kind="stable")
    sf = fs[order]

    hi = np.arange(n)
    lo = np.minimum(np.searchsorted(sf, sf - tol), hi)
    while (up := np.flatnonzero(sf - sf[lo] > tol)).size:
        lo[up] = np.searchsorted(sf, sf[lo[up]], side="right")
    while (down := np.flatnonzero((lo > 0) & ~(sf - sf[lo - 1] > tol))).size:
        lo[down] = np.searchsorted(sf, sf[lo[down] - 1])

    level = np.frexp(hi - lo + 1)[1] - 1  # the largest j with 2^j <= window length
    i0 = np.empty_like(order)
    i1 = np.empty_like(order)
    run_min = run_max = order  # at level j, entry l covers order[l : l + 2^j]
    for j in range(int(level.max()) + 1):
        if j:
            half = 1 << (j - 1)
            run_min = np.minimum(run_min[:-half], run_min[half:])
            run_max = np.maximum(run_max[:-half], run_max[half:])
        h = np.flatnonzero(level == j)
        tail = h - (1 << j) + 1
        i0[h] = np.minimum(run_min[lo[h]], run_min[tail])
        i1[h] = np.maximum(run_max[lo[h]], run_max[tail])
    gaps = ts[i1] - ts[i0]
    k = int(np.argmax(np.where(gaps > -1.0, gaps, -np.inf)))
    found = gaps[k] > -1.0
    best_gap = gaps[k] if found else -1.0

    need = ctilde * span
    if not found or best_gap < need:
        raise PairNotFoundError(
            f"no equal pair with gap >= {need!r} (best {best_gap!r}, tol {tol!r})"
        )
    ia, ib = int(i0[k]), int(i1[k])
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


class DefeaterTree:
    """Nested equal-pair intervals with per-interval affine forms.

    On its deepest containing interval the constructed function equals
    alpha * f0(t) + beta + gamma * t, where f0 is the prescaled Weierstrass
    profile; gamma carries the tiny continuity ramps.
    """

    def __init__(self, c0, K, prescale, L_full, ctilde_seq, levels):
        self.c0 = c0
        self.K = K
        self.prescale = prescale
        self.L_full = list(L_full)
        self.ctilde_seq = list(ctilde_seq)
        self.levels = levels

    @property
    def depth(self):
        return len(self.levels) - 1

    def intervals(self, k):
        lev = self.levels[k]
        return lev["a"].copy(), lev["b"].copy()

    def f0(self, ts):
        return self.prescale * weierstrass_eval(self.c0, self.K, np.asarray(ts, float))

    def eval(self, ts):
        """Value of the depth-level function at arbitrary points of [0, 1]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        f0v = self.f0(ts)
        out = np.empty(ts.shape)
        assigned = np.zeros(ts.shape, dtype=bool)
        for k in range(self.depth, -1, -1):
            lev = self.levels[k]
            idx = np.searchsorted(lev["a"], ts, side="right") - 1
            inside = idx >= 0
            sub = np.where(inside)[0]
            sub = sub[ts[sub] <= lev["b"][idx[sub]]]
            sub = sub[~assigned[sub]]
            if sub.size:
                j = idx[sub]
                out[sub] = lev["alpha"][j] * f0v[sub] + lev["beta"][j] + lev["gamma"][j] * ts[sub]
                assigned[sub] = True
        return out


def gen_regular_defeater(L_seq=None, c_seq=None, depth=6, resolution=1e-4,
                         c0=0.33, K=48, window_samples=1500, atoms_per_interval=160):
    """Recursive equal-pair rescaling of a Weierstrass profile.

    Level k selects one equal-value pair inside the left and the right third
    of every level k-1 interval and rescales the function by L_k/L_{k-1}
    between the pair, so that on each level-k interval the function is an
    L_k-multiple of the base profile plus an affine correction.  The emitted
    cloud samples the graph over the level-`depth` intervals only.

    Returns (measure, info); info["tree"] holds the interval tree.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # a window needs a pair of samples, and the resolution hint divides
    # by the atoms per interval minus one
    _require("window_samples", window_samples, 2)
    _require("atoms_per_interval", atoms_per_interval, 2)
    if L_seq is None:
        L_seq = [1.0 / math.sqrt(k + 1) for k in range(1, depth + 1)]
    L_seq = [float(v) for v in L_seq]
    if len(L_seq) < depth:
        raise ValueError("L_seq shorter than depth")
    if L_seq[0] >= 1.0 or any(b >= a for a, b in zip(L_seq, L_seq[1:])):
        raise ValueError("L_seq must be strictly decreasing with L_1 < 1")

    # prescale the profile so its measured sqrt-Holder constant is 0.99
    probes = int(round(1.0 / resolution))
    tgrid = np.linspace(0.0, 1.0, probes + 1)
    raw = weierstrass_eval(c0, K, tgrid)
    upper = holder_upper(tgrid, raw)
    prescale = 0.99 / upper
    f0grid = prescale * raw
    c = holder_lower(tgrid, f0grid)
    if c_seq is None:
        c_seq = [c * (0.5 + 2.0 ** (-(k + 1))) for k in range(1, depth + 1)]
    c_seq = [float(v) for v in c_seq]
    if any(not (c / 2 < ck < c) for ck in c_seq):
        raise ValueError("c_seq entries must lie strictly between c/2 and c")
    ctilde_seq = [ck ** 4 / 128.0 for ck in c_seq]
    L_full = [1.0] + L_seq[:depth]

    def node_arrays(rows):
        keys = ("a", "b", "parent", "alpha", "beta", "gamma", "pair_gap")
        return {k: np.array([r[i] for r in rows]) for i, k in enumerate(keys)}

    # alpha is taken relative to the prescaled profile, so the root is 1
    root = node_arrays([(0.0, 1.0, -1, 1.0, 0.0, 0.0, 1.0)])
    tree = DefeaterTree(c0, K, prescale, L_full, ctilde_seq, [root])
    levels = tree.levels

    for k in range(1, depth + 1):
        prev = levels[k - 1]
        rho = L_full[k] / L_full[k - 1]
        rows = []
        for j in range(len(prev["a"])):
            pa, pb = prev["a"][j], prev["b"][j]
            al, be, ga = prev["alpha"][j], prev["beta"][j], prev["gamma"][j]
            third = (pb - pa) / 3.0
            for wa, wb in ((pa, pa + third), (pb - third, pb)):
                wt = np.linspace(wa, wb, window_samples)
                fv = tree.f0(wt)
                h = fv + (ga / al) * wt
                try:
                    ia, ib = find_equal_pair(wt, h, ctilde_seq[k - 1])
                except PairNotFoundError as exc:
                    raise ConstructionError(
                        f"equal pair search failed at level {k}, interval {j}: {exc}"
                    ) from exc
                ta, tb = float(wt[ia]), float(wt[ib])
                fa = al * fv[ia] + be + ga * ta
                fb = al * fv[ib] + be + ga * tb
                # affine update: rescale toward fa, ramp the residual so the
                # endpoint values are preserved exactly
                slope = (1.0 - rho) * (fb - fa) / (tb - ta)
                rows.append((
                    ta, tb, j,
                    rho * al,
                    rho * be + (1.0 - rho) * fa - slope * ta,
                    rho * ga + slope,
                    tb - ta,
                ))
        levels.append(node_arrays(rows))

    # m atoms per deepest interval, each of the interval's length / m,
    # valued by the tree on that interval
    deepest = levels[depth]
    m = int(atoms_per_interval)
    T = np.concatenate([np.linspace(a, b, m) for a, b in zip(deepest["a"], deepest["b"])])
    lengths = deepest["b"] - deepest["a"]
    mu = DiscreteMeasure(
        1,
        np.column_stack([tree.eval(T), T]),
        np.repeat(lengths / m, m),
        resolution_hint=math.sqrt(_median(lengths) / (m - 1)),
    )
    info = {
        "kind": "regular_defeater",
        "ground_truth": "LG rectifiable at every level; BMO energy diverges",
        "expected_tangent": "vertical",
        "c": c,
        "c_seq": c_seq,
        "ctilde_seq": ctilde_seq,
        "L_seq": L_seq[:depth],
        "prescale": prescale,
        "holder_upper": 0.99,
        "depth": depth,
        "truncation_scale": float(lengths.min()),
        "tree": tree,
    }
    return mu, info


@dataclasses.dataclass
class BmoEnergy(Record):
    """Dyadic-annulus quadrature of |f(t0)-f(u)|^2 / |t0-u|^2 around t0."""

    point: float
    annuli: np.ndarray
    sums: np.ndarray
    cumulative: np.ndarray
    total: float
    excluded: float


def bmo_energy(ts, fs, t0, weights=None, min_sep=None):
    """Cumulative singular-energy quadrature ordered coarse to fine.

    The cell |u - t0| < min_sep is excluded; min_sep defaults to the local
    grid spacing at t0.  With f(u) = u the total approximates the sample
    span; with constant f it is zero.
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    fs = fs[order]
    if weights is None:
        w = np.empty_like(ts)
        w[1:-1] = 0.5 * (ts[2:] - ts[:-2])
        w[0] = 0.5 * (ts[1] - ts[0])
        w[-1] = 0.5 * (ts[-1] - ts[-2])
    else:
        w = np.asarray(weights, dtype=float)[order]
    i0 = int(np.argmin(np.abs(ts - t0)))
    fat = fs[i0]
    d = np.abs(ts - float(t0))
    if min_sep is None:
        gaps = []
        if i0 > 0:
            gaps.append(ts[i0] - ts[i0 - 1])
        if i0 < len(ts) - 1:
            gaps.append(ts[i0 + 1] - ts[i0])
        min_sep = max(gaps) if gaps else 0.0
    R = float(d.max())
    if R <= min_sep:
        return BmoEnergy(float(t0), np.zeros((0, 2)), np.zeros(0), np.zeros(0), 0.0, float(min_sep))
    vals = np.zeros_like(d)
    ok = d >= max(min_sep, 1e-300)
    vals[ok] = (fs[ok] - fat) ** 2 / d[ok] ** 2 * w[ok]
    lo_edges = []
    hi = R
    while hi > min_sep:
        lo = max(hi / 2.0, min_sep)
        lo_edges.append((lo, hi))
        hi = lo
    annuli = np.array(lo_edges)
    sums = np.empty(len(annuli))
    for i, (lo, hi) in enumerate(annuli):
        if i == 0:
            mask = (d >= lo) & (d <= hi)
        else:
            mask = (d >= lo) & (d < hi)
        sums[i] = vals[mask].sum()
    cum = np.cumsum(sums)
    return BmoEnergy(float(t0), annuli, sums, cum, float(cum[-1]), float(min_sep))


def check_quadrature(grid, refine):
    """Refuse defeater_energies counts below 2: a coarser linspace misses an end."""
    for name, count in (("grid", grid), ("refine", refine)):
        if count < 2:
            raise ValueError(f"{name} must be >= 2, got {count}")


def defeater_energies(tree, grid=20001, refine=400):
    """bmo_energy of a DefeaterTree's function at the midpoints of its
    deepest intervals; returns (midpoints, [BmoEnergy per midpoint]).

    The quadrature nodes are `grid` points on [0, 1], `refine` points
    across each deepest interval, and the midpoints themselves.
    """
    check_quadrature(grid, refine)
    a, b = tree.intervals(tree.depth)
    mids = (a + b) / 2.0
    pieces = [np.linspace(0.0, 1.0, grid)]
    pieces.extend(np.linspace(ai, bi, refine) for ai, bi in zip(a, b))
    pieces.append(mids)
    ts = np.sort(np.concatenate(pieces))
    ts = ts[np.append(True, ts[1:] != ts[:-1])]  # np.unique would import numpy.ma
    fs = tree.eval(ts)
    return mids, [bmo_energy(ts, fs, t0) for t0 in mids]


# ---------------------------------------------------------------------------
# Cantor constructions


def gen_cantor_segments(n_seq=None, depth=1, points_per_segment=64):
    """Tilted-segment refinement: level-k segments of slope r_k over a nested grid.

    Each level subdivides [0, 1] into N_k = n_1 * ... * n_k intervals of
    length r_k = 1/N_k; the segment over an interval starts on its parent
    segment and climbs with slope r_k.  Atoms sample the level-`depth`
    segments; each segment carries mass sqrt(2) * r_k (its parabolic
    diameter), totalling sqrt(2).
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_seq is None:
        n_seq = tuple(j + 1 for j in range(1, depth + 1))
    n_seq = [int(v) for v in n_seq]
    if len(n_seq) < depth:
        raise ValueError("n_seq shorter than depth")
    if any(v < 1 for v in n_seq) or any(b <= a for a, b in zip(n_seq, n_seq[1:])):
        raise ValueError("n_seq must be strictly increasing positive integers")
    pps = int(points_per_segment)
    _require("points_per_segment", pps, 1)

    xs = np.array([0.0])
    tls = np.array([0.0])
    r_prev = 1.0
    N = 1
    r_levels = []
    for k in range(1, depth + 1):
        n = n_seq[k - 1]
        N *= n
        r = 1.0 / N
        offs = np.arange(n) * r
        child_x = (xs[:, None] + offs[None, :]).ravel()
        if k == 1:
            child_t = np.zeros_like(child_x)
        else:
            child_t = (tls[:, None] + r_prev * offs[None, :]).ravel()
        xs, tls = child_x, child_t
        r_prev = r
        r_levels.append(r)

    r = r_levels[-1]
    u = (np.arange(pps) + 0.5) / pps * r
    X = (xs[:, None] + u[None, :]).ravel()
    T = (tls[:, None] + r * u[None, :]).ravel()
    w = np.full(X.shape, math.sqrt(2.0) * r / pps)
    mu = DiscreteMeasure(
        1,
        np.column_stack([X, T]),
        w,
        resolution_hint=r / math.sqrt(pps),
    )
    info = {
        "kind": "cantor_segments",
        "ground_truth": "Euclidean 1-rectifiable, parabolically purely unrectifiable",
        "expected_tangent": "none",
        "n_seq": n_seq[:depth],
        "depth": depth,
        "r_levels": r_levels,
        "segment_x": xs,
        "segment_t": tls,
        "segment_slope": r,
        "truncation_scale": r,
    }
    return mu, info


def gen_vertical_cantor(r_seq=None, depth=1, n_seq=None, rows=8, cols=2):
    """Vertically stacked Cantor rectangles with tangent on the t-axis.

    Level k replaces each side-r_k square by two rectangles of width r_{k+1}
    and height r_k/2 in opposite corners; each rectangle is then cut into
    n_k/2 stacked squares.  Atom weights equal the rectangle's t-extent
    divided per atom, so the t-projections tile [0, 1] and the total mass
    is 1.  Sample t-values are staggered across columns: atoms of one
    rectangle sharing an exact t would sit on the boundary of every cone
    around the t-axis.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rows = int(rows)
    cols = int(cols)
    _require("rows", rows, 1)
    _require("cols", cols, 1)
    if r_seq is None:
        if n_seq is None:
            n_seq = tuple(2 * k + 2 for k in range(1, depth + 1))
        r = [1.0]
        for nk in n_seq[:depth]:
            r.append(r[-1] / float(nk))
        r_seq = r
    r = np.asarray(r_seq, dtype=float)
    if len(r) < depth + 1:
        raise ValueError("r_seq must provide depth + 1 scales")
    if abs(r[0] - 1.0) > 1e-12:
        raise ValueError("r_1 must equal 1")
    ratio = r[:-1] / r[1:]
    nvals = np.rint(ratio).astype(int)
    if np.max(np.abs(ratio - nvals)) > 1e-9:
        raise ValueError("r_k / r_{k+1} must be integers")
    used = nvals[:depth]
    if np.any(used % 2 != 0) or np.any(np.diff(used) <= 0):
        raise ValueError("n_k must be even and strictly increasing")

    squares = [(0.0, 0.0)]
    rects = []
    for k in range(1, depth + 1):
        side = r[k - 1]
        width = r[k]
        rects = []
        for a, b in squares:
            rects.append((a, b))
            rects.append((a + side - width, b + side / 2.0))
        if k < depth:
            half = int(nvals[k - 1]) // 2
            squares = [(a, b + j * width) for a, b in rects for j in range(half)]

    W = float(r[depth])
    H = float(r[depth - 1]) / 2.0
    ra = np.asarray(rects)
    xoff = (np.arange(cols) + 0.5) * W / cols
    phase = (np.arange(cols) + 0.5) / cols
    toff = (np.arange(rows)[:, None] + phase[None, :]) * (H / rows)
    shape = (len(ra), rows, cols)
    X = np.broadcast_to(ra[:, 0][:, None, None] + xoff[None, None, :], shape).ravel()
    T = np.broadcast_to(ra[:, 1][:, None, None] + toff[None, :, :], shape).ravel()
    w = np.full(X.shape, H / (rows * cols))
    mu = DiscreteMeasure(
        1,
        np.column_stack([X, T]),
        w,
        resolution_hint=min(math.sqrt(H / rows), W / cols),
    )
    info = {
        "kind": "vertical_cantor",
        "ground_truth": "vertically parabolic 2-rectifiable, Euclidean purely 1-unrectifiable",
        "expected_tangent": "vertical",
        "n_seq": [int(v) for v in used],
        "r_seq": [float(v) for v in r[:depth + 1]],
        "depth": depth,
        "rect_corners": ra,
        "rect_width": W,
        "rect_height": H,
        "rows": rows,
        "cols": cols,
        "truncation_scale": math.sqrt(H / rows),
    }
    return mu, info


def gen_quartic_cantor(gap_seq=None, depth=8, kappa=12.0, kappa_growth=0.25):
    """Horizontal graph over a fat Cantor set with quartically shrunk image.

    Both the domain and the image are middle-gap Cantor sets; at every level
    the image interval length is the fourth power of the domain interval
    length, and children are flush with their parent's endpoints so the
    address map is exact at all sampled endpoints.  Default gaps are
    gap = min(1/2, kappa_j * len) * len with kappa_j = kappa * (1 +
    kappa_growth * j), which keeps the domain fat while the graph's local
    Lipschitz ratios decrease to zero.
    """
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dom_len = [1.0]
    dom_gaps = []
    for j in range(1, depth + 1):
        L = dom_len[-1]
        if gap_seq is not None:
            if len(gap_seq) < depth:
                raise ValueError("gap_seq shorter than depth")
            g = float(gap_seq[j - 1])
            if not 0.0 < g < L:
                raise ValueError(f"gap {g} does not fit in level {j - 1} length {L}")
        else:
            beta = min(0.5, kappa * (1.0 + kappa_growth * j) * L)
            g = beta * L
        dom_gaps.append(g)
        dom_len.append((L - g) / 2.0)
    img_len = [v ** 4 for v in dom_len]
    img_gaps = [img_len[j - 1] - 2.0 * img_len[j] for j in range(1, depth + 1)]

    dom_starts = np.array([0.0])
    img_starts = np.array([0.0])
    for j in range(1, depth + 1):
        dshift = dom_len[j - 1] - dom_len[j]
        ishift = img_len[j - 1] - img_len[j]
        dom_starts = np.column_stack([dom_starts, dom_starts + dshift]).ravel()
        img_starts = np.column_stack([img_starts, img_starts + ishift]).ravel()

    xs = np.column_stack([dom_starts, dom_starts + dom_len[depth]]).ravel()
    fv = np.column_stack([img_starts, img_starts + img_len[depth]]).ravel()
    w = np.full(xs.shape, dom_len[depth] / 2.0)
    # worst graph slope within a level-k piece: the closest pair across each
    # deeper gap
    level_ratios = []
    for k in range(depth):
        worst = dom_len[depth]
        for j in range(k + 1, depth + 1):
            if img_gaps[j - 1] > 0 and dom_gaps[j - 1] > 0:
                worst = max(worst, math.sqrt(img_gaps[j - 1]) / dom_gaps[j - 1])
        level_ratios.append(worst)
    mu = DiscreteMeasure(
        1,
        np.column_stack([xs, fv]),
        w,
        resolution_hint=min(dom_len[depth], dom_gaps[-1]),
    )
    info = {
        "kind": "quartic_cantor",
        "ground_truth": "horizontally parabolic 1-rectifiable",
        "expected_tangent": "horizontal",
        "depth": depth,
        "domain_measure": (2 ** depth) * dom_len[depth],
        "dom_lengths": dom_len,
        "img_lengths": img_len,
        "dom_gaps": dom_gaps,
        "img_gaps": img_gaps,
        "level_ratios": level_ratios,
        "truncation_scale": dom_len[depth],
    }
    return mu, info


# ---------------------------------------------------------------------------
# Flat planes and user graphs


def _axis_weights(grid):
    w = np.full(grid.shape, grid[1] - grid[0]) if len(grid) > 1 else np.ones(1)
    if len(grid) > 1:
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def _base_grid(V, extent, resolution, box=False):
    """Coefficient grids over V: horizontal steps `resolution`, t range extent^2."""
    grids = []
    weights = []
    for _ in range(V.k):
        half = int(round(extent / resolution))
        g = np.linspace(-extent, extent, 2 * half + 1)
        grids.append(g)
        weights.append(_axis_weights(g))
    if V.includes_t_axis:
        tex = extent ** 2
        half = int(round(tex / resolution))
        g = np.linspace(-tex, tex, max(2 * half + 1, 3))
        grids.append(g)
        weights.append(_axis_weights(g))
    mesh = np.meshgrid(*grids, indexing="ij") if grids else []
    cols = [m.ravel() for m in mesh]
    wmesh = np.meshgrid(*weights, indexing="ij") if weights else []
    wcol = np.ones(1) if not wmesh else np.prod(np.stack([m.ravel() for m in wmesh]), axis=0)
    if not cols:
        return np.zeros((1, 0)), wcol
    C = np.column_stack(cols)
    if not box:
        if V.includes_t_axis:
            mask = np.einsum("ij,ij->i", C[:, :-1], C[:, :-1]) + np.abs(C[:, -1]) <= extent ** 2 + 1e-12
        else:
            mask = np.einsum("ij,ij->i", C, C) <= extent ** 2 + 1e-12
        C = C[mask]
        wcol = wcol[mask]
    return C, wcol


def _assemble(V, C):
    n = V.n
    pts = np.zeros((C.shape[0], n + 1))
    if V.k:
        pts[:, :n] = C[:, :V.k] @ V.horiz_basis
    if V.includes_t_axis:
        pts[:, n] = C[:, -1]
    return pts


def gen_flat(V, extent=1.0, resolution=1e-3):
    """Uniform cloud on V intersected with the ball of radius `extent`.

    Weights are the product trapezoid rule on the coefficient grid, i.e.
    Lebesgue measure on the plane, which is the parabolic Hausdorff measure
    in the plane's homogeneous dimension.
    """
    _require("extent", extent, 0)
    C, w = _base_grid(V, extent, resolution, box=False)
    pts = _assemble(V, C)
    fam = "vertical" if V.includes_t_axis else "horizontal"
    mu = DiscreteMeasure(
        V.n,
        pts,
        w,
        resolution_hint=resolution if V.k else math.sqrt(resolution),
    )
    info = {
        "kind": "flat_plane",
        "ground_truth": f"flat {fam} plane of dimension {V.m}",
        "expected_tangent": fam,
        "plane": V.to_dict(),
        "extent": extent,
        "resolution": resolution,
        "truncation_scale": resolution,
    }
    return mu, info


def gen_graph(g, V, domain=1.0, resolution=1e-3, noise=0.0, seed=0):
    """Cloud {base + g(base)} over a coefficient box of V.

    `g` maps an (N, d) array of base coefficients (horizontal columns first,
    then t when V is vertical) to (N, c) complement coefficients (complement
    horizontal columns first, then t when V is horizontal).  Weights are the
    base cell measures.
    """
    _require("domain", domain, 0)
    C, w = _base_grid(V, domain, resolution, box=True)
    pts = _assemble(V, C)
    co = complement_plane(V)
    vals = np.asarray(g(C), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if noise:
        rng = np.random.default_rng(seed)
        vals = vals + noise * rng.standard_normal(vals.shape)
    expect = co.k + (1 if co.includes_t_axis else 0)
    if vals.shape != (C.shape[0], expect):
        raise ValueError(f"graph map returned shape {vals.shape}, expected ({C.shape[0]}, {expect})")
    if co.k:
        pts[:, :V.n] += vals[:, :co.k] @ co.horiz_basis
    if co.includes_t_axis:
        pts[:, V.n] += vals[:, -1]
    fam = "vertical" if V.includes_t_axis else "horizontal"
    mu = DiscreteMeasure(
        V.n,
        pts,
        w,
        resolution_hint=resolution if V.k else math.sqrt(resolution),
    )
    info = {
        "kind": "user_graph",
        "ground_truth": f"graph over a {fam} plane of dimension {V.m}",
        "expected_tangent": fam,
        "plane": V.to_dict(),
        "domain": domain,
        "resolution": resolution,
        "noise": noise,
        "truncation_scale": resolution,
    }
    return mu, info


# ---------------------------------------------------------------------------
# Dispatch


def _plane_from_params(value):
    if isinstance(value, HomPlane):
        return value
    if isinstance(value, dict) and "horiz_basis" in value:
        return HomPlane.from_dict(value)
    if isinstance(value, dict):
        n = int(value["n"])
        axes = tuple(int(a) for a in value.get("axes", ()))
        if value.get("t", False):
            return HomPlane.vertical_axes(n, axes)
        return HomPlane.horizontal_axes(n, axes)
    raise ValueError(f"cannot interpret plane spec {value!r}")


# what a user graph expression may contain besides number literals and
# the names x1..xk (and t over a vertical plane): these operators and
# calls np.<name>(...) of these ufuncs
_EXPR_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv, ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}
_EXPR_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_EXPR_UFUNCS = (
    "abs", "absolute", "arccos", "arcsin", "arctan", "arctan2", "cbrt", "ceil", "cos",
    "cosh", "exp", "expm1", "floor", "hypot", "log", "log10", "log1p", "log2", "maximum",
    "minimum", "sign", "sin", "sinh", "sqrt", "square", "tan", "tanh",
)


def _expr_compile(node, names, text):
    """The function of a name table that evaluates the parsed expression
    node; every node outside the whitelist raises ValueError here, before
    anything is evaluated."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return lambda ns, value=node.value: value
    if isinstance(node, ast.Name) and node.id in names:
        return lambda ns, name=node.id: ns[name]
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        op = _EXPR_BINOPS[type(node.op)]
        left = _expr_compile(node.left, names, text)
        right = _expr_compile(node.right, names, text)
        return lambda ns: op(left(ns), right(ns))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARY:
        op = _EXPR_UNARY[type(node.op)]
        operand = _expr_compile(node.operand, names, text)
        return lambda ns: op(operand(ns))
    f = getattr(node, "func", None)
    if (isinstance(node, ast.Call) and not node.keywords and isinstance(f, ast.Attribute)
            and isinstance(f.value, ast.Name) and f.value.id == "np"
            and f.attr in _EXPR_UFUNCS):
        ufunc = getattr(np, f.attr)
        args = [_expr_compile(a, names, text) for a in node.args]
        return lambda ns: ufunc(*(a(ns) for a in args))
    raise ValueError(f"expression {text!r}: {ast.unparse(node)} is not allowed (use numbers, "
                     "x1..xk, t over a vertical plane, + - * / // % ** and np.<ufunc>(...))")


def _expr_graph(exprs, dims_in, has_t):
    """The graph map of the expressions over base coordinates x1..xk,
    plus t when the base plane contains the time axis (its last column)."""
    if isinstance(exprs, str):
        exprs = [exprs]
    names = {f"x{i + 1}" for i in range(dims_in)} | ({"t"} if has_t else set())
    funcs = []
    for text in exprs:
        try:
            tree = ast.parse(text.strip(), mode="eval")
        except SyntaxError as exc:
            raise ValueError(f"expression {text!r}: {exc.msg}") from None
        funcs.append(_expr_compile(tree.body, names, text))

    def g(C):
        ns = {"t": C[:, -1]} if has_t else {}
        for i in range(dims_in):
            ns[f"x{i + 1}"] = C[:, i]
        # a non-finite value is refused as a point, not warned about
        with np.errstate(all="ignore"):
            cols = [np.broadcast_to(np.asarray(f(ns), dtype=float), (C.shape[0],)) for f in funcs]
        return np.column_stack(cols)

    return g


# kind -> builder; generate() passes a spec's params to the builder as
# keywords, except that a plane spec reaches V, an expression list
# reaches g as its graph map, and the spec's seed reaches seed
GENERATORS = {
    "flat_plane": gen_flat,
    "user_graph": gen_graph,
    "weierstrass_graph": gen_weierstrass_graph,
    "regular_defeater": gen_regular_defeater,
    "cantor_segments": gen_cantor_segments,
    "vertical_cantor": gen_vertical_cantor,
    "quartic_cantor": gen_quartic_cantor,
}
GENERATOR_KINDS = tuple(GENERATORS)


def generate(spec):
    """Build the cloud described by a GeneratorSpec; returns (measure, info).

    info embeds the recipe and all measured constants; use sidecar_payload()
    for the JSON sidecar.
    """
    if isinstance(spec, dict):
        spec = GeneratorSpec(**spec)
    build = GENERATORS[spec.kind]
    takes = inspect.signature(build).parameters
    p = dict(spec.params)
    if "V" in takes:
        p["V"] = _plane_from_params(p.pop("plane"))
    if "g" in takes:
        p["g"] = _expr_graph(p.pop("expr"), p["V"].k, p["V"].includes_t_axis)
    if "seed" in takes:
        p["seed"] = spec.seed
    mu, info = build(**p)
    if "g" in takes:
        info["expr"] = spec.params["expr"]
    return mu, {"spec": spec.to_dict(), **info}

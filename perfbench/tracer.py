"""Span tracer installed from outside the package.

install() replaces every public function of the parabgmt modules in each
module namespace that holds it (so `from .measure import greedy_cover`
in cli.py is traced too), and patches GridIndex.__init__/query and
DiscreteMeasure.resolution.  Each call opens a span on a per-thread
stack; a span's self time is its duration minus the durations of its
direct child spans.  Counters that the layer metrics need are read from
call arguments and results.  uninstall() puts every original back, and
layer_metrics() turns the stats of two traced passes into the per-layer
metrics that BENCHMARK.json lists.
"""

import functools
import importlib
import inspect
import math
import sys
import threading
import time
from collections import defaultdict

# layers are the modules; GridIndex lives in _index and is reported as "index"
MODULES = ("geometry", "measure", "rectify", "generators", "cli")
METHODS = (
    ("_index", "GridIndex", "__init__", "index.build"),
    ("_index", "GridIndex", "query", "index.query"),
    ("measure", "DiscreteMeasure", "resolution", "measure.resolution"),
)


def _rows(points):
    return len(getattr(points, "points", points))


def _arg(args, kwargs, index, name):
    """A call argument, passed by position or by keyword."""
    return args[index] if len(args) > index else kwargs[name]


# span name -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "generators.generate": lambda a, k, res: {"generators.atoms": res[0].natoms},
    "measure.load_cloud_csv": lambda a, k, res: {"measure.csv_rows_read": res.natoms},
    "measure.save_cloud_csv": lambda a, k, res: {
        "measure.csv_rows_written": _arg(a, k, 0, "mu").natoms},
    "measure.greedy_cover": lambda a, k, res: {"measure.cover_centers": len(res)},
    "index.build": lambda a, k, res: {"index.points_indexed": _rows(_arg(a, k, 1, "pts"))},
    "index.query": lambda a, k, res: {"index.hits": len(res)},
    "rectify.classify_points": lambda a, k, res: {"rectify.points_classified": len(res.results)},
    # unordered pairs N (N - 1) / 2 of the N points checked
    "geometry.graph_cone_check": lambda a, k, res: {
        "geometry.cone_pairs": math.comb(_rows(_arg(a, k, 0, "points")), 2)},
}


class Stats:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.lock = threading.Lock()

    def counts(self):
        """Every exact count: calls per span and the named counters."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.counters)
        return dict(sorted(out.items()))


class Tracer:
    def __init__(self):
        self.stats = Stats()
        self._tls = threading.local()
        self._undo = []

    def reset(self):
        self.stats = Stats()

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        tls = self._tls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                st = self.stats
                with st.lock:
                    st.calls[name] += 1
                    st.incl_s[name] += dt
                    st.self_s[name] += dt - children
            if count is not None:
                incs = count(args, kwargs, result)
                with self.stats.lock:
                    for key, inc in incs.items():
                        self.stats.counters[key] += inc
            return result

        return traced

    def install(self):
        pkg = "parabgmt"
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"{pkg}.{short}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                originals[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        namespaces = [m for n, m in sys.modules.items() if n == pkg or n.startswith(pkg + ".")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, obj))
        for short, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"{pkg}.{short}"), cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(orig, name))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        while self._undo:
            ns, attr, obj = self._undo.pop()
            setattr(ns, attr, obj)


# metric -> (statistic, span or counter); "self" is the span's own time,
# "incl" includes its traced callees
LAYERS = (
    ("cli.main_self_s", "self", "cli.main"),
    ("generators.generate_s", "incl", "generators.generate"),
    ("generators.atoms", "counter", "generators.atoms"),
    ("generators.bmo_energy_s", "self", "generators.bmo_energy"),
    ("generators.bmo_energy.calls", "calls", "generators.bmo_energy"),
    ("measure.load_cloud_csv_s", "self", "measure.load_cloud_csv"),
    ("measure.csv_rows_read", "counter", "measure.csv_rows_read"),
    ("measure.save_cloud_csv_s", "self", "measure.save_cloud_csv"),
    ("measure.csv_rows_written", "counter", "measure.csv_rows_written"),
    ("measure.resolution_s", "self", "measure.resolution"),
    ("measure.resolution.calls", "calls", "measure.resolution"),
    ("measure.greedy_cover_s", "self", "measure.greedy_cover"),
    ("measure.greedy_cover.calls", "calls", "measure.greedy_cover"),
    ("measure.cover_centers", "counter", "measure.cover_centers"),
    ("measure.flat_constant_estimate_s", "self", "measure.flat_constant_estimate"),
    ("measure.density_profile_s", "self", "measure.density_profile"),
    ("measure.lip_image_cover_sum_s", "self", "measure.lip_image_cover_sum"),
    ("index.build_s", "self", "index.build"),
    ("index.builds", "calls", "index.build"),
    ("index.points_indexed", "counter", "index.points_indexed"),
    ("index.query_s", "self", "index.query"),
    ("index.queries", "calls", "index.query"),
    ("index.hits", "counter", "index.hits"),
    ("rectify.classify_points_s", "incl", "rectify.classify_points"),
    ("rectify.points_classified", "counter", "rectify.points_classified"),
    ("rectify.detect_tangent_s", "self", "rectify.detect_tangent"),
    ("rectify.detect_tangent.calls", "calls", "rectify.detect_tangent"),
    ("rectify.blowup_measure_s", "self", "rectify.blowup_measure"),
    ("rectify.tangent_uniqueness_scan_s", "incl", "rectify.tangent_uniqueness_scan"),
    ("rectify.flatness_defect.calls", "calls", "rectify.flatness_defect"),
    ("rectify.fit_differential_s", "self", "rectify.fit_differential"),
    ("geometry.dist_to_plane_rows_s", "self", "geometry.dist_to_plane_rows"),
    ("geometry.dist_to_plane_rows.calls", "calls", "geometry.dist_to_plane_rows"),
    ("geometry.sample_planes_s", "self", "geometry.sample_planes"),
    ("geometry.dist_rows_s", "self", "geometry.dist_rows"),
    ("geometry.dist_rows.calls", "calls", "geometry.dist_rows"),
    ("geometry.graph_cone_check_s", "self", "geometry.graph_cone_check"),
    ("geometry.cone_pairs", "counter", "geometry.cone_pairs"),
    ("geometry.graph_extract_s", "incl", "geometry.graph_extract"),
)


def layer_metrics(stats, scale):
    """Per-layer metrics from two traced passes: times are the passes'
    mean, calibrated by `scale`; counts are the first pass's."""
    out = {}
    for metric, stat, key in LAYERS:
        if stat == "counter":
            out[metric] = (stats[0].counters.get(key, 0), "count")
        elif stat == "calls":
            out[metric] = (stats[0].calls.get(key, 0), "count")
        else:
            field = "self_s" if stat == "self" else "incl_s"
            mean = sum(getattr(s, field).get(key, 0.0) for s in stats) / len(stats)
            out[metric] = (mean * scale, "s")
    queries = out["index.queries"][0]
    out["index.hits_per_query"] = (out["index.hits"][0] / queries if queries else 0.0, "ratio")
    return out

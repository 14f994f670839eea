"""The regular-graph defeater: locally graph-like at every level, yet
with divergent singular energy.

Each level picks an equal-value pair inside every third of the previous
intervals and rescales the profile by L_k / L_{k-1} between them.  The
result certifies as an L_k-graph on every level-k piece, but the
quadratic singular integral sum |f(t0) - f(u)|^2 / |t0 - u|^2 du grows
past the partial sums of L_k^2 / 16, so no single Lipschitz graph can
capture the set: graph-like at all scales is weaker than rectifiable.
"""

import numpy as np

from parabgmt.generators import defeater_energies, gen_regular_defeater
from parabgmt.geometry import HomPlane, graph_cone_check

mu, info = gen_regular_defeater(depth=4, c0=0.33, K=48, resolution=1e-3,
                                window_samples=1000, atoms_per_interval=120)
tree = info["tree"]
print(f"depth {tree.depth}, rescaling schedule L_k = {np.round(info['L_seq'], 4)}")

print()
print("== per-level graph certification ==")
Vt = HomPlane.t_axis(1)
for k in range(1, tree.depth + 1):
    a, b = tree.intervals(k)
    lev = tree.levels[k]
    s = tree.L_full[k] + 0.01
    bad = 0
    for j in range(len(a)):
        tt = np.linspace(a[j], b[j], 200)
        ff = lev["alpha"][j] * tree.f0(tt) + lev["beta"][j] + lev["gamma"][j] * tt
        bad += bool(graph_cone_check(np.column_stack([ff, tt]), Vt, s))
    print(f"level {k}: {len(a)} pieces certify at aperture {s:.3f}, {bad} failures")

print()
print("== singular energy at the deep interval midpoints ==")
_, energies = defeater_energies(tree, grid=8001, refine=300)
totals = [e.total for e in energies]
threshold = sum(v * v for v in info["L_seq"]) / 16.0
print(f"partial-sum threshold sum L_k^2 / 16 = {threshold:.4f}")
print(f"energies: min {min(totals):.3f}, max {max(totals):.3f} over {len(totals)} points")
print(f"all exceed the threshold: {min(totals) > threshold}")

"""Approximate tangent planes by multi-scale cone defect minimization.

For each sampled point the detector scores every axis-aligned plane, and
the planes fitted to the point's own ball, by the worst mass fraction
outside shrinking cones, across a grid of apertures and radii.  Flat
clouds classify perfectly; a tilted graph recovers its exact tangent
direction.
"""

import math

import numpy as np

from parabgmt.generators import gen_flat, gen_graph
from parabgmt.geometry import HomPlane, plane_distance
from parabgmt.rectify import (
    TangentConfig,
    blowup_measure,
    classify_points,
    detect_tangent,
    flatness_defect,
    tangent_uniqueness_scan,
)

print("== a flat horizontal line ==")
mu, _ = gen_flat(HomPlane.horizontal_axes(1, (0,)), extent=1.0, resolution=2e-3)
rep = classify_points(mu, TangentConfig(m=1, sample_size=40))
print("fractions:", rep.fractions)

print()
print("== a tilted graph y = 0.1 x inside P^2 ==")
V = HomPlane.horizontal_axes(2, (0,))
mu, _ = gen_graph(lambda C: np.column_stack([0.1 * C[:, 0], np.zeros(len(C))]),
                  V, resolution=2e-3)
truth = HomPlane(2, np.array([[1.0, 0.1]]) / math.sqrt(1.01), False)
res = detect_tangent(mu, np.zeros(3), TangentConfig(m=1, s_list=(0.1, 0.05, 0.02)))
print(f"class={res.classification}, defect={res.min_defect:.2e}, "
      f"distance to the true direction {plane_distance(res.best_plane, truth):.4f}")

print()
print("== blow-up and flatness ==")
nu = blowup_measure(mu, np.zeros(3), 0.25)
best, defect = flatness_defect(nu, 1)
print(f"zoomed by 4x: flatness defect {defect:.3f} against a {best.family} plane")

print()
print("== tangent uniqueness across scales ==")
scan = tangent_uniqueness_scan(mu, np.zeros(3), (0.4, 0.2, 0.1), 1)
print(f"plane spread over scales: {scan.spread:.2e}  (0 means a unique tangent)")
print(f"max defect: {scan.max_defect:.2e}")

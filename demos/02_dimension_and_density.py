"""Box-counting dimension, density profiles, and flat-measure constants.

Because time scales quadratically, a unit square of R^2 viewed inside the
parabolic plane has dimension 3, the t axis has dimension 2, and a
horizontal segment keeps dimension 1.  The greedy-cover estimator
recovers all three from finite clouds.
"""

import numpy as np

from parabgmt.generators import gen_flat
from parabgmt.geometry import HomPlane
from parabgmt.measure import (
    default_scales,
    density_profile,
    dimension_fit,
    flat_constant_estimate,
)

rng = np.random.default_rng(1)

print("== box-counting dimensions ==")
square = rng.random((200000, 2))
rep = dimension_fit(square, (0.21, 0.17, 0.12, 0.105))
print(f"unit square:        {rep.fitted_dim:.3f}   (expect 3, counts {rep.counts})")

grid = np.arange(0.0, 1.0005, 1e-3)
rep = dimension_fit(np.column_stack([np.zeros(grid.size), grid]),
                    (0.2, 0.14, 0.1, 0.07, 0.05))
print(f"t-axis segment:     {rep.fitted_dim:.3f}   (expect 2)")

rep = dimension_fit(np.column_stack([grid, np.zeros(grid.size)]),
                    (0.06, 0.04, 0.03, 0.02))
print(f"horizontal segment: {rep.fitted_dim:.3f}   (expect 1)")

print()
print("== scale schedules ==")
print("default_scales(1e-3, count=4) =", default_scales(1e-3, count=4))

print()
print("== density of a flat line ==")
mu, _ = gen_flat(HomPlane.horizontal_axes(1, (0,)), extent=1.0, resolution=1e-3)
prof = density_profile(mu, np.zeros(2), 1.0, (0.4, 0.2, 0.1, 0.05))
print("(2r)^-1 mu(B(0, r)) per scale:", [round(v, 4) for v in prof.values])
print("a line is 1-uniform: every value sits at 1")

print()
print("== flat-measure constants p(V) with H^m(V cap B(0,r)) = p(V) r^m ==")
for n, m, family in ((1, 1, "horizontal"), (2, 2, "horizontal"), (1, 2, "vertical"),
                     (2, 3, "vertical")):
    est = flat_constant_estimate(n, m, family)
    print(f"  {family:10s} n={n} m={m}: {est.value:.4f}   "
          f"(horizontal planes give 2^m, vertical ones 2^(m-1))")

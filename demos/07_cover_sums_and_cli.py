"""Covering sums for Lipschitz images, and driving everything from the
command line.

A map from R^{n+1} into the parabolic plane can lower dimension: the
identity embedding of the unit square is a Lipschitz image whose
covering sums at exponent n + 1 keep halving under refinement, the
signature of a null (n+1)-measure image.
"""

import subprocess
import sys

import numpy as np

from parabgmt.measure import GridMap, lip_image_cover_sum

print("== covering sums of the identity square ==")
ax = np.linspace(0.0, 1.0, 129)
gm = GridMap(np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1), (0.0, 1.0))
prev = None
for N in (4, 16, 64):
    res = lip_image_cover_sum(gm, N)
    ratio = "" if prev is None else f"   ratio {res.value / prev:.4f}"
    print(f"N={N:3d}: sum = {res.value:.5f}{ratio}")
    prev = res.value
print("each refinement roughly halves the sum, so the image is 2-null")
print(f"fine-scale Lipschitz estimate flagged: {res.flagged} "
      "(the embedding is not Lipschitz at fine parabolic scales)")

print()
print("== the same toolkit from the command line ==")
cmds = [
    ["generate", "--kind", "quartic_cantor", "--depth", "10", "-o", "demo_cloud.csv"],
    ["dim", "-i", "demo_cloud.csv", "--scales", "4"],
    ["verify", "--suite", "geometry", "--cases", "500"],
]
for cmd in cmds:
    print(f"\n$ parabgmt {' '.join(cmd)}")
    out = subprocess.run([sys.executable, "-m", "parabgmt.cli"] + cmd,
                         capture_output=True, text=True, check=True)
    head = out.stdout.strip().splitlines()
    print("\n".join(head[:12] + (["  ..."] if len(head) > 12 else [])))

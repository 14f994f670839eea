"""Certification calls a library user makes, run as one script.

    python3 perfbench/certify_lib.py --tilted T.csv --quartic Q.csv --seed N -o OUT.json

with PYTHONPATH pointing at the package sources.  It loads two generated
graph clouds and runs graph_extract, graph_cone_check,
lip_image_cover_sum, tangent_uniqueness_scan and fit_differential, then
writes one JSON report.  check_report() compares a report with the known
answers.
"""

import argparse
import json
import math
import sys

import numpy as np

# the tilted graph x2 = 0.1 x1 over the x1 axis of P^2 certifies just above its slope
TILTED_S = 0.11
# the quartic graph's steepest level ratio is 1.992, which needs s >= 0.894
QUARTIC_S = 0.9
# cover sums of the identity map of the unit square at N = 4, 16, 64
COVER_SUMS = (6.0, 3.125, 1.40625)
SCAN_SCALES = (0.4, 0.2, 0.1)
FIT_SCALES = (2e-4, 2e-5, 5e-6)


def run(tilted_csv, quartic_csv, seed):
    # imported here so that check_report needs no package, and so that a
    # tracer that patches the package's modules sees these calls
    from parabgmt.geometry import GraphSamples, HomPlane, graph_cone_check, graph_extract
    from parabgmt.measure import GridMap, lip_image_cover_sum, load_cloud_csv
    from parabgmt.rectify import FitConfig, fit_differential, tangent_uniqueness_scan

    rng = np.random.default_rng(seed)
    tilted = load_cloud_csv(tilted_csv)
    quartic = load_cloud_csv(quartic_csv)

    ex = graph_extract(tilted.points, HomPlane.horizontal_axes(2, (0,)), TILTED_S)
    line = HomPlane.horizontal_axes(1, (0,))
    violations = graph_cone_check(quartic.points, line, QUARTIC_S)

    ax = np.linspace(0.0, 1.0, 129)
    gm = GridMap(np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1), (0.0, 1.0))
    sums = [lip_image_cover_sum(gm, N).value for N in (4, 16, 64)]

    # interior atoms, so every blow-up ball stays inside the sampled patch
    inner = np.nonzero(np.abs(tilted.points[:, 0]) <= 0.5)[0]
    scans = [
        tangent_uniqueness_scan(tilted, tilted.points[i], SCAN_SCALES, 1)
        for i in np.sort(rng.choice(inner, size=8, replace=False))
    ]

    graph = GraphSamples.from_points(quartic.points, line)
    picks = np.sort(rng.choice(quartic.natoms, size=400, replace=False))
    fits = [fit_differential(graph, int(i), FitConfig(scales=FIT_SCALES)) for i in picks]

    return {
        "tilted_natoms": tilted.natoms,
        "quartic_natoms": quartic.natoms,
        "extract": {"s": TILTED_S, "lipschitz_bound": ex.lipschitz_bound,
                    "empirical_ratio": ex.empirical_ratio},
        "cone_check": {"s": QUARTIC_S, "violations": len(violations)},
        "cover_sums": sums,
        "scans": [{"spread": sc.spread, "max_defect": sc.max_defect} for sc in scans],
        "fits": {"points": len(fits),
                 "differentiable": sum(f.verdict == "differentiable" for f in fits)},
    }


def check_report(rep):
    """None when the report holds the known answers, else the first miss."""
    ex = rep["extract"]
    bound = TILTED_S / math.sqrt(1.0 - TILTED_S * TILTED_S)
    fits = rep["fits"]
    checks = [
        (rep["tilted_natoms"] == 4001 and rep["quartic_natoms"] == 4096, "wrong atom counts"),
        (abs(ex["lipschitz_bound"] - bound) <= 1e-12,
         f"graph_extract bound {ex['lipschitz_bound']} != {bound}"),
        (abs(ex["empirical_ratio"] - 0.1) <= 1e-9,
         f"graph_extract ratio {ex['empirical_ratio']} != slope 0.1"),
        (rep["cone_check"]["violations"] == 0,
         f"quartic graph: {rep['cone_check']['violations']} cone violations at s = {QUARTIC_S}"),
        (all(abs(a - b) <= 1e-12 * b for a, b in zip(rep["cover_sums"], COVER_SUMS)),
         f"cover sums {rep['cover_sums']} != {list(COVER_SUMS)}"),
        (all(sc["spread"] <= 0.05 and sc["max_defect"] <= 0.05 for sc in rep["scans"]),
         "tilted plane: tangent scan not unique and flat"),
        (fits["differentiable"] >= 0.75 * fits["points"],
         f"quartic graph: only {fits['differentiable']}/{fits['points']} fits differentiable"),
    ]
    for ok, why in checks:
        if not ok:
            return "certify: " + why
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tilted", required=True)
    ap.add_argument("--quartic", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", required=True)
    args = ap.parse_args(argv)
    rep = run(args.tilted, args.quartic, args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(rep, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workload definitions: set-up commands, timed commands and their checks.

A command is one fresh process, either the `parabgmt` CLI or the
benchmark's own certify script.  Every command names the report files
it writes and a check that reads them; a check returns None when the
output holds its known result, else a one-line reason.

All paths are relative to the run's work directory, so reports echo the
same paths in every run and can be compared byte for byte.
"""

import json
import math
import random
from pathlib import Path


class Cmd:
    """One command: CLI argv (or certify-script argv), outputs, check."""

    def __init__(self, name, argv, outputs, check, script=None, threads_pass=False):
        self.name = name
        self.argv = list(argv)
        self.outputs = list(outputs)
        self.check = check
        self.script = script  # None for the CLI, else a module under perfbench/
        self.threads_pass = threads_pass


def _report(workdir, path):
    return json.loads((Path(workdir) / path).read_text(encoding="utf-8"))


def _first_fail(pairs):
    for ok, why in pairs:
        if not ok:
            return why
    return None


# ---------------------------------------------------------------------------
# Set-up: generated clouds, each checked for its atom count


def _gen(name, kind, natoms, *params):
    csv = f"{name}.csv"

    def check(workdir, stdout):
        res = _report(workdir, f"{name}.json")["result"]["cloud"]
        return _first_fail([(res["natoms"] == natoms,
                             f"{name}: {res['natoms']} atoms, expected {natoms}")])

    argv = ["generate", "--kind", kind, *params, "-o", csv]
    return Cmd(f"generate {name}", argv, [csv, f"{name}.json"], check)


def _check_version(workdir, stdout):
    return None if stdout.startswith("parabgmt ") else f"unexpected --version output {stdout!r}"


SETUP = {
    "cover": [
        _gen("weier", "weierstrass_graph", 50001,
             "--c0", "1.0", "--K", "50", "--resolution", "2e-5"),
        _gen("cantor", "cantor_segments", 72000,
             "--n-seq", "2,3,4,30", "--depth", "4", "--points-per-segment", "100"),
    ],
    "tangent": [
        _gen("flat", "flat_plane", 6677,
             "--n", "2", "--axes", "0", "--t-axis", "true", "--resolution", "2e-2"),
        _gen("tilted", "user_graph", 1001,
             "--n", "2", "--axes", "0", "--expr", "0.1*x1;0", "--resolution", "2e-3"),
        _gen("vcantor", "vertical_cantor", 98304,
             "--depth", "5", "--n-seq", "2,4,6,8,10", "--rows", "64"),
    ],
    "packing": [Cmd("version", ["--version"], [], _check_version)],
    "certify": [
        _gen("quartic", "quartic_cantor", 4096, "--depth", "11"),
        _gen("tilted4k", "user_graph", 4001,
             "--n", "2", "--axes", "0", "--expr", "0.1*x1;0", "--resolution", "5e-4"),
    ],
}


# ---------------------------------------------------------------------------
# Timed commands


def _check_dim(path, natoms, lo, hi):
    def check(workdir, stdout):
        res = _report(workdir, path)["result"]
        counts = res["counts"]
        return _first_fail([
            (res["natoms"] == natoms, f"{path}: {res['natoms']} atoms, expected {natoms}"),
            (all(b >= a for a, b in zip(counts, counts[1:])),
             f"{path}: cover counts {counts} decrease as r shrinks"),
            (lo <= res["fitted_dim"] <= hi,
             f"{path}: fitted dimension {res['fitted_dim']} outside [{lo}, {hi}]"),
        ])
    return check


def _check_density(workdir, stdout):
    res = _report(workdir, "density.json")["result"]
    vals = res["values"]
    return _first_fail([
        (res["natoms"] == 50001, "density: wrong atom count"),
        (len(vals) == 5 and all(math.isfinite(v) and v > 0.0 for v in vals),
         f"density: values {vals} not all positive at an atom"),
        (res["lower"] <= res["upper"], "density: lower above upper"),
    ])


def _check_blowup(workdir, stdout):
    res = _report(workdir, "blowup.json")["result"]
    cloud = res["cloud"]
    rows = (Path(workdir) / "blowup.csv").read_text(encoding="utf-8").count("\n") - 1
    return _first_fail([
        (res["source_natoms"] == 50001, "blowup: wrong source atom count"),
        (cloud["natoms"] >= 1 and rows == cloud["natoms"],
         f"blowup: {cloud['natoms']} atoms reported, {rows} rows written"),
        (abs(cloud["total_mass"] - 1.0) <= 1e-9, "blowup: mass-normalized total is not 1"),
    ])


def _check_tangent(path, natoms, expect=None):
    def check(workdir, stdout):
        res = _report(workdir, path)["result"]
        fr = res["fractions"]
        pairs = [
            (res["natoms"] == natoms, f"{path}: {res['natoms']} atoms, expected {natoms}"),
            (abs(sum(fr.values()) - 1.0) <= 1e-9, f"{path}: fractions {fr} do not sum to 1"),
        ]
        if expect is not None:
            pairs.append((fr[expect] == 1.0, f"{path}: {expect} fraction {fr[expect]}, expected 1.0"))
        return _first_fail(pairs)
    return check


def _check_curves(workdir, stdout):
    lines = (Path(workdir) / "tilted_curves.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "point_index,r,s,defect" or len(lines) < 2:
        return "tilted_curves.csv: missing header or rows"
    return _check_tangent("tan_tilted.json", 1001, "horizontal")(workdir, stdout)


def _check_vconst(path, lo, hi):
    def check(workdir, stdout):
        value = _report(workdir, path)["result"]["value"]
        return None if lo <= value <= hi else f"{path}: constant {value} outside [{lo}, {hi}]"
    return check


def _check_verify(workdir, stdout):
    res = _report(workdir, "verify.json")["result"]
    return None if res["passed"] and not res["violations"] else "verify: violations reported"


def _check_bmo(workdir, stdout):
    res = _report(workdir, "bmo.json")["result"]
    return None if res["all_exceed"] is True else "defeater-bmo: all_exceed is not true"


def _check_certify(workdir, stdout):
    from certify_lib import check_report

    return check_report(_report(workdir, "certify.json"))


def _atom_point(workdir, csv, rng):
    """Coordinates of one atom of a cloud CSV, as written (exact floats)."""
    lines = (Path(workdir) / csv).read_text(encoding="utf-8").splitlines()
    fields = lines[1 + rng.randrange(len(lines) - 1)].split(",")
    return ",".join(fields[:-1])


def timed(workload, workdir, seed):
    """The timed command list of a workload; inputs must exist already."""
    seed %= 2**32  # numpy seeds, as verify and the certify script use, are >= 0
    rng = random.Random(seed)
    if workload == "cover":
        point = _atom_point(workdir, "weier.csv", rng)
        # dimension bands: the rough graph is about 2-dimensional in the
        # parabolic metric and below 1.6 in the euclidean one (as in
        # tests/test_acceptance.py::test_03); the Cantor segment set lies
        # between its Cantor-scale and segment dimensions at these scales
        return [
            Cmd("dim weier parabolic",
                ["dim", "-i", "weier.csv", "--scales", "5", "-o", "dim_weier.json"],
                ["dim_weier.json"], _check_dim("dim_weier.json", 50001, 1.75, 2.15)),
            Cmd("dim weier euclidean",
                ["dim", "-i", "weier.csv", "--scales", "5", "--metric", "euclidean",
                 "-o", "dim_weier_e.json"],
                ["dim_weier_e.json"], _check_dim("dim_weier_e.json", 50001, 1.2, 1.6)),
            Cmd("dim cantor",
                ["dim", "-i", "cantor.csv", "--scales", "5", "-o", "dim_cantor.json"],
                ["dim_cantor.json"], _check_dim("dim_cantor.json", 72000, 0.6, 1.1)),
            Cmd("density",
                ["density", "-i", "weier.csv", f"--point={point}", "--s", "2",
                 "--scales", "5", "-o", "density.json"],
                ["density.json"], _check_density),
            Cmd("blowup",
                ["blowup", "-i", "weier.csv", f"--point={point}", "--r", "0.05",
                 "-o", "blowup.csv"],
                ["blowup.csv", "blowup.json"], _check_blowup),
        ]
    if workload == "tangent":
        # the commands keep tangent's default --seed 0: under other seeds the
        # 64 sampled planes can miss the tilted plane at s <= 0.05, and every
        # tilted-graph point then classifies as "none" (seed 205 does this)
        return [
            Cmd("tangent flat",
                ["tangent", "-i", "flat.csv", "--m", "3", "--sample-size", "300",
                 "-o", "tan_flat.json"],
                ["tan_flat.json"], _check_tangent("tan_flat.json", 6677, "vertical"),
                threads_pass=True),
            Cmd("tangent tilted",
                ["tangent", "-i", "tilted.csv", "--m", "1", "--s-list", "0.1,0.05,0.02",
                 "--curves-csv", "tilted_curves.csv", "-o", "tan_tilted.json"],
                ["tan_tilted.json", "tilted_curves.csv"], _check_curves, threads_pass=True),
            Cmd("tangent vcantor",
                ["tangent", "-i", "vcantor.csv", "--m", "2", "--sample-size", "100",
                 "-o", "tan_vcantor.json"],
                ["tan_vcantor.json"], _check_tangent("tan_vcantor.json", 98304),
                threads_pass=True),
        ]
    if workload == "packing":
        # bands of tests/test_acceptance.py::test_04
        return [
            Cmd("vconst 3 4 vertical",
                ["vconst", "--n", "3", "--m", "4", "--family", "vertical", "-o", "v34.json"],
                ["v34.json"], _check_vconst("v34.json", 1.0, 16.0)),
            Cmd("vconst 2 3 vertical",
                ["vconst", "--n", "2", "--m", "3", "--family", "vertical", "-o", "v23.json"],
                ["v23.json"], _check_vconst("v23.json", 1.0, 8.0)),
            Cmd("vconst 2 2",
                ["vconst", "--n", "2", "--m", "2", "-o", "h22.json"],
                ["h22.json"], _check_vconst("h22.json", 3.8, 4.2)),
            Cmd("vconst 1 1",
                ["vconst", "--n", "1", "--m", "1", "-o", "h11.json"],
                ["h11.json"], _check_vconst("h11.json", 1.9, 2.1)),
        ]
    if workload == "certify":
        return [
            Cmd("certify script",
                ["--tilted", "tilted4k.csv", "--quartic", "quartic.csv",
                 "--seed", str(seed), "-o", "certify.json"],
                ["certify.json"], _check_certify, script="certify_lib"),
            Cmd("verify",
                ["verify", "--suite", "all", "--seed", str(seed), "-o", "verify.json"],
                ["verify.json"], _check_verify),
            Cmd("defeater-bmo",
                ["defeater-bmo", "--depth", "4", "-o", "bmo.json"],
                ["bmo.json"], _check_bmo),
        ]
    raise KeyError(workload)


WORKLOADS = tuple(SETUP)

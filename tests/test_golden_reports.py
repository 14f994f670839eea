"""Golden outputs: the bytes of CLI reports, sidecars and CSVs, and the
to_dict() of every result record, compared with the files in tests/golden/.

The commands run in-process through cli.main inside a fresh directory,
so every path embedded in a report is relative.  The goldens hold the
numbers of one machine; after an intended output change, rewrite them
with

    PYTHONPATH=src python tests/test_golden_reports.py

and name the changed outputs in CHANGES.md.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from parabgmt import cli, geometry
from parabgmt.generators import GeneratorSpec, bmo_energy, gen_flat, gen_quartic_cantor
from parabgmt.geometry import (
    GraphSamples,
    HomPlane,
    graph_extract,
)
from parabgmt.measure import (
    GridMap,
    density_profile,
    dimension_fit,
    flat_constant_estimate,
    lip_image_cover_sum,
)
from parabgmt.rectify import (
    FitConfig,
    TangentConfig,
    classify_points,
    fit_differential,
    tangent_uniqueness_scan,
)

GOLDEN = Path(__file__).parent / "golden"

# (step name, argv); each step also records its stdout and exit code
COMMANDS = [
    ("gen_cantor", ["generate", "--kind", "cantor_segments", "--depth", "2",
                    "--n-seq", "2,3", "--points-per-segment", "16", "-o", "cantor.csv"]),
    ("gen_tilted", ["generate", "--kind", "user_graph", "--n", "2", "--axes", "0",
                    "--expr", "0.1*x1;0", "--resolution", "0.01", "-o", "tilted.csv"]),
    ("gen_line", ["generate", "--kind", "user_graph", "--n", "1", "--axes", "0",
                  "--expr", "0.1*x1", "--resolution", "0.01", "-o", "line.csv"]),
    ("gen_zero", ["generate", "--kind", "user_graph", "--n", "1", "--axes", "0",
                  "--expr", "0", "--resolution", "0.01", "-o", "zero.csv"]),
    ("gen_zero_x1", ["generate", "--kind", "user_graph", "--n", "1", "--axes", "0",
                     "--expr", "0*x1", "--resolution", "0.01", "-o", "zero_x1.csv"]),
    ("gen_curved", ["generate", "--kind", "user_graph", "--n", "2", "--axes", "0",
                    "--expr", "0.3*x1**2 - 1/8; 0.05*np.sin(3*x1) + np.abs(-x1)/4",
                    "--resolution", "0.02", "--noise", "0.001", "--seed", "5",
                    "-o", "curved.csv"]),
    ("gen_vertical", ["generate", "--kind", "user_graph", "--n", "2", "--t-axis", "true",
                      "--expr", "0.1*t; np.cos(t) ** 2", "--resolution", "0.05",
                      "-o", "vertical.csv"]),
    # the kinds above leave few parameters at their defaults; these runs
    # pin the defaults of the other kinds through their sidecars
    ("gen_weierstrass", ["generate", "--kind", "weierstrass_graph", "--resolution", "0.05",
                         "-o", "weierstrass.csv"]),
    ("gen_defeater", ["generate", "--kind", "regular_defeater", "--depth", "1",
                      "--resolution", "1e-3", "--window-samples", "200",
                      "--atoms-per-interval", "4", "-o", "defeater.csv"]),
    ("gen_vcantor", ["generate", "--kind", "vertical_cantor", "--depth", "1", "--rows", "2",
                     "--cols", "1", "-o", "vcantor.csv"]),
    ("gen_quartic", ["generate", "--kind", "quartic_cantor", "--depth", "2",
                     "-o", "quartic.csv"]),
    ("dim", ["dim", "-i", "cantor.csv", "--scales", "4", "--sum-exponents", "1,2",
             "-o", "dim.json"]),
    ("density", ["density", "-i", "tilted.csv", "--point", "0,0,0", "--s", "1",
                 "--scales", "0.4,0.2,0.1"]),
    ("gen_vflat", ["generate", "--kind", "flat_plane", "--n", "2", "--axes", "0",
                   "--t-axis", "true", "--resolution", "0.1", "-o", "vflat.csv"]),
    ("gen_hflat", ["generate", "--kind", "flat_plane", "--n", "2", "--axes", "0,1",
                   "--resolution", "0.1", "-o", "hflat.csv"]),
    ("tangent", ["tangent", "-i", "cantor.csv", "--m", "1", "--sample-size", "10",
                 "--curves-csv", "curves.csv", "-o", "tangent.json"]),
    # the other plane families: canonical and fitted vertical k = 1 frames,
    # the two one-plane families of m = 2 in P^2 (horizontal k = 2, the
    # t-axis), and the tilted graph, which only the plane fitted to each
    # ball holds, at a seed whose sampled planes once missed the tilt
    ("tangent_vflat", ["tangent", "-i", "vflat.csv", "--m", "3", "--sample-size", "12",
                       "-o", "tangent_vflat.json"]),
    ("tangent_hflat_m2", ["tangent", "-i", "hflat.csv", "--m", "2", "--sample-size", "12",
                          "-o", "tangent_hflat_m2.json"]),
    ("tangent_vertical_m2", ["tangent", "-i", "vertical.csv", "--m", "2", "--sample-size",
                             "12", "--s-list", "0.9,0.5", "-o", "tangent_vertical_m2.json"]),
    ("tangent_tilted_205", ["tangent", "-i", "tilted.csv", "--m", "1", "--s-list",
                            "0.1,0.05,0.02", "--seed", "205", "--sample-size", "12",
                            "--curves-csv", "curves_tilted_205.csv",
                            "-o", "tangent_tilted_205.json"]),
    ("blowup", ["blowup", "-i", "tilted.csv", "--point", "0,0,0", "--r", "0.5",
                "-o", "blown.csv"]),
    ("vconst", ["vconst", "--n", "1", "--m", "1", "-o", "vconst.json"]),
    ("verify", ["verify", "--suite", "all", "--cases", "50", "-o", "verify.json"]),
    ("defeater_bmo", ["defeater-bmo", "--depth", "2", "--annuli-csv", "annuli.csv",
                      "-o", "bmo.json"]),
    ("help", ["--help"]),
] + [(f"help_{command}", [command, "--help"]) for command in cli._COMMANDS]


def run_commands(workdir, commands=COMMANDS):
    """Run the commands in workdir; returns {golden file name: bytes}.  Help
    text is wrapped at COLUMNS=80, and its SystemExit code is the exit code."""
    out = {}
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    mock.patch.dict(os.environ, {"COLUMNS": "80"}):
                try:
                    rc = cli.main(list(argv))
                except SystemExit as exc:
                    rc = exc.code
            out[f"{name}.stdout"] = f"exit {rc}\n{stderr.getvalue()}{stdout.getvalue()}".encode()
        for path in sorted(Path(".").iterdir()):
            out[path.name] = path.read_bytes()
    finally:
        os.chdir(old)
    return out


def _line(resolution=5e-3):
    return gen_flat(HomPlane.horizontal_axes(1, (0,)), extent=1.0, resolution=resolution)[0]


def _tangent_record(line):
    return classify_points(line, TangentConfig(m=1, sample_size=4)).to_dict()


def _quartic_fits():
    """Differential fits of the 4096-atom quartic Cantor graph over the
    x1-axis at 40 spread atoms, at the fine scales its clustered atoms
    need: each fit reads a narrow neighbourhood of a clustered cloud."""
    mu = gen_quartic_cantor(depth=11)[0]
    graph = GraphSamples.from_points(mu.points, HomPlane.horizontal_axes(1, (0,)))
    cfg = FitConfig(scales=(2e-4, 2e-5, 5e-6))
    picks = np.round(np.linspace(0, len(graph) - 1, 40)).astype(int).tolist()
    return [fit_differential(graph, i, cfg).to_dict() for i in picks]


def records():
    """{name: JSON text} for the to_dict() of each record on small fixtures."""
    line = _line()
    line_pts = np.column_stack([np.linspace(0.0, 1.0, 51), np.zeros(51)])
    ax = np.linspace(0.0, 1.0, 9)
    identity = GridMap(np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1), (0.0, 1.0))
    V = HomPlane.horizontal_axes(2, (0,))
    g = np.linspace(-1.0, 1.0, 401)
    graph = GraphSamples.from_points(np.column_stack([g, 0.5 * g, np.zeros_like(g)]), V)
    tangent = _tangent_record(line)
    ex = graph_extract(np.column_stack([g, 0.1 * g, np.zeros_like(g)]), V, 0.2)
    grid = np.linspace(-1.0, 1.0, 1025)
    out = {
        "CoveringReport": dimension_fit(line_pts, [0.2, 0.1], sum_exponents=(1.0, 2)).to_dict(
            seed=4),
        "CoveringReport_flat": dimension_fit(np.zeros((3, 2)), [0.2, 0.1]).to_dict(),
        "DensityEstimate": density_profile(line, np.zeros(2), 1, [0.3, 0.2, 0.1]).to_dict(),
        "FlatConstantEstimate": flat_constant_estimate(1, 1, "horizontal").to_dict(seed=2),
        "LipCoverSum": lip_image_cover_sum(identity, 4).to_dict(seed=1),
        "LipCoverSum_constant": lip_image_cover_sum(GridMap(np.zeros((9, 9, 2))), 4).to_dict(),
        "TangentReport": tangent,
        "TangentConfig": TangentConfig(m=2).to_dict(),
        "TangentConfig_r_list": TangentConfig(m=1, r_list=(0.1, 0.05), seed=3).to_dict(),
        "UniquenessScan": tangent_uniqueness_scan(line, np.zeros(2), (0.4, 0.2, 0.1),
                                                  1).to_dict(),
        "DifferentialFit": fit_differential(graph, 200, FitConfig(scales=(0.5, 0.1))).to_dict(),
        "DifferentialFit_flagged": fit_differential(graph, 0,
                                                    FitConfig(scales=(1e-4,))).to_dict(),
        "DifferentialFit_quartic": _quartic_fits(),
        "FitConfig": FitConfig(scales=(0.5, 0.1)).to_dict(),
        "BmoEnergy": bmo_energy(grid, grid ** 2, 0.0).to_dict(),
        "BmoEnergy_empty": bmo_energy(np.array([0.0, 1.0]), np.zeros(2), 0.0,
                                      min_sep=2.0).to_dict(),
        "GeneratorSpec": GeneratorSpec("cantor_segments",
                                       {"n_seq": (2, np.int64(3)), "w": np.arange(2.0)},
                                       seed=7).to_dict(),
        "HomPlane": HomPlane.vertical_axes(3, (1,)).to_dict(),
        "ExtractResult": {"lipschitz_bound": ex.lipschitz_bound,
                          "empirical_ratio": ex.empirical_ratio, "rows": len(ex.graph)},
    }
    return {name: json.dumps(d, sort_keys=True, indent=1) + "\n" for name, d in out.items()}


def _golden_records():
    path = GOLDEN / "records.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


CLI_FILES = sorted(p.name for p in (GOLDEN / "cli").glob("*"))
RECORDS = _golden_records()


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden_cli"))


@pytest.fixture(scope="module")
def record_texts():
    return records()


def test_cli_writes_exactly_the_golden_files(cli_outputs):
    assert sorted(cli_outputs) == CLI_FILES


@pytest.mark.parametrize("name", CLI_FILES)
def test_cli_bytes(cli_outputs, name):
    assert cli_outputs.get(name) == (GOLDEN / "cli" / name).read_bytes()


# the tangent commands and the clouds they read
TANGENT_COMMANDS = [(name, argv) for name, argv in COMMANDS if name.startswith("tangent")
                    or name in ("gen_cantor", "gen_tilted", "gen_vertical", "gen_vflat", "gen_hflat")]


@pytest.mark.parametrize("tile", [1, 200])
def test_tangent_goldens_do_not_depend_on_the_chunk_bound(tile, tmp_path):
    # PAIR_TILE 1 scores one ball and one plane at a time, 200 a few
    # small balls together; every tangent output keeps its bytes
    with mock.patch.object(geometry, "PAIR_TILE", tile):
        out = run_commands(tmp_path, TANGENT_COMMANDS)
        record = json.dumps(_tangent_record(_line()), sort_keys=True, indent=1) + "\n"
    assert {f"{name}.json" for name, _ in TANGENT_COMMANDS if name.startswith("tangent")} <= set(out)
    assert out == {name: (GOLDEN / "cli" / name).read_bytes() for name in out}
    assert record == RECORDS["TangentReport"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_reports_are_strict_json(cli_outputs, tmp_path):
    # every report and config echo parses without the Infinity and NaN
    # extensions of the json module; help text is not JSON
    texts = [data for name, data in cli_outputs.items() if name.endswith(".json")]
    texts += [data.split(b"\n", 1)[1] for name, data in cli_outputs.items()
              if name.endswith(".stdout") and not name.startswith("help")]
    # equal cover counts leave no slope to fit: the residual was a bare Infinity
    cloud = tmp_path / "c.csv"
    cloud.write_text("x1,t,w\n0,0,1\n1e-170,0,1\n1,1,1\n")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["dim", "-i", str(cloud), "--scales", "1e-165,1e-166"]) == 0
    texts.append(stdout.getvalue())
    reports = [json.loads(text, parse_constant=_refuse_constant) for text in texts]
    assert reports[-1]["result"]["fit_residual"] is None


def test_record_names(record_texts):
    assert sorted(record_texts) == sorted(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_to_dict(record_texts, name):
    assert record_texts[name] == RECORDS[name]


def _dynamic_arch_openblas():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # no "dicts" mode before numpy 1.25
        return False
    return any("DYNAMIC_ARCH" in dep.get("openblas configuration", "") for dep in deps.values())


# run from tests/, so the child imports this module
_REPLAY = """
import tempfile
import test_golden_reports as g

with tempfile.TemporaryDirectory() as tmp:
    out = g.run_commands(tmp)
out.update((name, text.encode()) for name, text in g.records().items())
print(repr(out))
"""


# BLAS still computes some outputs (fitted planes, differential fits, the
# generators' graph matmuls); under other kernels they must keep their bytes
@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="OPENBLAS_CORETYPE selects kernels only in a DYNAMIC_ARCH OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_every_golden_replays_under_other_blas_kernels(coretype, child_pythonpath, monkeypatch):
    # each step's stdout, every file the steps write and every record
    # replay byte for byte
    monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
    done = subprocess.run([sys.executable, "-c", _REPLAY], cwd=Path(__file__).parent,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = ast.literal_eval(done.stdout)
    want = {name: (GOLDEN / "cli" / name).read_bytes() for name in CLI_FILES}
    want.update((name, text.encode()) for name, text in RECORDS.items())
    assert got == want


def main():
    import tempfile

    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    for old in (GOLDEN / "cli").iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in run_commands(tmp).items():
            (GOLDEN / "cli" / name).write_bytes(data)
    text = json.dumps(records(), sort_keys=True, indent=1) + "\n"
    (GOLDEN / "records.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

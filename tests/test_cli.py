"""End-to-end command line coverage: reports, replays, exit codes."""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest
from scan_index import ScanIndex

from parabgmt import checks, cli, generators, measure
from parabgmt.generators import GENERATORS
from parabgmt.measure import load_cloud_csv


def run(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def config_file_lines(config, skip=()):
    """Serialize an embedded report config back to key=value lines."""
    lines = []
    for key, value in sorted(config.items()):
        if key in skip or value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, (list, tuple)):
            text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def line_csv(tmp_path, capsys):
    out = tmp_path / "line.csv"
    rc = cli.main(["generate", "--kind", "flat_plane", "--n", "1", "--axes", "0",
                   "--extent", "0.5", "--resolution", "0.01", "-o", str(out)])
    capsys.readouterr()
    assert rc == 0
    return out


class TestGenerate:
    def test_writes_cloud_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "line.csv"
        rc, stdout, _ = run(capsys, "generate", "--kind", "flat_plane", "--n", "1",
                            "--axes", "0", "--extent", "0.5", "--resolution", "0.01",
                            "-o", str(out))
        assert rc == 0
        echo = json.loads(stdout)
        assert echo["command"] == "generate" and "result" not in echo
        assert echo["config"]["kind"] == "flat_plane"
        report = json.loads((tmp_path / "line.json").read_text())
        assert report["result"]["cloud"]["natoms"] == 101
        assert report["result"]["cloud"]["total_mass"] == pytest.approx(1.0)
        mu = load_cloud_csv(out)
        assert mu.natoms == 101 and mu.n == 1

    def test_replay_from_embedded_config_is_bit_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        rc, _, _ = run(capsys, "generate", "--kind", "cantor_segments", "--depth", "2",
                       "--n-seq", "2,3", "--points-per-segment", "8", "-o", str(out1))
        assert rc == 0
        config = json.loads((tmp_path / "a.json").read_text())["config"]
        cfg = tmp_path / "replay.cfg"
        cfg.write_text(config_file_lines(config, skip=("output",)))
        out2 = tmp_path / "b.csv"
        rc, _, _ = run(capsys, "generate", "--config", str(cfg), "-o", str(out2))
        assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_inapplicable_param_rejected(self, tmp_path, capsys):
        rc, _, err = run(capsys, "generate", "--kind", "quartic_cantor", "--extent", "2",
                         "-o", str(tmp_path / "x.csv"))
        assert rc == 1
        assert "--extent does not apply to kind" in err

    def test_inapplicable_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("kind = weierstrass_graph\nextent = 1\n")
        rc, _, err = run(capsys, "generate", "--config", str(cfg), "-o", str(tmp_path / "x.csv"))
        assert rc == 1
        assert "--extent does not apply to kind 'weierstrass_graph'" in err

    def test_missing_output_rejected(self, capsys):
        rc, _, err = run(capsys, "generate", "--kind", "quartic_cantor")
        assert rc == 1 and "is required" in err

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "flat_plane"], "kind 'flat_plane' requires --n"),
        (["--kind", "user_graph", "--n", "1"], "kind 'user_graph' requires --expr"),
        (["--kind", "cantor_segments", "--noise", "1"],
         "--noise does not apply to kind 'cantor_segments'"),
        (["--kind", "flat_plane", "--n", "1", "--axes", "0", "--depth", "2"],
         "kind 'flat_plane' is not iterated; only --depth 0 is accepted"),
        (["--kind", "flat_plane", "--n", "2", "--axes=-1"], "axis -1 out of range for n=2"),
        (["--kind", "flat_plane", "--n", "1", "--axes", "5"], "axis 5 out of range for n=1"),
        (["--kind", "regular_defeater", "--depth", "1", "--window-samples", "1"],
         "window_samples must be >= 2, got 1"),
        (["--kind", "regular_defeater", "--depth", "1", "--atoms-per-interval", "1"],
         "atoms_per_interval must be >= 2, got 1"),
        (["--kind", "cantor_segments", "--points-per-segment", "0"],
         "points_per_segment must be >= 1, got 0"),
        (["--kind", "cantor_segments", "--points-per-segment", "-3"],
         "points_per_segment must be >= 1, got -3"),
        (["--kind", "vertical_cantor", "--rows", "0"], "rows must be >= 1, got 0"),
        (["--kind", "vertical_cantor", "--cols", "0"], "cols must be >= 1, got 0"),
        (["--kind", "vertical_cantor", "--rows", "-2"], "rows must be >= 1, got -2"),
        (["--kind", "flat_plane", "--n", "1", "--axes", "0", "--extent", "-1"],
         "extent must be >= 0, got -1.0"),
        (["--kind", "user_graph", "--n", "1", "--axes", "0", "--expr", "x1", "--domain", "-1"],
         "domain must be >= 0, got -1.0"),
        (["--kind", "user_graph", "--n", "1", "--axes", "0", "--expr", "x1", "--noise", "0.1",
          "--seed", "-1"], "--seed: invalid seed -1 (must be >= 0)"),
    ])
    def test_kind_parameter_errors(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.csv"
        rc, stdout, err = run(capsys, "generate", *argv, "-o", str(out))
        assert (rc, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_flags_are_the_builder_parameters(self):
        # a builder parameter without a flag, or a flag that no builder
        # takes, breaks this equality
        derived = {name for kind in GENERATORS for name, _ in cli._kind_params(kind)}
        assert derived == {opt.name for opt in cli._GEN_PARAM_OPTS}


class TestGenerateExpr:
    PAYLOAD = ("x1*0 + [c for c in ().__class__.__mro__[1].__subclasses__() "
               "if c.__name__ == 'BuiltinImporter'][0].load_module('posix').getpid()")

    @pytest.mark.parametrize("expr", [
        PAYLOAD,
        "x1.__class__.__mro__",
        "np.linalg.norm(x1)",
        "x1[0]",
        "(lambda: x1)()",
        "[v for v in x1]",
        "np.load('cloud.npy')",
        "open('cloud.csv')",
        "np.sin(x1, out=x1)",
        "x1 if x1 else t",
        "x2",
        "t",  # the base plane of --axes 0 has no time axis
        "'x1'",
        "x1 +",
    ])
    def test_rejected_with_one_line_error(self, tmp_path, capsys, expr):
        out = tmp_path / "g.csv"
        rc, stdout, err = run(capsys, "generate", "--kind", "user_graph", "--n", "1",
                              "--axes", "0", "--expr", expr, "-o", str(out))
        assert rc == 1 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_t_is_the_time_coordinate_over_vertical_plane(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        rc, _, _ = run(capsys, "generate", "--kind", "user_graph", "--n", "1",
                       "--t-axis", "true", "--expr", "0.5*t", "--resolution", "0.25",
                       "-o", str(out))
        assert rc == 0
        pts = load_cloud_csv(out).points
        assert len(pts) > 1 and np.ptp(pts[:, 1]) > 0
        np.testing.assert_array_equal(pts[:, 0], 0.5 * pts[:, 1])

    def test_non_finite_values_are_refused_in_one_line(self, tmp_path, child_pythonpath):
        # a fresh process: numpy's warnings reach its stderr, not pytest's
        out = tmp_path / "g.csv"
        done = subprocess.run([sys.executable, "-m", "parabgmt.cli", "generate", "--kind",
                               "user_graph", "--n", "1", "--axes", "0", "--expr", "1/x1",
                               "-o", str(out)], capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "", "error: points must be finite\n")
        assert not out.exists()


# The package runs on numpy alone.  After `import parabgmt.cli`, importing
# scipy.stats takes about 1 s, scipy.special 0.25 s and scipy.ndimage
# 0.32 s, which every process that sampled planes or generated a
# Weierstrass graph once paid.
_SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def test_cli_import_leaves_scipy_stats_unloaded(child_pythonpath):
    code = f"import json, sys, parabgmt.cli\nprint(json.dumps({_SCIPY_LOADED}))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == []


# Runs of the benchmark's commands, plane searches, plane complements and
# frames, and certification calls; each child lists the scipy modules it
# loaded
_RUNS = {
    "tangent": """
from parabgmt import cli
csv = sys.argv[1]
assert cli.main(["generate", "--kind", "flat_plane", "--n", "2", "--axes", "0",
                 "--extent", "0.5", "--resolution", "0.05", "-o", csv]) == 0
assert cli.main(["tangent", "-i", csv, "--m", "1", "--sample-size", "3",
                 "-o", csv + ".tan.json"]) == 0
""",
    "uniqueness_scan": """
from parabgmt.measure import DiscreteMeasure
from parabgmt.rectify import tangent_uniqueness_scan
s = np.linspace(-1.0, 1.0, 201)
mu = DiscreteMeasure(2, np.column_stack([s, 0.5 * s, np.zeros_like(s)]), np.ones_like(s))
tangent_uniqueness_scan(mu, np.zeros(3), (0.5, 0.25, 0.125), 1)
""",
    "user_graph": """
from parabgmt import cli
assert cli.main(["generate", "--kind", "user_graph", "--n", "2", "--axes", "0",
                 "--expr", "0.1*x1;0", "--resolution", "0.05", "-o", sys.argv[1]]) == 0
""",
    "fit_differential": """
from parabgmt.geometry import GraphSamples, HomPlane
from parabgmt.rectify import FitConfig, fit_differential
x = np.linspace(-1.0, 1.0, 201)
pts = np.column_stack([x, 0.5 * x, np.zeros_like(x)])
graph = GraphSamples.from_points(pts, HomPlane.horizontal_axes(2, (0,)))
assert fit_differential(graph, 100, FitConfig(scales=(0.5, 0.1))).verdict == "differentiable"
""",
    "verify": """
from parabgmt import cli
assert cli.main(["verify", "--suite", "all", "-o", sys.argv[1] + ".json"]) == 0
""",
    "defeater_bmo": """
from parabgmt import cli
assert cli.main(["defeater-bmo", "--depth", "2", "-o", sys.argv[1] + ".json"]) == 0
""",
    "weierstrass_graph": """
from parabgmt import cli
assert cli.main(["generate", "--kind", "weierstrass_graph", "-o", sys.argv[1]]) == 0
""",
    "certification": """
from parabgmt.geometry import HomPlane, graph_cone_check, graph_extract
from parabgmt.measure import DiscreteMeasure, GridMap, lip_image_cover_sum
from parabgmt.rectify import tangent_uniqueness_scan
x = np.linspace(-1.0, 1.0, 201)
pts = np.column_stack([x, 0.1 * x, np.zeros_like(x)])
V = HomPlane.horizontal_axes(2, (0,))
assert graph_extract(pts, V, 0.2).empirical_ratio > 0.0
assert graph_cone_check(pts, V, 0.2) == []
ax = np.linspace(0.0, 1.0, 17)
gm = GridMap(np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1), (0.0, 1.0))
assert lip_image_cover_sum(gm, 4).value > 0.0
tangent_uniqueness_scan(DiscreteMeasure(2, pts, np.ones_like(x)), np.zeros(3),
                        (0.5, 0.25, 0.125), 1)
""",
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_runs_leave_scipy_unloaded(name, tmp_path, child_pythonpath):
    code = ("import json, sys\nimport numpy as np\n" + _RUNS[name]
            + f"print(json.dumps({_SCIPY_LOADED}))")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cloud.csv")],
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


# the calls of the certify workload: the pair sweeps, the cover sums, the
# tangent scan and the differential fits, verify, and the regular-graph
# defeater with its equal-pair searches
_CERTIFY_PATH = ("certification", "fit_differential", "verify", "defeater_bmo")


def test_certify_path_leaves_numpy_ma_unloaded(tmp_path, child_pythonpath):
    # graph_extract and lip_image_cover_sum dedup and group rows with a
    # lexsort; np.unique(axis=0) would import numpy.ma
    code = ("import json, sys\nimport numpy as np\n"
            + "".join(_RUNS[name] for name in _CERTIFY_PATH)
            + "print(json.dumps('numpy.ma' in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) is False


# A command imports the library modules it runs and no others; each child
# lists the parabgmt modules it loaded
_PACKAGE_LOADED = "sorted(m[9:] for m in sys.modules if m.startswith('parabgmt.'))"


def test_package_import_loads_only_the_version(child_pythonpath):
    code = f"import json, sys, parabgmt\nprint(json.dumps({_PACKAGE_LOADED}))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == ["_version"]


# command -> (argv, library modules it must leave unloaded); CSV is a
# cloud of 41 atoms on a horizontal line of P^1.  None of them loads
# numpy.ma, which a plain np.unique imports
_LAZY_RUNS = {
    "vconst": (["vconst", "--n", "3", "--m", "4", "--family", "vertical"],
               {"generators", "rectify", "checks"}),
    "dim": (["dim", "-i", "CSV", "--scales", "3"], {"generators", "rectify", "checks"}),
    "density": (["density", "-i", "CSV", "--point", "0,0", "--s", "1", "--scales", "0.5,0.25"],
                {"generators", "rectify", "checks"}),
    "tangent": (["tangent", "-i", "CSV", "--m", "1", "--sample-size", "3"],
                {"generators", "checks"}),
    "blowup": (["blowup", "-i", "CSV", "--point", "0,0", "--r", "0.5", "-o", "CSV.zoom.csv"],
               {"generators", "checks"}),
}


def _modules_loaded_by(argv, tmp_path):
    """The parabgmt modules, and whether numpy and numpy.ma, a child
    running argv loads."""
    csv = tmp_path / "line.csv"
    csv.write_text("x1,t,w\n" + "".join(f"{i / 20},0,1\n" for i in range(-20, 21)))
    argv = [str(csv) + a[3:] if a.startswith("CSV") else a for a in argv]
    code = ("import json, sys\nfrom parabgmt import cli\n"
            f"try:\n    assert cli.main({argv!r}) == 0\n"
            "except SystemExit as exc:\n    assert exc.code == 0\n"
            f"print(json.dumps([{_PACKAGE_LOADED}, 'numpy' in sys.modules,"
            " 'numpy.ma' in sys.modules]))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(_LAZY_RUNS))
def test_commands_load_only_the_modules_they_run(name, tmp_path, child_pythonpath):
    argv, unloaded = _LAZY_RUNS[name]
    loaded, _, ma_loaded = _modules_loaded_by(argv, tmp_path)
    assert "measure" in loaded and not unloaded & set(loaded) and not ma_loaded


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["vconst", "--help"]])
def test_version_and_help_load_no_library_module(argv, tmp_path, child_pythonpath):
    assert _modules_loaded_by(argv, tmp_path) == [["_version", "cli"], False, False]


class TestDim:
    def test_integer_scale_count_uses_schedule(self, line_csv, tmp_path, capsys):
        out = tmp_path / "dim.json"
        rc, _, _ = run(capsys, "dim", "-i", str(line_csv), "--scales", "3", "-o", str(out))
        assert rc == 0
        res = json.loads(out.read_text())["result"]
        assert res["counts"] == [4, 6, 12]
        assert res["fitted_dim"] == pytest.approx(0.792481250361, rel=1e-10)
        assert res["scales"] == [0.16, 0.08, 0.04]

    def test_explicit_scales_echoed(self, line_csv, capsys):
        rc, stdout, _ = run(capsys, "dim", "-i", str(line_csv),
                            "--scales", "0.3,0.2,0.1")
        assert rc == 0
        report = json.loads(stdout)
        assert report["config"]["scales"] == [0.3, 0.2, 0.1]
        assert 0.5 < report["result"]["fitted_dim"] < 1.2

    def test_missing_input_file(self, capsys):
        rc, _, err = run(capsys, "dim", "-i", "nope.csv", "--scales", "3")
        assert rc == 1 and "cannot read cloud" in err

    @pytest.mark.filterwarnings("error")
    def test_scales_whose_square_underflows(self, tmp_path, capsys, monkeypatch):
        # 1e-165^2 is 0.0: the grid index divided by a zero cell along t
        # and the run ended in the catch-all `error: ZeroDivisionError`
        cloud = tmp_path / "c.csv"
        cloud.write_text("x1,t,w\n0,0,1\n1e-170,0,1\n1,1,1\n")
        rc, stdout, err = run(capsys, "dim", "-i", str(cloud), "--scales", "1e-165,1e-166")
        assert (rc, err) == (0, "")

        # the same greedy cover with every ball found by a full scan
        monkeypatch.setattr(measure, "GridIndex", ScanIndex)
        pts = load_cloud_csv(cloud).points
        brute = [len(measure.greedy_cover(pts, r)) for r in (1e-165, 1e-166)]
        assert json.loads(stdout)["result"]["counts"] == brute == [2, 2]

    def test_sum_factor_past_the_float_range_is_a_one_line_error(self, tmp_path, capsys):
        # (2e-160)^-3 overflows: Python's power raised OverflowError, which
        # reached the catch-all as `error: OverflowError: ...`
        cloud = tmp_path / "c.csv"
        cloud.write_text("x1,t,w\n0,0,1\n1e-170,0,1\n1,1,1\n")
        out = tmp_path / "dim.json"
        rc, stdout, err = run(capsys, "dim", "-i", str(cloud), "--scales", "1e-160,1e-170",
                              "--sum-exponents=-3", "-o", str(out))
        assert (rc, stdout, err) == (
            1, "", "error: (2r)^-3.0 at scale r=1e-160 is not a finite float\n")
        assert not out.exists()


class TestDensity:
    def test_flat_line_density_near_one(self, line_csv, capsys):
        rc, stdout, _ = run(capsys, "density", "-i", str(line_csv), "--point", "0,0",
                            "--s", "1", "--scales", "0.3,0.2,0.1")
        assert rc == 0
        res = json.loads(stdout)["result"]
        assert len(res["values"]) == 3
        # coarse 0.01-step cloud: the ball boundary contributes up to
        # half an atom spacing per side
        for v in res["values"]:
            assert v == pytest.approx(1.0, abs=0.06)
        assert res["lower"] <= res["upper"]

    @pytest.mark.parametrize("scales, s", [("-0.1,0.1", "1"), ("-0.1,0.1", "1.5"), ("0,0.1", "1")])
    def test_radius_not_positive_is_a_one_line_error(self, line_csv, tmp_path, capsys, scales, s):
        out = tmp_path / "density.json"
        rc, stdout, err = run(capsys, "density", "-i", str(line_csv), "--point", "0,0",
                              "--s", s, f"--scales={scales}", "-o", str(out))
        assert (rc, stdout, err) == (1, "", "error: radius must be > 0\n")
        assert not out.exists()

    def test_factor_past_the_float_range_is_a_one_line_error(self, tmp_path, capsys):
        # (2e-160)^-2 overflows: Python's power raised OverflowError, which
        # reached the catch-all as `error: OverflowError: ...`
        cloud = tmp_path / "c.csv"
        cloud.write_text("x1,t,w\n0,0,1\n1e-170,0,1\n1,1,1\n")
        out = tmp_path / "density.json"
        rc, stdout, err = run(capsys, "density", "-i", str(cloud), "--point", "0,0", "--s", "2",
                              "--scales", "1e-160,1e-170", "-o", str(out))
        assert (rc, stdout, err) == (
            1, "", "error: (2r)^-2.0 at scale r=1e-160 is not a finite float\n")
        assert not out.exists()


class TestTangent:
    def test_scale_power_past_the_float_range_is_a_one_line_error(self, tmp_path, capsys):
        # 1e-110 ** -3 overflows: Python's power raised OverflowError,
        # which reached the catch-all as `error: OverflowError: ...`
        cloud = tmp_path / "c.csv"
        cloud.write_text("x1,x2,t,w\n0,0,0,1\n1e-111,0,0,1\n0,1e-111,0,1\n1,1,1,1\n")
        out = tmp_path / "tan.json"
        rc, stdout, err = run(capsys, "tangent", "-i", str(cloud), "--m", "3", "--r-list", "1e-110",
                              "--sample-size", "4", "-o", str(out))
        assert (rc, stdout, err) == (1, "", "error: r^-3.0 at scale r=1e-110 is not a finite float\n")
        assert not out.exists()

    def test_report_and_curves(self, line_csv, tmp_path, capsys):
        out = tmp_path / "tan.json"
        curves = tmp_path / "curves.csv"
        rc, stdout, _ = run(capsys, "tangent", "-i", str(line_csv), "--m", "1",
                            "--sample-size", "5", "--curves-csv", str(curves),
                            "-o", str(out))
        assert rc == 0
        report = json.loads(out.read_text())
        assert "workers" not in report["config"]
        assert report["result"]["fractions"]["horizontal"] == 1.0
        assert curves.read_text().splitlines()[0] == "point_index,r,s,defect"


    @pytest.mark.parametrize("flag,value,message", [
        ("--sample-size", "0", "sample_size must be >= 1, got 0"),
        ("--sample-size", "-5", "sample_size must be >= 1, got -5"),
        ("--s-list", "1.5", "s_list: aperture 1.5 must lie in (0, 1)"),
        ("--s-list", "0", "s_list: aperture 0.0 must lie in (0, 1)"),
        ("--r-list", "-0.1", "r_list: radius -0.1 must be finite and > 0"),
        ("--m", "0", "m=0 out of range for n=2"),
        ("--m", "4", "m=4 out of range for n=2"),
        ("--plane-budget", "4", "unrecognized arguments: --plane-budget=4"),
        ("--threshold", "nan", "--threshold: invalid number 'nan'"),
        ("--threshold", "NaN", "--threshold: invalid number 'NaN'"),
        ("--r-list", "0.1,nan", "--r-list: invalid number 'nan'"),
    ])
    def test_bad_search_config_is_a_one_line_error(self, tmp_path, capsys, flag, value,
                                                   message):
        cloud = tmp_path / "plane.csv"
        cloud.write_text("x1,x2,t,w\n0,0,0,1\n0.1,0,0,1\n0,0.1,0,1\n")
        out = tmp_path / "tan.json"
        rc, stdout, err = run(capsys, "tangent", "-i", str(cloud), "--m", "1",
                              f"{flag}={value}", "-o", str(out))
        assert (rc, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()


    @pytest.mark.parametrize("flag,value", [
        ("--threshold", "inf"), ("--threshold", "-inf"), ("--threshold", "Infinity"),
        ("--threshold", "1e999"), ("--r-list", "inf"),
    ])
    def test_infinite_number_is_refused(self, line_csv, tmp_path, capsys, flag, value):
        # an infinite threshold was accepted and echoed as a bare
        # Infinity, which is not JSON; a large finite one does its job
        out = tmp_path / "tan.json"
        rc, stdout, err = run(capsys, "tangent", "-i", str(line_csv), "--m", "1",
                              f"{flag}={value}", "-o", str(out))
        assert (rc, stdout, err) == (1, "", f"error: {flag}: invalid number {value!r}\n")
        assert not out.exists()


class TestBlowup:
    def test_roundtrip(self, line_csv, tmp_path, capsys):
        out = tmp_path / "blown.csv"
        rc, _, _ = run(capsys, "blowup", "-i", str(line_csv), "--point", "0,0",
                       "--r", "0.25", "-o", str(out))
        assert rc == 0
        nu = load_cloud_csv(out)
        assert nu.total_mass == pytest.approx(1.0)
        assert nu.points[:, 0].max() == pytest.approx(1.0, abs=0.1)
        report = json.loads((tmp_path / "blown.json").read_text())
        assert report["config"]["normalization"] == "mass"

    def test_point_arity_checked(self, line_csv, tmp_path, capsys):
        rc, _, err = run(capsys, "blowup", "-i", str(line_csv), "--point", "0,0,0",
                         "--r", "0.25", "-o", str(tmp_path / "b.csv"))
        assert rc == 1 and "--point needs 2 coordinates" in err

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_radius_not_positive_is_a_one_line_error(self, line_csv, tmp_path, capsys, r):
        # the error density gives: blowup_measure checked the radius
        # itself, as "scale must be positive", before its ball did
        out = tmp_path / "b.csv"
        rc, stdout, err = run(capsys, "blowup", "-i", str(line_csv), "--point", "0,0",
                              f"--r={r}", "-o", str(out))
        assert (rc, stdout, err) == (1, "", "error: radius must be > 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # r * r underflows to 0.0: 0 / 0 in the time column warned, then
        # the NaN was refused as `error: points must be finite`
        (["--r", "1e-320"], "blow-up scale r=1e-320 is too small: r * r underflows to 0.0"),
        # 1e-200 ** -2 overflows: Python's power raised OverflowError,
        # which reached the catch-all as `error: OverflowError: ...`
        (["--r", "1e-200", "--normalization", "power", "--m", "2"],
         "r^-2.0 at scale r=1e-200 is not a finite float"),
    ])
    def test_scale_past_the_float_range_is_a_one_line_error(self, tmp_path, capsys, argv, message):
        cloud = tmp_path / "tilted.csv"
        cloud.write_text("x1,x2,t,w\n0,0,0,1\n0.5,0.05,0,1\n1,0.1,0,1\n")
        out = tmp_path / "b.csv"
        rc, stdout, err = run(capsys, "blowup", "-i", str(cloud), "--point", "0,0,0", *argv,
                              "-o", str(out))
        assert (rc, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    def test_power_without_m_is_a_one_line_error(self, line_csv, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc, stdout, err = run(capsys, "blowup", "-i", str(line_csv), "--point", "0,0",
                              "--r", "0.25", "--normalization", "power", "-o", str(out))
        assert (rc, stdout, err) == (1, "", "error: power normalization needs m\n")
        assert not out.exists()


class TestVconst:
    def test_horizontal_line_constant_exact(self, capsys):
        rc, stdout, _ = run(capsys, "vconst", "--n", "1", "--m", "1",
                            "--family", "horizontal")
        assert rc == 0
        res = json.loads(stdout)["result"]
        assert res["value"] == pytest.approx(2.0, rel=1e-9)
        assert res["value"] == res["ball_atoms"] / res["extremal_atoms"]


class TestVerify:
    def test_geometry_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        rc, _, _ = run(capsys, "verify", "--suite", "geometry", "--cases", "200",
                       "--seed", "1", "-o", str(out))
        assert rc == 0
        res = json.loads(out.read_text())["result"]
        names = {c["name"] for c in res["checks"]}
        assert {"norm_homogeneity", "norm_split", "cone_complement_identity"} <= names
        assert res["passed"] is True and res["violations"] == []

    def test_failures_exit_two_with_violation_list(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(checks.SUITES, "geometry",
                            [("always_fails", lambda cases, seed: (False, {"why": "forced"}))])
        out = tmp_path / "verify.json"
        rc, _, _ = run(capsys, "verify", "--suite", "geometry", "-o", str(out))
        assert rc == 2
        res = json.loads(out.read_text())["result"]
        assert res["passed"] is False
        assert res["violations"] == [
            {"suite": "geometry", "name": "always_fails", "detail": {"why": "forced"}}]

    def test_bad_cases(self, capsys):
        rc, _, err = run(capsys, "verify", "--cases", "0")
        assert rc == 1 and "--cases" in err


class TestDefeaterBmo:
    def test_depth_two_exceeds_partial_sum(self, tmp_path, capsys):
        out = tmp_path / "bmo.json"
        ann = tmp_path / "ann.csv"
        rc, _, _ = run(capsys, "defeater-bmo", "--depth", "2", "--resolution", "1e-3",
                       "--window-samples", "800", "--atoms-per-interval", "100",
                       "--grid", "4001", "--refine", "100",
                       "--annuli-csv", str(ann), "-o", str(out))
        assert rc == 0
        res = json.loads(out.read_text())["result"]
        assert res["threshold"] == pytest.approx(5.0 / 6.0 / 16.0, rel=1e-10)
        assert res["min_total"] == pytest.approx(0.492367136998, rel=1e-9)
        assert res["all_exceed"] is True and len(res["points"]) == 4
        header = ann.read_text().splitlines()[0]
        assert header == "point_index,annulus_lo,annulus_hi,sum,cumulative"

    @pytest.mark.parametrize("flag, bad", [
        ("--window-samples", "window_samples must be >= 2, got 1"),
        ("--atoms-per-interval", "atoms_per_interval must be >= 2, got 1"),
    ])
    def test_schedule_too_small(self, tmp_path, capsys, flag, bad):
        # --atoms-per-interval 1 divided by zero in the resolution hint
        out = tmp_path / "bmo.json"
        rc, stdout, err = run(capsys, "defeater-bmo", "--depth", "1", "--resolution", "1e-3",
                              flag, "1", "-o", str(out))
        assert (rc, stdout, err) == (1, "", f"error: {bad}\n")
        assert not out.exists()

    @pytest.mark.parametrize("grid, refine, bad", [
        ("0", "0", "grid must be >= 2, got 0"),
        ("4001", "1", "refine must be >= 2, got 1"),
    ])
    def test_quadrature_too_coarse(self, tmp_path, capsys, grid, refine, bad):
        # --grid 0 --refine 0 integrated over the midpoints alone and
        # reported totals [0.0, 0.0]
        out = tmp_path / "bmo.json"
        rc, stdout, err = run(capsys, "defeater-bmo", "--depth", "1", "--resolution", "1e-3",
                              "--window-samples", "200", "--atoms-per-interval", "4",
                              "--grid", grid, "--refine", refine, "-o", str(out))
        assert (rc, stdout, err) == (1, "", f"error: {bad}\n")
        assert not out.exists()

    def test_quadrature_refused_before_the_construction(self, tmp_path, capsys, monkeypatch):
        # the default depth 6 took 1.6 s to build before the refusal
        # the stand-in keeps the builder's signature, which the option
        # defaults are read from
        @functools.wraps(generators.gen_regular_defeater)
        def build(*args, **kwargs):
            raise AssertionError("the defeater was built")

        monkeypatch.setattr(generators, "gen_regular_defeater", build)
        rc, stdout, err = run(capsys, "defeater-bmo", "--grid", "0")
        assert (rc, stdout, err) == (1, "", "error: grid must be >= 2, got 0\n")


class TestConfigPrecedence:
    def test_flags_beat_file_beats_defaults(self, line_csv, tmp_path, capsys):
        cfg = tmp_path / "dim.cfg"
        cfg.write_text("scales = 0.3,0.2,0.1\nmetric = euclidean\n")
        rc, stdout, _ = run(capsys, "dim", "-i", str(line_csv), "--config", str(cfg),
                            "--metric", "parabolic")
        assert rc == 0
        config = json.loads(stdout)["config"]
        assert config["metric"] == "parabolic"      # flag wins
        assert config["scales"] == [0.3, 0.2, 0.1]  # file beats default
        assert config["sum_exponents"] == []        # untouched default

    def test_unknown_key_diagnostic_carries_location(self, line_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 3\n")
        rc, _, err = run(capsys, "dim", "-i", str(line_csv), "--config", str(cfg))
        assert rc == 1
        assertf = f"{cfg}:1: unknown key 'bogus'"
        assert assertf in err
        # a key the tangent command no longer has is refused like any other
        cfg.write_text("m = 1\nplane_budget = 8\n")
        rc, _, err = run(capsys, "tangent", "-i", str(line_csv), "--config", str(cfg))
        assert (rc, err) == (1, f"error: {cfg}:2: unknown key 'plane_budget' for tangent\n")

    def test_malformed_line_diagnostic(self, line_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        rc, _, err = run(capsys, "dim", "-i", str(line_csv), "--config", str(cfg))
        assert rc == 1 and f"{cfg}:1: expected key = value" in err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["--version"])
        assert ei.value.code == 0
        assert "parabgmt" in capsys.readouterr().out

    def test_no_command(self, capsys):
        rc, _, err = run(capsys)
        assert rc == 1 and "required" in err

    def test_unknown_command(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 1 and "error:" in err

    @staticmethod
    def _seed_args(command, line_csv):
        return {
            "generate": ["--kind", "flat_plane", "--n", "1", "--axes", "0",
                         "-o", str(line_csv.with_name("seeded.csv"))],
            "tangent": ["-i", str(line_csv), "--m", "1"],
            "verify": [],
        }[command]

    @pytest.mark.parametrize("command", ["tangent", "verify", "generate"])
    def test_negative_seed_flag_names_the_option(self, line_csv, capsys, command):
        extra = self._seed_args(command, line_csv)
        rc, out, err = run(capsys, command, *extra, "--seed", "-1")
        assert rc == 1 and out == ""
        assert err == "error: --seed: invalid seed -1 (must be >= 0)\n"

    @pytest.mark.parametrize("command", ["tangent", "verify", "generate"])
    def test_negative_seed_in_config_carries_location(self, line_csv, tmp_path, capsys,
                                                      command):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("# replay\nseed = -4\n")
        extra = self._seed_args(command, line_csv)
        rc, out, err = run(capsys, command, *extra, "--config", str(cfg))
        assert rc == 1 and out == ""
        assert err == f"error: {cfg}:2: invalid seed -4 (must be >= 0)\n"

    def test_debug_switch_reraises(self, tmp_path, capsys, monkeypatch):
        # PARABGMT_DEBUG=1 lets the exception out with its traceback
        argv = ["generate", "--kind", "user_graph", "--n", "1", "--axes", "0",
                "--expr", "1/0", "-o", str(tmp_path / "g.csv")]
        monkeypatch.delenv("PARABGMT_DEBUG", raising=False)
        assert run(capsys, *argv) == (1, "", "error: ZeroDivisionError: division by zero\n")
        monkeypatch.setenv("PARABGMT_DEBUG", "1")
        with pytest.raises(ZeroDivisionError):
            cli.main(argv)
        assert capsys.readouterr().err == ""

    def test_bad_flag_value(self, line_csv, capsys):
        rc, _, err = run(capsys, "dim", "-i", str(line_csv), "--scales", "xyz")
        assert rc == 1 and "error:" in err

"""Command line front end for the toolkit.

Subcommands
    generate      build a point-cloud fixture and write CSV plus a JSON sidecar
    dim           box-counting dimension fit of a cloud
    density       density profile of a cloud at one point
    tangent       approximate-tangent classification over an atom subsample
    blowup        zoom a cloud at a point and write the rescaled cloud
    vconst        flat-measure constant of a canonical plane
    verify        run the invariant check table of parabgmt.checks
    defeater-bmo  singular-energy sums along the regular defeater construction

Options merge with precedence: command-line flags beat a flat key=value
config file (--config PATH) which beats built-in defaults.  Every report
is a JSON object {command, version, config, result} with sorted keys;
the effective config is always echoed so a report can be replayed
byte-for-byte from its own config block.  Floats inside result payloads
are rounded to 12 significant digits; config values stay lossless.

Exit codes: 0 success, 1 usage or config errors (diagnostics on
stderr), 2 verify failures (violation list inside the report).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._report import jsonable
from ._version import __version__
from .checks import SUITES
from .generators import (
    GENERATOR_KINDS,
    GeneratorSpec,
    bmo_energy,
    gen_regular_defeater,
    generate,
    sidecar_payload,
)
from .measure import (
    default_scales,
    density_profile,
    dimension_fit,
    flat_constant_estimate,
    load_cloud_csv,
    save_cloud_csv,
)
from .rectify import TangentConfig, blowup_measure, classify_points


class CliError(Exception):
    """User-facing configuration or usage error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route through CliError so every
    # parse or config problem lands on exit code 1
    def error(self, message):
        raise CliError(message)


# ---------------------------------------------------------------------------
# Typed option values


def _parse_int(text):
    try:
        return int(text, 10)
    except ValueError:
        raise CliError(f"invalid integer {text!r}") from None


def _parse_seed(text):
    value = _parse_int(text)
    if value < 0:
        raise CliError(f"invalid seed {value} (must be >= 0)")
    return value


def _parse_float(text):
    """A float; NaN is refused, since no option has a use for it."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):
        raise CliError(f"invalid number {text!r}")
    return value


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise CliError(f"invalid boolean {text!r} (use true/false)")


def _parse_floats(text):
    if text.strip() == "":
        return []
    return [_parse_float(tok) for tok in text.split(",")]


def _parse_ints(text):
    if text.strip() == "":
        return []
    return [_parse_int(tok) for tok in text.split(",")]


def _parse_scales(text):
    """An integer means a scale count; anything with . e or , is a list."""
    if any(ch in text for ch in ".eE,"):
        return _parse_floats(text)
    return _parse_int(text)


_PARSERS = {
    "int": _parse_int,
    "seed": _parse_seed,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": lambda text: text,
    "floats": _parse_floats,
    "ints": _parse_ints,
    "scales": _parse_scales,
}


@dataclass
class Opt:
    """One named option: a flag, a config-file key, and a report key."""

    name: str
    kind: str
    default: object = None
    help: str = ""
    choices: tuple | None = None
    required: bool = False

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")

    def parse(self, text):
        value = _PARSERS[self.kind](text)
        if self.choices is not None and value not in self.choices:
            raise CliError(
                f"invalid value {value!r} (choose from {', '.join(map(str, self.choices))})"
            )
        return value


def _scales_help(extra=""):
    return "integer = number of default scales, or a comma list of radii" + extra


# ---------------------------------------------------------------------------
# Command schemas

_GEN_COMMON = [
    Opt("kind", "str", required=True, choices=sorted(GENERATOR_KINDS),
        help="generator family"),
    Opt("seed", "int", default=0, help="generator seed"),
    Opt("output", "str", required=True, help="cloud CSV path; report goes to the .json sidecar"),
]

# per-kind parameter names with their generator defaults; _REQ marks
# parameters the user must supply
_REQ = object()

_KIND_PARAMS = {
    "weierstrass_graph": [
        ("n", 1), ("c0", 0.05), ("K", 30), ("resolution", 1e-3), ("depth", 0),
    ],
    "regular_defeater": [
        ("depth", 6), ("resolution", 1e-4), ("c0", 0.33), ("K", 48),
        ("window_samples", 1500), ("atoms_per_interval", 160),
        ("l_seq", None), ("c_seq", None),
    ],
    "cantor_segments": [
        ("n_seq", None), ("depth", 1), ("points_per_segment", 64),
    ],
    "vertical_cantor": [
        ("depth", 1), ("n_seq", None), ("r_seq", None), ("rows", 8), ("cols", 2),
    ],
    "quartic_cantor": [
        ("depth", 8), ("gap_seq", None), ("kappa", 12.0), ("kappa_growth", 0.25),
    ],
    "flat_plane": [
        ("n", _REQ), ("axes", ()), ("t_axis", False), ("extent", 1.0),
        ("resolution", 1e-3), ("depth", 0),
    ],
    "user_graph": [
        ("n", _REQ), ("axes", ()), ("t_axis", False), ("expr", _REQ),
        ("domain", 1.0), ("resolution", 1e-3), ("noise", 0.0), ("depth", 0),
    ],
}

# kinds whose cloud is cut at a resolution rather than iterated to a depth;
# they accept --depth 0 only, mirroring the flag set of the iterated kinds
_ANALYTIC_KINDS = ("flat_plane", "user_graph", "weierstrass_graph")

_GEN_PARAM_OPTS = [
    Opt("n", "int", help="ambient horizontal dimension"),
    Opt("c0", "float", help="oscillation amplitude of the base profile"),
    Opt("K", "int", help="frequency truncation of the base profile"),
    Opt("resolution", "float", help="sampling step"),
    Opt("depth", "int", help="construction depth (0 for non-iterated kinds)"),
    Opt("window_samples", "int", help="samples per pair-search window"),
    Opt("atoms_per_interval", "int", help="atoms per deepest interval"),
    Opt("l_seq", "floats", help="level slopes, strictly decreasing below 1"),
    Opt("c_seq", "floats", help="per-level lower oscillation constants"),
    Opt("n_seq", "ints", help="per-level subdivision counts"),
    Opt("r_seq", "floats", help="per-level scale ratios, leading 1"),
    Opt("points_per_segment", "int", help="atoms per deepest segment"),
    Opt("rows", "int", help="vertical stack height per square"),
    Opt("cols", "int", help="staggered column count per square"),
    Opt("gap_seq", "floats", help="explicit domain gap lengths"),
    Opt("kappa", "float", help="base gap multiplier"),
    Opt("kappa_growth", "float", help="per-level gap multiplier growth"),
    Opt("axes", "ints", help="horizontal coordinate axes of the plane"),
    Opt("t_axis", "bool", help="include the t axis in the plane"),
    Opt("extent", "float", help="ball radius of the flat patch"),
    Opt("expr", "str", help="semicolon-separated graph expressions in x1..xk (t too with --t-axis)"),
    Opt("domain", "float", help="half-width of the coefficient box"),
    Opt("noise", "float", help="gaussian noise level on graph values"),
]

_COMMAND_OPTS = {
    "generate": _GEN_COMMON + _GEN_PARAM_OPTS,
    "dim": [
        Opt("input", "str", required=True, help="cloud CSV"),
        Opt("metric", "str", default="parabolic", choices=("parabolic", "euclidean")),
        Opt("scales", "scales", default=8, help=_scales_help()),
        Opt("sum_exponents", "floats", default=[],
            help="also report N(r)(2r)^s for these exponents"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ],
    "density": [
        Opt("input", "str", required=True, help="cloud CSV"),
        Opt("point", "floats", required=True, help="comma list x1,..,xn,t"),
        Opt("s", "float", required=True, help="density exponent"),
        Opt("scales", "scales", default=8, help=_scales_help()),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ],
    "tangent": [
        Opt("input", "str", required=True, help="cloud CSV"),
        Opt("m", "int", required=True, help="homogeneous dimension of candidate planes"),
        Opt("s_list", "floats", default=[0.5, 0.25, 0.1], help="cone apertures"),
        Opt("r_list", "floats", help="cone radii (default: 8,4,2 x cloud resolution)"),
        Opt("plane_budget", "int", default=64, help="sampled candidate planes"),
        Opt("threshold", "float", default=0.05, help="max tolerated cone defect"),
        Opt("sample_size", "int", default=100, help="atoms classified"),
        Opt("seed", "seed", default=0, help="subsample and plane-sampling seed"),
        Opt("refine_rounds", "int", default=2, help="local refinement rounds"),
        Opt("curves_csv", "str", help="write point_index,r,s,defect rows here"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ],
    "blowup": [
        Opt("input", "str", required=True, help="cloud CSV"),
        Opt("point", "floats", required=True, help="zoom center x1,..,xn,t"),
        Opt("r", "float", required=True, help="zoom scale"),
        Opt("normalization", "str", default="mass", choices=("mass", "power")),
        Opt("m", "float", help="exponent for power normalization"),
        Opt("output", "str", required=True,
            help="rescaled cloud CSV; report goes to the .json sidecar"),
    ],
    "vconst": [
        Opt("n", "int", required=True, help="ambient horizontal dimension"),
        Opt("m", "int", required=True, help="homogeneous dimension of the plane"),
        Opt("family", "str", default="horizontal", choices=("horizontal", "vertical")),
        Opt("scales", "floats", help="packing radii (default schedule when omitted)"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ],
    "verify": [
        Opt("suite", "str", default="all", choices=(*SUITES, "all")),
        Opt("cases", "int", default=1000, help="sample count for randomized checks"),
        Opt("seed", "seed", default=0, help="sampling seed"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ],
    "defeater-bmo": [
        Opt("depth", "int", default=6, help="construction depth"),
        Opt("c0", "float", default=0.33, help="base profile amplitude"),
        Opt("K", "int", default=48, help="base profile truncation"),
        Opt("resolution", "float", default=1e-4, help="profile probe step"),
        Opt("window_samples", "int", default=1500, help="samples per pair-search window"),
        Opt("atoms_per_interval", "int", default=160, help="atoms per deepest interval"),
        Opt("grid", "int", default=20001, help="coarse quadrature grid size on [0,1]"),
        Opt("refine", "int", default=400, help="extra quadrature points per deepest interval"),
        Opt("annuli_csv", "str",
            help="write point_index,annulus_lo,annulus_hi,sum,cumulative rows here"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ],
}

_COMMAND_HELP = {
    "generate": "build a fixture cloud (CSV + JSON sidecar)",
    "dim": "box-counting dimension of a cloud",
    "density": "density profile at a point",
    "tangent": "approximate-tangent classification",
    "blowup": "rescaled zoom of a cloud at a point",
    "vconst": "flat-measure constant of a canonical plane",
    "verify": "run invariant check batteries",
    "defeater-bmo": "singular-energy sums for the regular defeater",
}


# ---------------------------------------------------------------------------
# Option merging


def _read_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{path}:{lineno}: expected key = value")
        entries.append((lineno, key.strip(), value.strip()))
    return entries


def _merge_options(command, args):
    opts = _COMMAND_OPTS[command]
    by_name = {o.name: o for o in opts}
    values = {o.name: o.default for o in opts}
    if args.config is not None:
        for lineno, key, raw in _read_config_file(args.config):
            if key not in by_name:
                raise CliError(f"{args.config}:{lineno}: unknown key {key!r} for {command}")
            try:
                values[key] = by_name[key].parse(raw)
            except CliError as exc:
                raise CliError(f"{args.config}:{lineno}: {exc}") from None
    for opt in opts:
        raw = getattr(args, opt.name)
        if raw is not None:
            try:
                values[opt.name] = opt.parse(raw)
            except CliError as exc:
                raise CliError(f"{opt.flag}: {exc}") from None
    for opt in opts:
        if opt.required and values[opt.name] is None:
            raise CliError(f"{command}: {opt.flag} is required")
    return values


# ---------------------------------------------------------------------------
# Report emission


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def _emit(command, config, result, out):
    """Full report to stdout, or to a file with a config echo on stdout."""
    echo = {"command": command, "version": __version__, "config": config}
    text = _json_text({**echo, "result": jsonable(result, digits=12)})
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        sys.stdout.write(_json_text(echo))


def _sidecar_path(out):
    path = Path(out)
    side = path.with_suffix(".json")
    if side == path:
        raise CliError("output and its .json sidecar coincide; use a non-.json output name")
    return side


def _save_cloud(mu, out):
    """Write mu to the CSV out; returns the report entry describing it."""
    save_cloud_csv(mu, out)
    return {"csv": str(out), "n": mu.n, "natoms": mu.natoms,
            "total_mass": mu.total_mass, "resolution_hint": mu.resolution_hint}


def _load_cloud(path):
    try:
        return load_cloud_csv(path)
    except OSError as exc:
        raise CliError(f"cannot read cloud: {exc}") from None
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_scales(value, mu):
    if isinstance(value, int):
        if value < 2:
            raise CliError("need at least 2 scales")
        r0 = mu.resolution()
        if not r0 or r0 <= 0.0:
            raise CliError("cloud resolution unavailable; pass explicit scale radii")
        return default_scales(r0, count=value)
    if len(value) < 2:
        raise CliError("need at least 2 scales")
    return list(value)


def _check_point(values, n):
    point = values["point"]
    if len(point) != n + 1:
        raise CliError(f"--point needs {n + 1} coordinates (x1..x{n},t), got {len(point)}")
    return np.asarray(point, dtype=float)


# ---------------------------------------------------------------------------
# Command handlers


def _cmd_generate(values):
    kind = values["kind"]
    spec_params = _KIND_PARAMS[kind]
    names = {name for name, _ in spec_params}
    # every kind parameter defaults to None and no parser returns None,
    # so a value that is not None was given by a flag or the config file
    for opt in _GEN_PARAM_OPTS:
        if values[opt.name] is not None and opt.name not in names:
            raise CliError(f"{opt.flag} does not apply to kind {kind!r}")
    merged = {}
    for name, default in spec_params:
        if values[name] is not None:
            merged[name] = values[name]
        elif default is _REQ:
            raise CliError(f"kind {kind!r} requires --{name.replace('_', '-')}")
        else:
            merged[name] = default
    config = {"kind": kind, "seed": values["seed"], "output": values["output"], **merged}
    out = values["output"]
    _sidecar_path(out)

    params = dict(merged)
    if kind in _ANALYTIC_KINDS:
        if params.pop("depth") != 0:
            raise CliError(f"kind {kind!r} is not iterated; only --depth 0 is accepted")
    if kind in ("flat_plane", "user_graph"):
        params["plane"] = {
            "n": params.pop("n"),
            "axes": list(params.pop("axes")),
            "t": params.pop("t_axis"),
        }
    if kind == "user_graph":
        exprs = [e.strip() for e in params.pop("expr").split(";") if e.strip()]
        if not exprs:
            raise CliError("--expr must hold at least one expression")
        params["expr"] = exprs
    params = {{"l_seq": "L_seq"}.get(k, k): v for k, v in params.items() if v is not None}

    mu, info = generate(GeneratorSpec(kind=kind, params=params, seed=values["seed"]))
    result = {"cloud": _save_cloud(mu, out), "info": sidecar_payload(info)}
    _emit("generate", config, result, _sidecar_path(out))
    return 0


def _cmd_dim(values):
    mu = _load_cloud(values["input"])
    scales = _resolve_scales(values["scales"], mu)
    rep = dimension_fit(
        mu, scales, metric=values["metric"], sum_exponents=tuple(values["sum_exponents"])
    )
    result = rep.to_dict()
    result["natoms"] = mu.natoms
    _emit("dim", values, result, values["output"])
    return 0


def _cmd_density(values):
    mu = _load_cloud(values["input"])
    a = _check_point(values, mu.n)
    scales = _resolve_scales(values["scales"], mu)
    est = density_profile(mu, a, values["s"], scales)
    result = est.to_dict()
    result["natoms"] = mu.natoms
    _emit("density", values, result, values["output"])
    return 0


def _cmd_tangent(values):
    mu = _load_cloud(values["input"])
    cfg = TangentConfig(
        m=values["m"],
        s_list=tuple(values["s_list"]),
        r_list=None if values["r_list"] is None else tuple(values["r_list"]),
        plane_budget=values["plane_budget"],
        threshold=values["threshold"],
        sample_size=values["sample_size"],
        seed=values["seed"],
        refine_rounds=values["refine_rounds"],
    )
    rep = classify_points(mu, cfg)
    if values["curves_csv"] is not None:
        rep.defect_curves_csv(values["curves_csv"])
    result = rep.to_dict()
    result["natoms"] = mu.natoms
    _emit("tangent", values, result, values["output"])
    return 0


def _cmd_blowup(values):
    mu = _load_cloud(values["input"])
    a = _check_point(values, mu.n)
    out = values["output"]
    _sidecar_path(out)
    nu = blowup_measure(mu, a, values["r"], normalization=values["normalization"], m=values["m"])
    result = {"cloud": _save_cloud(nu, out), "source_natoms": mu.natoms}
    _emit("blowup", values, result, _sidecar_path(out))
    return 0


def _cmd_vconst(values):
    est = flat_constant_estimate(
        values["n"],
        values["m"],
        values["family"],
        scales=None if values["scales"] is None else list(values["scales"]),
    )
    _emit("vconst", values, est.to_dict(), values["output"])
    return 0


def _cmd_defeater_bmo(values):
    mu, info = gen_regular_defeater(
        depth=values["depth"],
        resolution=values["resolution"],
        c0=values["c0"],
        K=values["K"],
        window_samples=values["window_samples"],
        atoms_per_interval=values["atoms_per_interval"],
    )
    tree = info["tree"]
    depth = values["depth"]
    a, b = tree.intervals(depth)
    mids = (a + b) / 2.0
    pieces = [np.linspace(0.0, 1.0, values["grid"])]
    pieces.extend(np.linspace(ai, bi, values["refine"]) for ai, bi in zip(a, b))
    pieces.append(mids)
    ts = np.unique(np.concatenate(pieces))
    fs = tree.eval(ts)
    energies = [bmo_energy(ts, fs, t0) for t0 in mids]
    totals = [e.total for e in energies]
    L_seq = info["L_seq"]
    threshold = sum(l * l for l in L_seq) / 16.0
    if values["annuli_csv"] is not None:
        with open(values["annuli_csv"], "w", encoding="utf-8", newline="") as fh:
            fh.write("point_index,annulus_lo,annulus_hi,sum,cumulative\n")
            for i, e in enumerate(energies):
                for (lo, hi), s, c in zip(e.annuli, e.sums, e.cumulative):
                    fh.write(f"{i},{float(lo)!r},{float(hi)!r},{float(s)!r},{float(c)!r}\n")
    result = {
        "natoms": mu.natoms,
        "L_seq": L_seq,
        "c": info["c"],
        "threshold": threshold,
        "points": mids,
        "totals": totals,
        "min_total": min(totals),
        "all_exceed": bool(min(totals) > threshold),
    }
    _emit("defeater-bmo", values, result, values["output"])
    return 0


def _cmd_verify(values):
    suites = list(SUITES) if values["suite"] == "all" else [values["suite"]]
    cases = values["cases"]
    if cases < 1:
        raise CliError("--cases must be >= 1")
    checks = []
    violations = []
    for suite in suites:
        for name, fn in SUITES[suite]:
            passed, detail = fn(cases, values["seed"])
            checks.append({"suite": suite, "name": name, "passed": bool(passed), "detail": detail})
            if not passed:
                violations.append({"suite": suite, "name": name, "detail": detail})
    result = {
        "checks": checks,
        "violations": violations,
        "passed": len(violations) == 0,
    }
    _emit("verify", values, result, values["output"])
    return 0 if not violations else 2


_HANDLERS = {
    "generate": _cmd_generate,
    "dim": _cmd_dim,
    "density": _cmd_density,
    "tangent": _cmd_tangent,
    "blowup": _cmd_blowup,
    "vconst": _cmd_vconst,
    "verify": _cmd_verify,
    "defeater-bmo": _cmd_defeater_bmo,
}


# ---------------------------------------------------------------------------
# Entry point


def _build_parser():
    parser = _Parser(prog="parabgmt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"parabgmt {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for command, opts in _COMMAND_OPTS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command], description=_COMMAND_HELP[command])
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        for opt in opts:
            flags = [opt.flag]
            if opt.name == "input":
                flags.insert(0, "-i")
            if opt.name == "output":
                flags.insert(0, "-o")
            p.add_argument(*flags, dest=opt.name, metavar="V", default=None, help=opt.help)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        values = _merge_options(args.command, args)
        return _HANDLERS[args.command](values)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # anything else (say a typo inside --expr) still gets a one-line
        # diagnostic and exit 1 rather than a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

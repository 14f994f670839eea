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
import inspect
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._report import jsonable
from ._version import __version__
from .checks import SUITES
from .generators import (
    GENERATORS,
    GeneratorSpec,
    defeater_energies,
    gen_regular_defeater,
    generate,
    sidecar_payload,
)
from .measure import (
    SCALE_COUNT,
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


_SCALES_HELP = "integer = number of default scales, or a comma list of radii"


def _param_opt(fn, name, kind, **kw):
    """The option that feeds parameter `name` of fn, a library function or
    config class; it takes fn's default, so the two cannot drift apart."""
    return Opt(name, kind, default=inspect.signature(fn).parameters[name].default, **kw)


# ---------------------------------------------------------------------------
# Generator kinds

# the default of a builder parameter without one: the user must supply it
_REQ = inspect.Parameter.empty

# builder parameters that reach the command line other than as one flag of
# their own name: the plane V as its axis flags, the graph map g as --expr
# text, and the seed as the common --seed
_PARAM_FLAGS = {
    "V": [("n", _REQ), ("axes", ()), ("t_axis", False)],
    "g": [("expr", _REQ)],
    "seed": [],
}

# builder parameter -> option name, where they differ (options are lower case)
_OPTION_NAMES = {"L_seq": "l_seq"}


def _kind_params(kind):
    """[(option name, default or _REQ)] of a generator kind, read from the
    signature of its builder.  The plane flags come first, so a missing
    --n is named before a missing --expr.  A builder that takes no depth
    is not iterated and gets depth 0, the only depth it accepts."""
    sig = inspect.signature(GENERATORS[kind]).parameters
    out = []
    for param in sorted(sig.values(), key=lambda q: q.name != "V"):
        name = _OPTION_NAMES.get(param.name, param.name)
        out += _PARAM_FLAGS.get(param.name, [(name, param.default)])
    if "depth" not in sig:
        out.append(("depth", 0))
    return out


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
    opts = _COMMANDS[command][2]
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
    spec_params = _kind_params(kind)
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
    takes = inspect.signature(GENERATORS[kind]).parameters
    if "depth" not in takes and params.pop("depth") != 0:
        raise CliError(f"kind {kind!r} is not iterated; only --depth 0 is accepted")
    if "V" in takes:
        params["plane"] = {
            "n": params.pop("n"),
            "axes": list(params.pop("axes")),
            "t": params.pop("t_axis"),
        }
    if "g" in takes:
        exprs = [e.strip() for e in params.pop("expr").split(";") if e.strip()]
        if not exprs:
            raise CliError("--expr must hold at least one expression")
        params["expr"] = exprs
    builder_names = {opt: name for name, opt in _OPTION_NAMES.items()}
    params = {builder_names.get(k, k): v for k, v in params.items() if v is not None}

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
    search = {f.name: values[f.name] for f in fields(TangentConfig)}
    cfg = TangentConfig(**{k: tuple(v) if isinstance(v, list) else v for k, v in search.items()})
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
    est = flat_constant_estimate(values["n"], values["m"], values["family"], values["scales"])
    _emit("vconst", values, est.to_dict(), values["output"])
    return 0


def _cmd_defeater_bmo(values):
    takes = inspect.signature(gen_regular_defeater).parameters
    mu, info = gen_regular_defeater(**{k: v for k, v in values.items() if k in takes})
    mids, energies = defeater_energies(info["tree"], values["grid"], values["refine"])
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


# ---------------------------------------------------------------------------
# Command table: command -> (help, handler, options), in --help order

_COMMANDS = {
    "generate": ("build a fixture cloud (CSV + JSON sidecar)", _cmd_generate, [
        Opt("kind", "str", required=True, choices=sorted(GENERATORS), help="generator family"),
        _param_opt(GeneratorSpec, "seed", "int", help="generator seed"),
        Opt("output", "str", required=True,
            help="cloud CSV path; report goes to the .json sidecar"),
        *_GEN_PARAM_OPTS,
    ]),
    "dim": ("box-counting dimension of a cloud", _cmd_dim, [
        Opt("input", "str", required=True, help="cloud CSV"),
        _param_opt(dimension_fit, "metric", "str", choices=("parabolic", "euclidean")),
        Opt("scales", "scales", default=SCALE_COUNT, help=_SCALES_HELP),
        _param_opt(dimension_fit, "sum_exponents", "floats",
                   help="also report N(r)(2r)^s for these exponents"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ]),
    "density": ("density profile at a point", _cmd_density, [
        Opt("input", "str", required=True, help="cloud CSV"),
        Opt("point", "floats", required=True, help="comma list x1,..,xn,t"),
        Opt("s", "float", required=True, help="density exponent"),
        Opt("scales", "scales", default=SCALE_COUNT, help=_SCALES_HELP),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ]),
    "tangent": ("approximate-tangent classification", _cmd_tangent, [
        Opt("input", "str", required=True, help="cloud CSV"),
        Opt("m", "int", required=True, help="homogeneous dimension of candidate planes"),
        _param_opt(TangentConfig, "s_list", "floats", help="cone apertures"),
        _param_opt(TangentConfig, "r_list", "floats",
                   help="cone radii (default: 8,4,2 x cloud resolution)"),
        _param_opt(TangentConfig, "plane_budget", "int", help="sampled candidate planes"),
        _param_opt(TangentConfig, "threshold", "float", help="max tolerated cone defect"),
        _param_opt(TangentConfig, "sample_size", "int", help="atoms classified"),
        _param_opt(TangentConfig, "seed", "seed", help="subsample and plane-sampling seed"),
        _param_opt(TangentConfig, "refine_rounds", "int", help="local refinement rounds"),
        Opt("curves_csv", "str", help="write point_index,r,s,defect rows here"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ]),
    "blowup": ("rescaled zoom of a cloud at a point", _cmd_blowup, [
        Opt("input", "str", required=True, help="cloud CSV"),
        Opt("point", "floats", required=True, help="zoom center x1,..,xn,t"),
        Opt("r", "float", required=True, help="zoom scale"),
        _param_opt(blowup_measure, "normalization", "str", choices=("mass", "power")),
        _param_opt(blowup_measure, "m", "float", help="exponent for power normalization"),
        Opt("output", "str", required=True,
            help="rescaled cloud CSV; report goes to the .json sidecar"),
    ]),
    "vconst": ("flat-measure constant of a canonical plane", _cmd_vconst, [
        Opt("n", "int", required=True, help="ambient horizontal dimension"),
        Opt("m", "int", required=True, help="homogeneous dimension of the plane"),
        Opt("family", "str", default="horizontal", choices=("horizontal", "vertical")),
        _param_opt(flat_constant_estimate, "scales", "floats",
                   help="packing radii (default schedule when omitted)"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ]),
    "verify": ("run invariant check batteries", _cmd_verify, [
        Opt("suite", "str", default="all", choices=(*SUITES, "all")),
        Opt("cases", "int", default=1000, help="sample count for randomized checks"),
        Opt("seed", "seed", default=0, help="sampling seed"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ]),
    "defeater-bmo": ("singular-energy sums for the regular defeater", _cmd_defeater_bmo, [
        _param_opt(gen_regular_defeater, "depth", "int", help="construction depth"),
        _param_opt(gen_regular_defeater, "c0", "float", help="base profile amplitude"),
        _param_opt(gen_regular_defeater, "K", "int", help="base profile truncation"),
        _param_opt(gen_regular_defeater, "resolution", "float", help="profile probe step"),
        _param_opt(gen_regular_defeater, "window_samples", "int",
                   help="samples per pair-search window"),
        _param_opt(gen_regular_defeater, "atoms_per_interval", "int",
                   help="atoms per deepest interval"),
        _param_opt(defeater_energies, "grid", "int", help="coarse quadrature grid size on [0,1]"),
        _param_opt(defeater_energies, "refine", "int",
                   help="extra quadrature points per deepest interval"),
        Opt("annuli_csv", "str",
            help="write point_index,annulus_lo,annulus_hi,sum,cumulative rows here"),
        Opt("output", "str", help="report path (stdout when omitted)"),
    ]),
}


# ---------------------------------------------------------------------------
# Entry point


def _build_parser():
    parser = _Parser(prog="parabgmt", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"parabgmt {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for command, (text, _, opts) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, description=text)
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
        return _COMMANDS[args.command][1](values)
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

"""Steadiness check: run one workload k times on this checkout.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seconds S] [--seed0 1]

Run from the root of a source checkout; --seconds defaults to
run_seconds of BENCHMARK.json.

Each run gets its own seed (seed0, seed0 + 1, ...).  For every
end-to-end metric it prints the median, the quartiles, the interquartile
range as a share of the median (the spread a comparison is judged by)
and the largest deviation from the median, for the calibrated values
and, beside them, the raw seconds the same runs measured.  A later
change whose difference from its parent is smaller than this spread is
unresolved, not unchanged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_frac": (q3 - q1) / med if med else 0.0,
        "max_dev_frac": max(abs(v - med) for v in values) / med if med else 0.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int,
                    default=json.loads(Path("BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)

    calibrated, raw, failures = {}, {}, 0
    for i in range(args.runs):
        seed = args.seed0 + i
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        diag = json.loads(lines[-2])["diagnostics"]
        result = json.loads(lines[-1])
        failures += result["failed"]
        for name, m in result["metrics"].items():
            calibrated.setdefault(name, []).append(m["value"])
        for name, v in diag["raw"].items():
            raw.setdefault(name, []).append(v)
        calibrated.setdefault("ref_s", []).append(diag["ref_s"])
        print(json.dumps({"seed": seed, "failed": result["failed"],
                          **{k: float(f"{v[-1]:.6g}") for k, v in calibrated.items()},
                          **{f"raw.{k}": float(f"{v[-1]:.6g}") for k, v in raw.items()}}),
              flush=True)

    print(f"{args.workload}: {args.runs} runs, {failures} failed operations")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'iqr':>8}{'maxdev':>8}"
          f"   | raw{'median':>9}{'iqr':>8}{'maxdev':>8}")
    for name, values in calibrated.items():
        c = summary(values)
        line = (f"{name:<14}{c['median']:>12.5g}{c['q1']:>12.5g}{c['q3']:>12.5g}"
                f"{c['iqr_frac']:>8.1%}{c['max_dev_frac']:>8.1%}")
        if name in raw:
            r = summary(raw[name])
            line += f"   |    {r['median']:>9.5g}{r['iqr_frac']:>8.1%}{r['max_dev_frac']:>8.1%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

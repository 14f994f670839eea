"""parabgmt benchmark: fresh CLI processes, checked outputs, calibrated times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Workloads: cover, tangent, packing, certify (see workloads.py).

--trace 0 (end to end): builds the workload's inputs with `generate`
several times (setup_s), then repeats the timed command sequence, one
fresh process after another, for about S seconds (wall_s is the median
sequence time; peak_rss_mb the largest peak RSS of a timed process).
The benchmark and its children share one CPU, and a thread times a short
reference kernel (calib.py) on that CPU every 40 ms, also while a child
runs; each command's time is scaled by REF_NOMINAL_S over the mean of
the reference times sampled during it.

--trace 1 (per layer): imports ./src once and runs the workload, set-up
included, in this process through parabgmt.cli.main and the certify
script: once untraced, then twice under the span tracer (tracer.py),
whose counts must agree exactly.  Layer times are calibrated by the
reference samples taken during the traced passes.  The tangent commands
run again on 2 worker threads, whose reports must match byte for byte.
This run makes fixed passes and ignores --seconds.

Every command counts as one operation.  It fails when it exits non-zero,
when its output misses its known result, or when its report bytes
differ from the first repetition.  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}; the line before it holds
diagnostics (raw seconds, reference times, per-command timings, errors).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calib
import workloads

HERE = Path(__file__).resolve().parent

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
ALL_CPUS = os.sched_getaffinity(0)
PINNED = {max(ALL_CPUS)}
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import parabgmt.cli; "
    "print(time.perf_counter() - t0)"
)


def timed(fn):
    """Run fn(); returns its result and the (start, end) piece of time."""
    t0 = time.perf_counter()
    result = fn()
    return result, (t0, time.perf_counter())


def raw(piece):
    return piece[1] - piece[0]


class Outcome:
    def __init__(self, rc, stdout, stderr, rss_mb=0.0):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.rss_mb = rss_mb


class Ledger:
    """Attempted and failed operations, and the first report bytes of each."""

    def __init__(self):
        self.attempted = 0
        self.errors = []
        self.digests = {}

    def record(self, cmd, outcome, workdir):
        self.attempted += 1
        error = None
        if outcome.rc != 0:
            tail = outcome.stderr.strip().splitlines()[-1:] or [""]
            error = f"{cmd.name}: exit {outcome.rc}: {tail[0]}"
        else:
            try:
                error = cmd.check(workdir, outcome.stdout)
            except Exception as exc:  # a malformed report is a failed check
                error = f"{cmd.name}: unreadable output: {type(exc).__name__}: {exc}"
        if error is None:
            digest = _digest(workdir, cmd.outputs)
            if digest != self.digests.setdefault(cmd.name, digest):
                error = f"{cmd.name}: report bytes differ from the first repetition"
        if error is not None:
            self.errors.append(error)


def _digest(workdir, outputs):
    h = hashlib.sha256()
    for name in outputs:
        h.update(name.encode())
        h.update((workdir / name).read_bytes())
    return h.hexdigest()


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PARABGMT_THREADS", None)
    return env


def _argv(cmd):
    if cmd.script is None:
        return [sys.executable, "-m", "parabgmt.cli", *cmd.argv]
    return [sys.executable, str(HERE / f"{cmd.script}.py"), *cmd.argv]


def run_child(argv, workdir, env):
    """One child process; returns its Outcome, with peak RSS from wait4."""
    out_path, err_path = workdir / ".stdout", workdir / ".stderr"
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_text(errors="replace"),
                   err_path.read_text(errors="replace"), usage.ru_maxrss / 1024.0)


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# End-to-end run


def end_to_end(workload, seed, seconds, workdir, sampler):
    env = _child_env()
    ledger = Ledger()
    # compile the package's bytecode before anything is timed
    warm = run_child([sys.executable, "-c", "import parabgmt.cli"], workdir, env)
    if warm.rc != 0:
        raise SystemExit(f"cannot import parabgmt from {SRC}: {warm.stderr.strip()}")
    timeline = []  # (phase, command, outcome, piece)

    def run(phase, cmd):
        outcome, piece = timed(lambda: run_child(_argv(cmd), workdir, env))
        ledger.record(cmd, outcome, workdir)
        timeline.append((phase, cmd.name, outcome, piece))

    for k in range(SETUP_REPS):
        for cmd in workloads.SETUP[workload]:
            run(f"setup{k}", cmd)
    cmds = workloads.timed(workload, workdir, seed)
    start, reps = time.perf_counter(), 0
    while True:
        for cmd in cmds:
            run(f"rep{reps}", cmd)
        reps += 1
        elapsed = time.perf_counter() - start
        # stop when one more repetition would end over half a repetition late
        if elapsed + elapsed / reps / 2.0 > seconds:
            break

    def per_phase(prefix, value):
        totals = {}
        for phase, _, _, piece in timeline:
            if phase.startswith(prefix):
                totals[phase] = totals.get(phase, 0.0) + value(piece)
        return _median(list(totals.values()))

    metrics = {
        "wall_s": (per_phase("rep", sampler.cal), "s"),
        "setup_s": (per_phase("setup", sampler.cal), "s"),
        "peak_rss_mb": (max(o.rss_mb for ph, _, o, _ in timeline if ph.startswith("rep")), "MB"),
    }
    diagnostics = {
        "raw": {"wall_s": per_phase("rep", raw), "setup_s": per_phase("setup", raw)},
        "ref_s": sampler.median(),
        "ref_nominal_s": calib.REF_NOMINAL_S,
        "reps": reps,
        "setup_reps": SETUP_REPS,
        "commands": [(ph, name, raw(pc), sampler.ref(*pc)) for ph, name, _, pc in timeline],
    }
    return ledger, metrics, diagnostics


# ---------------------------------------------------------------------------
# Traced run


def _import_time(workdir, env, ledger, reps=3):
    """Pieces of time of `import parabgmt.cli` in fresh processes."""
    pieces = []
    for _ in range(reps):
        outcome = run_child([sys.executable, "-c", IMPORT_PROBE], workdir, env)
        end = time.perf_counter()
        ledger.attempted += 1
        try:
            pieces.append((end - float(outcome.stdout.strip()), end))
        except ValueError:
            ledger.errors.append(f"import probe: exit {outcome.rc}: {outcome.stderr.strip()}")
    return pieces


class InProcess:
    """Runs commands through parabgmt.cli.main and the certify script."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import certify_lib
        import parabgmt.cli

        self.cli = parabgmt.cli
        self.certify = certify_lib

    def __call__(self, cmd):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if cmd.script is None:
                    rc = self.cli.main(cmd.argv)
                else:
                    rc = self.certify.main(cmd.argv)
            except SystemExit as exc:  # argparse's --version action
                rc = exc.code or 0
        return Outcome(rc, out.getvalue(), err.getvalue())


def _renamed(cmd, prefix):
    """cmd with every output file renamed prefix + name."""
    argv = [prefix + a if a in cmd.outputs else a for a in cmd.argv]
    return workloads.Cmd(cmd.name, argv, [prefix + o for o in cmd.outputs], cmd.check,
                         cmd.script)


def traced(workload, seed, seconds, workdir, sampler):
    from tracer import Tracer, layer_metrics

    env = _child_env()
    ledger = Ledger()
    import_pieces = _import_time(workdir, env, ledger)
    runner = InProcess()
    os.chdir(workdir)
    cmds = None

    def one_pass():
        nonlocal cmds
        pieces = []
        for cmd in workloads.SETUP[workload]:
            outcome, piece = timed(lambda: runner(cmd))
            ledger.record(cmd, outcome, workdir)
            pieces.append(piece)
        if cmds is None:
            cmds = workloads.timed(workload, workdir, seed)
        for cmd in cmds:
            outcome, piece = timed(lambda: runner(cmd))
            ledger.record(cmd, outcome, workdir)
            pieces.append(piece)
        return pieces

    plain = one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        passes, stats = [], []
        for _ in range(2):
            tracer.reset()
            passes.append(one_pass())
            stats.append(tracer.stats)
    finally:
        tracer.uninstall()
    ledger.attempted += 1
    counts = [st.counts() for st in stats]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        ledger.errors.append(f"trace counts differ between two traced passes: {diff}")

    speedup = 0.0
    threaded = [c for c in cmds if c.threads_pass]
    if threaded:
        one = two = 0.0
        # both sides may use every CPU; they are compared in raw seconds,
        # one command at a time, because a worker thread that shares the
        # sampler's CPU also delays the sampler
        os.sched_setaffinity(0, ALL_CPUS)
        try:
            for cmd in threaded:
                _, piece = timed(lambda: runner(cmd))
                one += raw(piece)
                moved = _renamed(cmd, "t2_")
                os.environ["PARABGMT_THREADS"] = "2"
                try:
                    outcome, piece = timed(lambda: runner(moved))
                finally:
                    del os.environ["PARABGMT_THREADS"]
                two += raw(piece)
                ledger.attempted += 1
                if outcome.rc != 0 or not _same_but_path(workdir, cmd.outputs, moved.outputs):
                    ledger.errors.append(f"{cmd.name}: 2-thread report differs from 1-thread report")
        finally:
            os.sched_setaffinity(0, PINNED)
        speedup = one / two

    def total(pieces, value=sampler.cal):
        return sum(value(p) for p in pieces)

    untraced = total(plain)
    traced_s = [total(ps) for ps in passes]
    ref_traced = sampler.ref(passes[0][0][0], passes[-1][-1][1])
    metrics = layer_metrics(stats, calib.REF_NOMINAL_S / ref_traced)
    metrics.update({
        "cli.import_s": (_median([sampler.cal(p) for p in import_pieces]), "s"),
        "rectify.thread_speedup_2": (speedup, "ratio"),
        "bench.ref_s": (sampler.median(), "s"),
        "bench.raw_wall_s": (total(plain, raw), "s"),
        "trace.overhead_frac": (statistics.fmean(traced_s) / untraced - 1.0, "ratio"),
    })
    diagnostics = {
        "untraced_s": untraced,
        "traced_s": traced_s,
        "ref_s": sampler.median(),
        "counts": counts[0],
    }
    return ledger, metrics, diagnostics


def _same_but_path(workdir, outputs, moved):
    for a, b in zip(outputs, moved):
        data = (workdir / b).read_bytes()
        for old, new in zip(outputs, moved):
            data = data.replace(new.encode(), old.encode())
        if data != (workdir / a).read_bytes():
            return False
    return True


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description="parabgmt benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "parabgmt" / "cli.py").is_file():
        print(f"error: no parabgmt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # the benchmark, its sampler thread and its children share one CPU, so
    # the reference kernel measures the CPU the timed commands run on
    os.sched_setaffinity(0, PINNED)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = traced if args.trace else end_to_end
        with calib.Sampler() as sampler:
            ledger, metrics, diagnostics = run(
                args.workload, args.seed, args.seconds, workdir, sampler)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    diagnostics["errors"] = ledger.errors
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": not ledger.errors,
        "attempted": ledger.attempted,
        "failed": len(ledger.errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""choiwit benchmark: one workload, one seed, timed from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload scan_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end metrics,
with every time scaled to a reference host speed (``calibrate.py``);
``--trace 1`` replays the same operations with choiwit's public functions
wrapped and reports per-layer metrics.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it repeat every metric by name with its unit, the correctness
outcome and the provenance.  A full report is written to ``.perfbench_out/``.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here in a set-up probe

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import calibrate
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent

#: Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
#: Percentile reported as op_tail_ms.
TAIL_PERCENTILE = 90
#: Slices of the timed run whose median rate is items_per_s.
THROUGHPUT_SLICES = 10

UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_choiwit():
    """Import choiwit from this checkout's ``src``, never from an installed copy."""
    if not (SRC / "choiwit" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'choiwit'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import choiwit

    if Path(choiwit.__file__).resolve().parent != (SRC / "choiwit").resolve():
        raise SystemExit(f"error: imported choiwit from {choiwit.__file__}, not from {SRC}")
    return choiwit


def setup(workload, seed, workdir):
    """Make the workload's inputs and run one warm-up operation."""
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.run(wl.ops[0])
    return wl


def setup_probe(args):
    """Set up once; prints the wall time with the probe's slices taken out, and its scale."""
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        with calibrate.SpeedProbe() as probe:
            import_choiwit()
            setup(args.workload, args.seed, workdir)
            end = time.perf_counter()
        wall = end - _T0 - probe.spent(_T0, end)
        print(json.dumps({"setup_s": wall, "scale": probe.scale(_T0, end)}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times, scales = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["setup_s"])
        scales.append(probe["scale"])
    return times, scales


class Tally:
    """Outcome of every distinct input a run attempts.

    The timed loop repeats inputs from a fixed pool as often as the run's
    length allows, and every repetition is checked.  An input counts once,
    with its worst outcome, so ``attempted`` and ``failed`` depend on the
    inputs alone and not on how many repetitions fit into the run.
    """

    RANK = {workloads.OK: 0, workloads.REFUSED: 1, workloads.WRONG: 2}

    def __init__(self):
        self.outcomes = {}
        self.examples = []

    def add(self, wl, op, raw):
        try:
            outcome, detail = wl.check(op, raw)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            outcome, detail = workloads.WRONG, f"unparsable output: {exc!r}"
        key = id(op)
        if key not in self.outcomes or self.RANK[outcome] > self.RANK[self.outcomes[key]]:
            self.outcomes[key] = outcome
        if outcome != workloads.OK and sum(e["outcome"] == outcome for e in self.examples) < 10:
            self.examples.append({"outcome": outcome, "input": op.get("argv") or op.get("abc"), "detail": detail})

    def cover(self, wl, ops):
        """Run, untimed, every op of ops this run has not attempted yet."""
        run_ops(wl, [op for op in ops if id(op) not in self.outcomes], self)

    @property
    def counts(self):
        values = list(self.outcomes.values())
        return {outcome: values.count(outcome) for outcome in self.RANK}

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return self.attempted - self.counts[workloads.OK]


def run_ops(wl, ops, tally, probe=None, windows=None):
    """Run ops in order, checking each output; returns per-operation seconds.

    With a probe, the time its slices took inside an operation is taken out,
    and each operation's (start, end) is appended to windows.
    """
    seconds = []
    for op in ops:
        (t0, t1), raw = wl.run(op)
        seconds.append(t1 - t0 - (probe.spent(t0, t1) if probe else 0.0))
        if windows is not None:
            windows.append((t0, t1))
        tally.add(wl, op, raw)
    return seconds


def run_for(wl, budget_s, tally):
    """Closed loop over the op pool until budget_s has passed, with the speed probe on.

    Returns (ops, seconds, scale, slice_ms): seconds[i] is operation i's wall
    time without the probe's slices, and scale[i] the factor that turns it
    into time at the reference speed.
    """
    ops, seconds, windows = [], [], []
    with calibrate.SpeedProbe() as probe:
        deadline = time.perf_counter() + budget_s
        while not ops or time.perf_counter() < deadline:
            op = wl.ops[len(ops) % len(wl.ops)]
            ops.append(op)
            seconds += run_ops(wl, [op], tally, probe, windows)
    scale = [probe.scale(t0, t1) for t0, t1 in windows]
    return ops, seconds, scale, probe.slice_ms()


def tail(ms):
    """(value, percentile, samples beyond it) for op_tail_ms.

    The highest nearest-rank percentile, from the median up to
    TAIL_PERCENTILE, that leaves at least ten samples beyond it.  A run of
    20 operations or fewer has no such percentile above the median, and
    reports the median.  The cap keeps runs and commits on one percentile
    once a run has 100 operations: the 11th-largest time of a long run
    tracks host hiccups and spread 25% run to run on detect_states.
    """
    ordered = sorted(ms)
    n = len(ordered)
    rank = max(math.ceil(n / 2), min(math.ceil(TAIL_PERCENTILE / 100 * n), n - 10))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def throughput(ops, seconds):
    """Items per second of operation time, median over equal consecutive slices of the run.

    A median over slices keeps a few seconds of host slowdown from moving
    the figure, as a plain total would.
    """
    n = len(ops)
    rates = []
    for k in range(THROUGHPUT_SLICES):
        lo, hi = k * n // THROUGHPUT_SLICES, (k + 1) * n // THROUGHPUT_SLICES
        if hi > lo:
            rates.append(sum(op["items"] for op in ops[lo:hi]) / sum(seconds[lo:hi]))
    return statistics.median(rates)


def provenance(seed):
    import choiwit

    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")} for k in ("blas", "lapack") if k in deps}
    except (TypeError, AttributeError):  # numpy < 1.26 has no dict mode
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        if target is None:
            commit = ref
        elif target.is_file():
            commit = target.read_text().strip()
    sources = sorted((SRC / "choiwit").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "choiwit": choiwit.__version__,
        "blas_lapack": blas,
        "threads": {k: os.environ.get(k, "unset (library default)") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or platform.machine(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_loc": sum(len(path.read_text().splitlines()) for path in sources),
    }


def end_to_end(args, workdir):
    setup_raw, setup_scale = measure_setup(args)
    wl = setup(args.workload, args.seed, workdir)
    tally = Tally()
    ops, raw_seconds, scale, slice_ms = run_for(wl, args.seconds, tally)
    tally.cover(wl, wl.ops + wl.extra_ops)
    # Every time below is at the reference speed (calibrate.py); the raw
    # wall times are kept in the report.
    seconds = [s * k for s, k in zip(raw_seconds, scale)]
    ms = [s * 1e3 for s in seconds]
    setup_times = [s * k for s, k in zip(setup_raw, setup_scale)]
    tail_ms, tail_pct, beyond = tail(ms)
    metrics = {
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail_ms,
        "items_per_s": throughput(ops, seconds),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_p50 = statistics.median(raw_seconds) * 1e3
    notes = {
        "op_p50_ms": f"at the reference speed; {raw_p50:.4f} ms wall, host at "
                     f"{calibrate.REFERENCE_MS / statistics.median(slice_ms):.3f}x the reference speed",
        "op_tail_ms": f"p{tail_pct:.4g} of {len(ms)} timed operations, {beyond} beyond it",
        "items_per_s": f"{wl.item} per second of operation time, median over {THROUGHPUT_SLICES} slices of the run; "
                       f"{throughput(ops, raw_seconds):.4f} at wall speed",
        "setup_s": f"median of {SETUP_PROBES} fresh processes: {', '.join(f'{t:.4f}' for t in setup_times)}; "
                   f"wall {', '.join(f'{t:.4f}' for t in setup_raw)}",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    details = {"timed_operations": len(ms), "tail_percentile": tail_pct, "tail_beyond": beyond,
               "setup_wall_s": setup_raw, "setup_scale": setup_scale, "slice_ms": slice_ms,
               "op_wall_ms": [s * 1e3 for s in raw_seconds], "op_scale": scale}
    return wl, tally, metrics, notes, details


def traced(args, workdir):
    wl = setup(args.workload, args.seed, workdir)
    tally = Tally()
    tracer = Tracer()
    plain_s, traced_s, n_ops = 0.0, 0.0, 0
    deadline = time.perf_counter() + args.seconds
    # Whole cycles, each run untraced and traced back to back with the order
    # alternating, so host speed drift cancels out of the overhead ratio.
    for k in itertools.count():
        ops = [wl.ops[(k * wl.cycle + j) % len(wl.ops)] for j in range(wl.cycle)]
        for traced_pass in ((False, True) if k % 2 == 0 else (True, False)):
            if not traced_pass:
                plain_s += sum(run_ops(wl, ops, tally))
                continue
            with tracer:
                for op in ops:
                    tracer.op_id = n_ops
                    n_ops += 1
                    traced_s += sum(run_ops(wl, [op], tally))
        if time.perf_counter() >= deadline:
            break
    tally.cover(wl, wl.ops + wl.extra_ops)
    metrics, totals = tracer.summary(n_ops)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.save(spans)
    seed_counts = json.loads((HERE / "seed_counts.json").read_text()).get(args.workload, {})
    drift = {k: [v, metrics[k]] for k, v in seed_counts.items() if metrics[k] != v}
    notes = {
        "trace.overhead_ratio": f"{traced_s:.4f} s traced / {plain_s:.4f} s untraced over the same {n_ops} operations",
        "counts": "equal to the recorded seed counts" if not drift else f"differ from the recorded seed counts: {drift}",
    }
    details = {"totals": totals, "spans_file": spans.name, "count_drift_from_seed": drift}
    return wl, tally, metrics, notes, details


def run_all(args):
    """Run every workload in turn, each in its own process; the last line maps workload to result."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)

    import_choiwit()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl, tally, metrics, notes, details = (traced if args.trace else end_to_end)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args.seed)
    fail_ratio = tally.failed / tally.attempted
    correct = tally.counts[workloads.WRONG] == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {value:.6g} {unit_of(name)}{note}")
    print(f"{'fail_ratio':48s} {fail_ratio:.6g} ratio  ({tally.failed} of {tally.attempted} operations disagree "
          f"with the oracle: {tally.counts[workloads.REFUSED]} refused, {tally.counts[workloads.WRONG]} wrong)")
    for example in sorted(tally.examples, key=lambda e: e["outcome"] != workloads.WRONG)[:5]:
        print(f"  {example['outcome']}: {example['input']}: {example['detail']}")
    if getattr(wl, "digest", None):
        print(f"scan CSV sha256 {wl.digest} (recorded, not gated)")
    if getattr(wl, "warnings", None) is not None:
        print(f"RuntimeWarnings from positivity_search: {wl.warnings}")
    if "counts" in notes:
        print(f"exact counts: {notes['counts']}")
    print(f"correct: {correct}")

    OUT.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, "metrics": metrics, "notes": notes, "details": details,
        "outcomes": tally.counts, "fail_ratio": fail_ratio, "examples": tally.examples,
        "scan_csv_sha256": getattr(wl, "digest", None), "runtime_warnings": getattr(wl, "warnings", None),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


def unit_of(name):
    """Unit of an end-to-end metric, or of a per-layer metric (normalized per operation)."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms/op"
    if name.endswith(".per_certify"):
        return "calls/cert"
    if name.endswith("_ratio"):
        return "ratio"
    return "count/op"


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of benchmark runs, summarised as one BENCH_<n>.json.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_20.json \\
        --workload scan_grid:10 --workload check_points:4 --seconds 20 --first-seed 2001 \\
        --claim "scan_grid op_p50_ms lower"

Each pair runs ``perfbench/run.py --trace 0`` once from each checkout, with one
seed, the parent first in even pairs and the change first in odd ones.  The
seed of pair p of the k-th workload is first-seed + 20*k + p.  Each run's last
output line (the JSON result) is kept, with the scan CSV sha256 it prints.
The summary gives, per workload and end-to-end metric of the change's
BENCHMARK.json, both sides' medians and interquartile ranges, the relative
change of the medians, the pairs the change won and whether the change stays
within the metric's bound.  A metric is unresolved where the parent's
interquartile range over its median is wider than the bound and not every
change run reads better than every parent run: its spread hides a change of
the bound's size.  The file is rewritten after every run, so an
interrupted session leaves the pairs it finished.

``--fresh N`` also times what a user waits for: N alternating pairs of fresh
``python -m choiwit`` processes per CLI path (``detect`` on a P+ state file,
``check 1/3 1/3 4/3`` and a 1001-step ``scan --out`` to the null device), each
side from its checkout's ``src``, sharing one bytecode cache in a temporary
directory that an untimed first run of each side and path fills.  Each path's
wall-time medians and interquartile ranges go under ``"fresh"``, with whether
both sides gave the same exit code and output, and beside them the same for
the child's CPU time, user plus system, from ``os.wait4``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED_STRIDE = 20
SIDES = ("parent", "change")
#: The CLI paths --fresh times, as choiwit argv; {state} is the P+ state file.
FRESH_PATHS = {
    "detect": ["detect", "0", "1", "1", "{state}"],
    "check": ["check", "1/3", "1/3", "4/3"],
    "scan": ["scan", "--alpha-start", "pi/3", "--alpha-end", "5pi/3", "--steps", "1001", "--out", os.devnull],
}
#: The maximally entangled projector P+ in the 9-line state format: 1/3 where both indices are 0, 4 or 8.
P_PLUS = "".join(
    " ".join("0.333333333333" if i % 4 == 0 and j % 4 == 0 else "0" for j in range(9)) + "\n" for i in range(9)
)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, str | None, dict]:
    """One untraced run: its JSON result, the scan CSV sha256 it printed, its provenance."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    digest = next((line.split()[3] for line in lines if line.startswith("scan CSV sha256 ")), None)
    prov = next((json.loads(line[len("provenance "):]) for line in lines if line.startswith("provenance ")), {})
    return json.loads(lines[-1]), digest, prov


def _iqr(values: list[float]) -> float:
    """Distance between the quartiles, interpolated linearly (numpy's default percentiles)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarise(runs: list[dict], bounds: dict) -> dict:
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in (r for r in runs if r["workload"] == workload):
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        whole = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        if not whole:
            continue
        entry = {
            "pairs": len(whole),
            "attempted": whole[0]["parent"]["attempted"],
            "correct": all(p[s]["correct"] for p in whole for s in SIDES),
            "failed": sorted({p[s]["failed"] for p in whole for s in SIDES}),
        }
        for name, (better, bound) in bounds.items():
            series = {s: [p[s]["metrics"][name]["value"] for p in whole] for s in SIDES}
            med = {s: statistics.median(series[s]) for s in SIDES}
            sign = 1.0 if better == "lower" else -1.0
            rel = med["change"] / med["parent"] - 1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(series["parent"], series["change"]))
            iqr = {s: _iqr(series[s]) for s in SIDES}
            separated = all(sign * (c - p) < 0 for p in series["parent"] for c in series["change"])
            entry[name] = {
                **{s: {"median": med[s], "iqr": iqr[s]} for s in SIDES},
                "rel_change": rel,
                "change_wins": wins,
                "within_bound": sign * rel <= bound,
                "unresolved": iqr["parent"] / med["parent"] > bound and not separated,
                "parent_runs": series["parent"],
                "change_runs": series["change"],
            }
        summary[workload] = entry
    return summary


def fresh_pairs(checkouts: dict, count: int, report: dict, out: Path) -> None:
    """Time count alternating pairs of fresh processes per FRESH_PATHS entry into report["fresh"]."""
    with tempfile.TemporaryDirectory() as tmp:
        state = Path(tmp) / "p_plus.txt"
        state.write_text(P_PLUS)
        env = {}
        for side in SIDES:
            env[side] = dict(os.environ, PYTHONPATH=str(checkouts[side] / "src"),
                             PYTHONPYCACHEPREFIX=str(Path(tmp) / "pycache"))
            env[side].pop("PYTHONDONTWRITEBYTECODE", None)  # it would keep the cache from being written
        argvs = {path: [sys.executable, "-m", "choiwit", *(w.format(state=state) for w in words)]
                 for path, words in FRESH_PATHS.items()}

        def run(path, side):
            """(wall ms, CPU ms), and (exit code, stdout, stderr): the child writes to files, so it is reaped by wait4."""
            with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
                t0 = time.perf_counter()
                proc = subprocess.Popen(argvs[path], cwd=tmp, env=env[side], stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = (time.perf_counter() - t0) * 1e3
                proc.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                err.seek(0)
                result = (proc.returncode, out.read(), err.read())
            return (wall, (usage.ru_utime + usage.ru_stime) * 1e3), result

        outputs = {path: {run(path, side)[1] for side in SIDES} for path in FRESH_PATHS}  # fills the cache
        times = {path: {side: [] for side in SIDES} for path in FRESH_PATHS}
        cpu = {path: {side: [] for side in SIDES} for path in FRESH_PATHS}
        for pair in range(count):
            for path in FRESH_PATHS:
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    (ms, cpu_ms), result = run(path, side)
                    times[path][side].append(ms)
                    cpu[path][side].append(cpu_ms)
                    outputs[path].add(result)
            report["fresh"] = {
                "command": f"{Path(sys.executable).name} -m choiwit <argv>, PYTHONPATH=<checkout>/src, "
                           "one PYTHONPYCACHEPREFIX for both sides, filled by an untimed first run",
                "pairs": pair + 1,
                "paths": {path: _fresh_summary(FRESH_PATHS[path], times[path], cpu[path], outputs[path])
                          for path in FRESH_PATHS},
            }
            out.write_text(json.dumps(report, indent=1) + "\n")
            print(f"fresh pair {pair}: " + ", ".join(
                f"{path} {times[path]['parent'][-1]:.1f}/{times[path]['change'][-1]:.1f} ms wall, "
                f"{cpu[path]['parent'][-1]:.1f}/{cpu[path]['change'][-1]:.1f} ms CPU" for path in FRESH_PATHS
            ), flush=True)


def _fresh_summary(words: list, times: dict, cpu: dict, outputs: set) -> dict:
    """Medians, interquartile ranges and wins of one path's wall and CPU times; same_output when every run gave one result."""
    med = {side: statistics.median(times[side]) for side in SIDES}
    cpu_med = {side: statistics.median(cpu[side]) for side in SIDES}
    return {
        "argv": words,
        **{side: {"median_ms": med[side], "iqr_ms": _iqr(times[side]),
                  "cpu_median_ms": cpu_med[side], "cpu_iqr_ms": _iqr(cpu[side])} for side in SIDES},
        "rel_change": med["change"] / med["parent"] - 1.0,
        "change_wins": sum(c < p for p, c in zip(times["parent"], times["change"])),
        "cpu_rel_change": cpu_med["change"] / cpu_med["parent"] - 1.0,
        "cpu_change_wins": sum(c < p for p, c in zip(cpu["parent"], cpu["change"])),
        "same_output": len(outputs) == 1,
        "exit_codes": sorted({code for code, _, _ in outputs}),
        "parent_runs_ms": times["parent"],
        "change_runs_ms": times["change"],
        "parent_cpu_ms": cpu["parent"],
        "change_cpu_ms": cpu["change"],
    }


def parse_workload(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    count = int(pairs) if pairs else 10
    if not 1 <= count <= SEED_STRIDE:
        raise argparse.ArgumentTypeError(f"pairs must be 1..{SEED_STRIDE}, got {count}")
    return name, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--workload", type=parse_workload, action="append", default=[],
                        metavar="NAME[:PAIRS]", help="a workload and its pair count (default 10); repeatable")
    parser.add_argument("--fresh", type=int, default=0, metavar="PAIRS",
                        help="also time this many pairs of fresh python -m choiwit processes per CLI path")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", default="none")
    args = parser.parse_args(argv)
    if not args.workload and args.fresh < 1:
        parser.error("give at least one --workload or a positive --fresh")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    config = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in config["end_to_end"]}
    report = {
        "what": "perfbench end-to-end runs of the parent commit and of this change, each from its own "
                "checkout, alternating which side runs first in each pair",
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {args.seconds:g} --trace 0",
        "parent": None,
        "host": None,
        "claim": args.claim,
        "scan_csv_sha256": {s: [] for s in SIDES},
        "summary": {},
        "runs": [],
        "fresh": None,
    }
    if args.fresh > 0:
        fresh_pairs(checkouts, args.fresh, report, args.out)
    for k, (workload, count) in enumerate(args.workload):
        for pair in range(count):
            seed = args.first_seed + SEED_STRIDE * k + pair
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                result, digest, prov = run_once(checkouts[side], workload, seed, args.seconds)
                if side == "parent" and report["parent"] is None:
                    report["parent"] = (prov.get("git_commit") or "")[:7] or checkouts["parent"].name
                if report["host"] is None and prov:
                    report["host"] = (f"{prov['affinity_cpus']} of {prov['nproc']} cores ({prov['cpu_model']}), "
                                      f"Python {prov['python']}, numpy {prov['numpy']}")
                if digest and digest not in report["scan_csv_sha256"][side]:
                    report["scan_csv_sha256"][side].append(digest)
                report["runs"].append({"workload": workload, "pair": pair, "seed": seed, "side": side, "result": result})
                report["summary"] = summarise(report["runs"], bounds)
                args.out.write_text(json.dumps(report, indent=1) + "\n")
                print(f"{workload} pair {pair} seed {seed} {side}: "
                      f"op_p50_ms {result['metrics']['op_p50_ms']['value']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

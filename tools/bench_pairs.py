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
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED_STRIDE = 20
SIDES = ("parent", "change")


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
    parser.add_argument("--workload", type=parse_workload, action="append", required=True,
                        metavar="NAME[:PAIRS]", help="a workload and its pair count (default 10); repeatable")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", default="none")
    args = parser.parse_args(argv)

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
    }
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

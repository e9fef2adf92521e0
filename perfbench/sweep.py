#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --runs 10
    python3 perfbench/sweep.py --runs 5 --workloads packed_large
    python3 perfbench/sweep.py --runs 10 --record perfbench/trajectory.jsonl --label HEAD

For each workload it runs perfbench/run.py once per seed (1..runs unless
--first-seed moves them), then prints each metric's median, quartiles
(statistics.quantiles, n=4) and spread, the quartile distance as a share of
the median, next to the bound BENCHMARK.json gives it. --record appends the
summary, with the first run's stamp, as one JSON line to a trajectory file.
Exits 1 if any run failed or reported incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    stamp = next((json.loads(line[6:]) for line in lines
                  if line.startswith("stamp ")), {})
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout[-3000:])
        return None, stamp
    return json.loads(lines[-1]), stamp


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--record", help="trajectory file to append to")
    parser.add_argument("--label", default="", help="name of the point")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    summary = {}
    first_stamp = None
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, stamp = run_once(workload, seed, args.seconds, args.trace)
            first_stamp = first_stamp or stamp
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {args.runs} runs x {args.seconds} s, "
              f"trace={args.trace}")
        print(f"  {'metric':42} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        summary[workload] = {}
        for name, series in values.items():
            med = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if args.trace == 0 and bound and name != "setup_s" and \
                    spread > bound / 3:
                flag = "  <- above a third of the bound"
            print(f"  {name:42} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound else '':>6}{flag}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "unit": units[name], "n": len(series)}
        wire = values.get("wire_bytes_per_call", [])
        if wire and len(set(wire)) != 1:
            print(f"  wire_bytes_per_call differs between runs: {set(wire)}")

    if args.record:
        point = {"label": args.label, "stamp": first_stamp, "runs": args.runs,
                 "seconds": args.seconds, "trace": args.trace,
                 "workloads": summary}
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps(point, sort_keys=True) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

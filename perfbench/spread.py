#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workload recover --seeds 1-10 [--trace 1] [--save out.json]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of the median; for end-to-end metrics also the metric's bound from
BENCHMARK.json, and whether the spread stays below a third of it. --save
writes every run's values, the summary and the runs' provenance as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part[1:]:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarize(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds")
    ap.add_argument("--save")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    here = os.path.dirname(os.path.abspath(__file__))

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            sys.exit("seed %d: exit %d" % (seed, out.returncode))
        res = json.loads(lines[-1])
        prov = json.loads(lines[-2])["provenance"] if len(lines) > 1 else {}
        runs.append({"seed": seed, "provenance": prov, **res})
        print("seed %d: correct=%s attempted=%d failed=%d" % (seed, res["correct"], res["attempted"], res["failed"]),
              file=sys.stderr)

    summary = {}
    print("%-34s %14s %8s %6s" % ("metric", "median", "spread", "bound"))
    for name in runs[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in runs])
        summary[name] = s
        bound = bounds.get(name)
        verdict = ""
        if s["spread"] is None:
            print("%-34s %14.6g %8s" % (name, s["median"], "-"))
            continue
        if bound is not None:
            verdict = "%6.3f %s" % (bound, "ok" if s["spread"] < bound / 3 else "WIDE")
        print("%-34s %14.6g %8.4f %s" % (name, s["median"], s["spread"], verdict))

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "trace": int(args.trace), "seconds": float(seconds),
                       "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()

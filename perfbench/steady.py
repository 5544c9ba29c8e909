#!/usr/bin/env python3
"""Steadiness check and smoke run for the benchmark.

    python3 perfbench/steady.py --workload olap [--runs 10] [--first-seed 1]
    python3 perfbench/steady.py --smoke

Steadiness runs one workload --runs times, each with its own seed, at the
run length BENCHMARK.json fixes, and prints for every end-to-end metric
its median and its spread -- the distance between the first and third
quartile as a share of the median -- next to the bound BENCHMARK.json
gives it, plus the share of failed operations of every run.  Exits
non-zero when a spread (setup_s excepted) reaches a third of its bound or
the failed share differs between runs.

Smoke runs every workload for two seconds, untraced and traced, and exits
non-zero unless every run reports correct results.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUN = [sys.executable, "perfbench/run.py"]


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def steady(workload, runs, first_seed):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = []
    for seed in range(first_seed, first_seed + runs):
        r = run_once(workload, seed, bench["run_seconds"], 0)
        results.append(r)
        print("seed %-4d correct %-5s attempted %6d failed %5d  %s" % (
            seed, r["correct"], r["attempted"], r["failed"],
            "  ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
            flush=True)
    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print("\nfailed share per run: %s" % sorted(shares))
    ok = ok and len(shares) == 1
    print("%-16s %14s %10s %10s %8s" % ("metric", "median", "spread", "bound", ""))
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        checked = m["name"] != "setup_s"
        verdict = "ok" if spread < m["bound"] / 3 or not checked else "WIDE"
        ok = ok and verdict == "ok"
        print("%-16s %14.4f %9.1f%% %9.0f%% %8s" % (
            m["name"], statistics.median(values), spread * 100, m["bound"] * 100,
            verdict if checked else "(set-up)"))
    return ok


def smoke():
    ok = True
    for workload in ("olap", "served", "remote"):
        for trace in (0, 1):
            r = run_once(workload, 1, 2, trace)
            print("%-7s trace %d: correct %s, attempted %d, failed %d, %d metrics" % (
                workload, trace, r["correct"], r["attempted"], r["failed"],
                len(r["metrics"])), flush=True)
            ok = ok and r["correct"]
    return ok


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("olap", "served", "remote"))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        return 0 if smoke() else 1
    if not args.workload:
        p.error("--workload or --smoke is required")
    return 0 if steady(args.workload, args.runs, args.first_seed) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Runs one workload over several seeds and reports run-to-run spread.

    python3 perfbench/repeat.py --workload read-uniform --seeds 1-10
    python3 perfbench/repeat.py --workload read-zipf --seeds 1,2 --repeat 2

For every metric of the result line it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound from BENCHMARK.json. With --repeat > 1 every seed runs that many
times, and the deterministic counts must match exactly between runs of
one seed. Exits non-zero if a run fails, a check fails, or counts differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    result, det, host = None, None, None
    for line in lines:
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "deterministic" in obj:
            det = obj["deterministic"]
        elif "host" in obj:
            host = obj["host"]
        elif "metrics" in obj:
            result = obj
    return out.returncode, result, det, host


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seconds", help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])

    ok = True
    values = {}
    dets = {}
    for seed in parse_seeds(args.seeds):
        for _ in range(args.repeat):
            code, result, det, host = run_once(args.workload, seed, seconds, args.trace)
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                print(f"seed {seed}: run failed (exit {code}, result {result})")
                ok = False
                continue
            steal = host.get("steal_share") if host else None
            print(f"seed {seed}: ok, {result['attempted']} ops, steal {steal}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if det is not None:
                if seed in dets and dets[seed] != det:
                    print(f"seed {seed}: deterministic counts differ:\n  {dets[seed]}\n  {det}")
                    ok = False
                dets.setdefault(seed, det)

    print(f"{'metric':<40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "  OVER BOUND"
        elif bound is not None and spread > bound / 3:
            flag = "  over a third of the bound"
        print(f"{name:<40} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

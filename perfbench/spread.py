#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's median and
quartile spread (IQR / median), the steadiness figure BENCHMARK.json's
bounds are checked against.

    python3 perfbench/spread.py --workload serve-point --seeds 1-10 --seconds 30 [--trace 1]

Runs go one after another from the repository root; each run's last
stdout line is its JSON result.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", args.seconds, "--trace", args.trace]
        run = subprocess.run(cmd, capture_output=True, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
        if run.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(last)
        if not result["correct"] or result["failed"]:
            print(run.stdout, file=sys.stderr)
        line = [f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(" ".join(line), flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = float("nan")
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        mark = "" if bound is None else f" bound {bound} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:32} median {med:<14.6g} spread {spread:.4f}{mark}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness summary for sets of benchmark runs.

Run the benchmark over several seeds, one output file per run:

    python3 perfbench/summarize.py run OUT_DIR --workloads day_warm,tenant_churn \
        --seeds 1-10 [--trace 0] [--seconds 10]

Summarize one set, or compare two sets of the same code:

    python3 perfbench/summarize.py summary OUT_DIR [OTHER_DIR]

For every workload and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile spread over the
median.  Against BENCHMARK.json it marks end-to-end spreads above a third
of the metric's bound ("wide") and above the bound ("OVER"), and, given a
second set, medians that moved by more than the bound in the worse
direction ("WORSE").  setup_s has no spread limit, only the median one.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run(args):
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            path = os.path.join(args.out, f"{workload}-{seed}.txt")
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", args.trace]
            with open(path, "w") as out:
                code = subprocess.run(command, cwd=ROOT, stdout=out,
                                      stderr=subprocess.STDOUT).returncode
            print(f"{workload} seed {seed}: exit {code} -> {path}", flush=True)


def load(directory):
    """{workload: {metric: [values]}} plus per-workload run tallies."""
    values, tallies = {}, {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        workload = name.rsplit("-", 1)[0]
        with open(os.path.join(directory, name)) as f:
            lines = f.read().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"# {name}: no result line", file=sys.stderr)
            continue
        tally = tallies.setdefault(workload, [0, 0, 0, 0])
        tally[0] += 1
        tally[1] += 0 if result["correct"] else 1
        tally[2] += result["attempted"]
        tally[3] += result["failed"]
        for metric, entry in result["metrics"].items():
            values.setdefault(workload, {}).setdefault(metric, []).append(
                (entry["value"], entry["unit"]))
    return values, tallies


def stats(samples):
    xs = [v for v, _ in samples]
    med = statistics.median(xs)
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = q3 = xs[0]
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def summary(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    first, tallies = load(args.dir)
    second = load(args.other)[0] if args.other else {}
    for workload in sorted(first):
        runs, incorrect, attempted, failed = tallies[workload]
        print(f"\n== {workload}: {runs} runs, {incorrect} not correct, "
              f"failed {failed}/{attempted} "
              f"({100.0 * failed / max(1, attempted):.2f}%)")
        header = f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}"
        if second:
            header += f" {'median2':>14} {'change':>8}"
        print(header)
        for metric, samples in first[workload].items():
            med, q1, q3, spread = stats(samples)
            unit = samples[0][1]
            row = (f"{metric:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                   f"{spread:8.3f}")
            flags = []
            bound = e2e.get(metric, {}).get("bound")
            if bound is not None and metric != "setup_s":
                if spread > bound:
                    flags.append("OVER")
                elif spread > bound / 3:
                    flags.append("wide")
            other = second.get(workload, {}).get(metric)
            if other:
                med2 = stats(other)[0]
                change = (med2 - med) / med if med else float("nan")
                row += f" {med2:14.6g} {change:+8.3f}"
                if bound is not None:
                    worse = -change if e2e[metric]["better"] == "higher" else change
                    if worse > bound:
                        flags.append("WORSE")
            print(f"{row} {unit}{'  ' + ' '.join(flags) if flags else ''}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the benchmark over seeds")
    r.add_argument("out")
    r.add_argument("--workloads", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int, default=10)
    r.add_argument("--trace", default="0", choices=["0", "1"])
    s = sub.add_parser("summary", help="summarize one or two sets of runs")
    s.add_argument("dir")
    s.add_argument("other", nargs="?")
    args = parser.parse_args()
    if args.command == "run":
        run(args)
    else:
        summary(args)


if __name__ == "__main__":
    main()

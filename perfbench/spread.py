#!/usr/bin/env python3
"""Run-to-run steadiness check of the benchmark.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds S] \
        [--out set.jsonl] [--compare earlier-set.jsonl]

Runs run.py once per seed (end-to-end metrics) and prints, for each
metric, the median over the runs and the spread: the distance between the
first and third quartile (statistics.quantiles(values, n=4)) as a share of
the median. With --compare, it also prints how far each median moved from
the median of an earlier set (an --out file of the same workload), in the
metric's worse direction.

It exits 1 unless the set meets the acceptance rule of BENCHMARK.json:
every spread but that of setup_s within the metric's bound, and, with
--compare, no median worse than the earlier one by more than the bound.
--runs FILE reads a set from an --out file instead of running it.
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
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_set(path, workload):
    values = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            if row["workload"] != workload:
                continue
            for name, m in row["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return values


def run_set(workload, seeds, seconds, out):
    values = {}
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        last = done.stdout.strip().splitlines()[-1] if done.stdout else ""
        if done.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {done.returncode}: {last}")
        if out:
            with open(out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "result": json.loads(last)}) + "\n")
        for name, m in json.loads(last)["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr, flush=True)
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out", help="append each run's result line here")
    ap.add_argument("--runs", help="read the set from this --out file")
    ap.add_argument("--compare", help="an earlier set's --out file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = {m["name"]: m for m in json.load(f)["end_to_end"]}
        f.seek(0)
        seconds = args.seconds or json.load(f)["run_seconds"]

    if args.runs:
        values = load_set(args.runs, args.workload)
    else:
        values = run_set(args.workload, seed_list(args.seeds), seconds,
                         args.out)
    earlier = load_set(args.compare, args.workload) if args.compare else {}

    ok = True
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'moved':>8} "
          f"{'bound':>6}")
    for name, spec in specs.items():
        vals, bound = values[name], spec["bound"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flags = []
        if name != "setup_s" and spread > bound:
            flags.append("spread over bound")
        moved = ""
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = (med - before if spec["better"] == "lower"
                     else before - med) / before
            moved = f"{worse:+8.4f}"
            if worse > bound:
                flags.append("median worse than the earlier set's")
        ok &= not flags
        print(f"{name:<18} {med:>12.5g} {spread:>8.4f} {moved:>8} "
              f"{bound:>6}  {'; '.join(flags)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

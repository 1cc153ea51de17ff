#!/usr/bin/env python3
"""Steadiness record for the benchmark: runs every workload once per seed,
untraced, and stores each run's end-to-end metrics with the host facts it
ran under, plus the median and quartiles of every metric per workload.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/steadiness.json

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles of statistics.quantiles(values, n=4); compare it with the
metric's bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout.splitlines()
    host = next(json.loads(l[len("host: "):]) for l in out if l.startswith("host: "))
    result = json.loads(out[-1])
    return host, result


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="where to write the record (JSON)")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in workloads}
    # Seeds outermost, so a slow spell of the host lands on every
    # workload rather than on one.
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            host, result = run_once(w, seed, args.seconds)
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs[w].append({"seed": seed, "host": host, "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "metrics": metrics})
            print(f"{w} seed {seed}: " + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items())
                  + f" | runq_wait_ms {host['runq_wait_ms']} steal_s {host['steal_s']}",
                  file=sys.stderr, flush=True)

    record = {"run_seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for w, rs in runs.items():
        summary = {}
        for name in rs[0]["metrics"]:
            values = [r["metrics"][name] for r in rs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name)}
            flag = ""
            if name in bounds and name != "setup_s":
                worst = max(worst, spread / bounds[name])
                flag = "  <-- over a third of its bound" if spread > bounds[name] / 3 else ""
            print(f"{w:7s} {name:13s} median {med:<12.6g} IQR/median {spread:.4f}{flag}")
        record["workloads"][w] = {"summary": summary, "runs": rs}
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()

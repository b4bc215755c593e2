#!/usr/bin/env python3
"""Run the benchmark across seeds and report how steady each metric is.

Usage, from the repository root:

    python3 lunbench/steadiness.py [--workloads create_md,wide_m128]
        [--seeds 1-10] [--seconds N] [--record lunbench/steadiness/NAME.md]

Each (workload, seed) pair is one untraced run through `run.py`. For every
end-to-end metric the report gives the median and quartiles of its values
(Python's `statistics.quantiles(values, n=4)`), the spread (q3 - q1) as a
share of the median, and that spread against the metric's bound in
`BENCHMARK.json`. The host probe's median of each run is listed beside the
values, so a set that disagrees with another can be traced to the machine.
Runs are made one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

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


def run_once(workload, seed, seconds):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = None
    for line in lines:
        if line.startswith("host.probe_ms median"):
            probe = float(line.split()[2])
    return result, probe, wall


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", help="default: the workloads in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--record")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or ",".join(w["name"] for w in bench["workloads"])
    seeds = parse_seeds(args.seeds)

    report = [
        f"# Steadiness record: {len(seeds)} seeds x {seconds} s per workload",
        "",
        f"Recorded {time.strftime('%Y-%m-%d %H:%M UTC', time.gmtime())}, "
        f"seeds {args.seeds}, `python3 lunbench/steadiness.py`.",
    ]
    worst = 0.0
    for workload in workloads.split(","):
        rows = []
        for seed in seeds:
            result, probe, wall = run_once(workload, seed, seconds)
            rows.append((seed, result, probe))
            print(
                f"{workload} seed {seed}: probe {probe:.3f} ms, wall {wall:.1f} s, "
                f"{result['attempted']} passes, {result['failed']} failed",
                file=sys.stderr,
            )
        names = list(rows[0][1]["metrics"])
        report += ["", f"## {workload}", ""]
        report.append("| seed | host.probe_ms | passes | failed | " + " | ".join(names) + " |")
        report.append("|---" * (len(names) + 4) + "|")
        for seed, result, probe in rows:
            vals = [f"{result['metrics'][n]['value']:.6g}" for n in names]
            report.append(
                f"| {seed} | {probe:.3f} | {result['attempted']} | {result['failed']} | "
                + " | ".join(vals)
                + " |"
            )
        report += [
            "",
            "| metric | unit | median | q1 | q3 | spread | bound | spread / bound |",
            "|---|---|---|---|---|---|---|---|",
        ]
        probes = [r[2] for r in rows]
        pm, pq1, pq3, ps = summarize(probes)
        for n in names:
            values = [r[1]["metrics"][n]["value"] for r in rows]
            med, q1, q3, spread = summarize(values)
            bound = bounds.get(n)
            share = spread / bound if bound else float("nan")
            if n != "setup_s":
                worst = max(worst, share)
            report.append(
                f"| {n} | {rows[0][1]['metrics'][n]['unit']} | {med:.6g} | {q1:.6g} | "
                f"{q3:.6g} | {spread:.4f} | {bound} | {share:.2f} |"
            )
        report.append(
            f"| host.probe_ms | ms | {pm:.6g} | {pq1:.6g} | {pq3:.6g} | {ps:.4f} | - | - |"
        )
        failed = sum(r[1]["failed"] for r in rows)
        attempted = sum(r[1]["attempted"] for r in rows)
        report += ["", f"Passes: {attempted} attempted, {failed} failed."]
    report += [
        "",
        f"Largest spread / bound, `setup_s` aside: {worst:.2f}.",
    ]
    text = "\n".join(report) + "\n"
    print(text)
    if args.record:
        with open(args.record, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()

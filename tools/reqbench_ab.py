#!/usr/bin/env python3
"""A/B host-speed comparison of two request-benchmark binaries.

    python3 tools/reqbench_ab.py <parent-reqbench> <change-reqbench> \\
        --workload W [--seed S] [--pairs N] [--seconds T]

Each binary is built by `python3 reqbench/run.py` in its own checkout, at
.bench_build/reqbench/reqbench. The script runs N pairs at --trace 0; pair i
runs the parent first when i is even and the change first when it is odd, so
host drift over the session lands on both sides alike. It prints each pair's
rel_wall (lower is better) and the ratio parent/change, then for rel_wall,
rel_req_rate, setup_s and peak_rss_mb the parent's median and quartiles, the
change's median, the median ratio, the number of pairs the change won and a
verdict, with each metric's direction and bound read from BENCHMARK.json:

    gain   the change won at least 90% of the pairs and the medians differ,
           its way, by more than the parent's quartile spread;
    worse  the change's median is worse than the parent's by more than the
           metric's bound (a fraction of the parent's median);
    flat   anything else.

A host-speed change must not move a simulated result: if any `sim`-kind
metric line other than sim.events_per_req (a dispatch count) differs between
the two runs of a pair, or a run fails, the script exits 1; so does any
`worse` verdict. Usage errors exit 2. sim.events_per_req of both sides is
printed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ring_colocated", "rpc_fabric", "trap_baseline")
REPORTED = ("rel_wall", "rel_req_rate", "setup_s", "peak_rss_mb")


def positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer: %r" % text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be > 0: %r" % text)
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Alternating A/B host-speed runs of two reqbench binaries.")
    p.add_argument("parent", help="reqbench binary of the parent commit")
    p.add_argument("change", help="reqbench binary of the change")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=positive_int, default=1)
    p.add_argument("--pairs", type=positive_int, default=5)
    p.add_argument("--seconds", type=positive_int, default=30)
    args = p.parse_args(argv)
    for name in ("parent", "change"):
        path = getattr(args, name)
        if not (os.path.isfile(path) and os.access(path, os.X_OK)):
            p.error("%s binary is not an executable file: %s" % (name, path))
    return args


def run(binary, args):
    """Runs one benchmark; returns (metrics, sim lines, events_per_req)."""
    cmd = [os.path.abspath(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("reqbench_ab: %s exited %d" % (binary, proc.returncode))
    report = json.loads(lines[-1])
    if not report.get("correct") or report.get("failed"):
        sys.exit("reqbench_ab: %s reported correct=%s failed=%s"
                 % (binary, report.get("correct"), report.get("failed")))
    sim = []
    events = None
    for line in lines[:-1]:
        if not line.endswith(" sim"):
            continue
        if line.split()[0] == "sim.events_per_req":
            events = line.split()[1]
        else:
            sim.append(line)
    metrics = {name: report["metrics"][name]["value"] for name in REPORTED}
    return metrics, sim, events


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def declared():
    """BENCHMARK.json's end-to-end metrics by name: (higher is better, bound)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]}


def summarize(parent, change, higher, bound):
    """One metric's table row: parent quartiles and median, change median,
    ratio (> 1: the change is better), wins and verdict (see the top)."""
    q1, q3 = quartiles(parent)
    pm = statistics.median(parent)
    cm = statistics.median(change)
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    ratio = (cm / pm if higher else pm / cm) if min(pm, cm) > 0 else float("nan")
    gained = (cm - pm) if higher else (pm - cm)  # > 0: the change is better
    if -gained > bound * abs(pm):
        verdict = "worse"
    elif wins * 10 >= len(parent) * 9 and gained > q3 - q1:
        verdict = "gain"
    else:
        verdict = "flat"
    return q1, pm, q3, cm, ratio, wins, verdict


def main(argv):
    args = parse_args(argv)
    spec = declared()
    results = {"parent": [], "change": []}
    print("reqbench_ab: %s seed=%d pairs=%d seconds=%d"
          % (args.workload, args.seed, args.pairs, args.seconds))
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run(getattr(args, side), args) for side in order}
        if pair["parent"][1] != pair["change"][1]:
            diff = [(a, b) for a, b in zip(pair["parent"][1], pair["change"][1]) if a != b]
            for a, b in diff or [(len(pair["parent"][1]), len(pair["change"][1]))]:
                print("  parent: %s\n  change: %s" % (a, b), file=sys.stderr)
            sys.exit("reqbench_ab: pair %d: simulated metrics differ" % (i + 1))
        for side in order:
            results[side].append(pair[side][0])
        p = pair["parent"][0]["rel_wall"]
        c = pair["change"][0]["rel_wall"]
        print("pair %d (%s first): rel_wall parent %.4f change %.4f ratio %.3f%s"
              % (i + 1, order[0], p, c, p / c, "  win" if c < p else ""))
        if i == 0:
            print("sim.events_per_req: parent %s change %s"
                  % (pair["parent"][2], pair["change"][2]))
    print("%-14s %12s %12s %12s %12s %8s %6s  %s"
          % ("metric", "parent_q1", "parent_med", "parent_q3", "change_med", "ratio", "wins",
             "verdict"))
    status = 0
    for name in REPORTED:
        higher, bound = spec[name]
        q1, pm, q3, cm, ratio, wins, verdict = summarize(
            [r[name] for r in results["parent"]], [r[name] for r in results["change"]],
            higher, bound)
        status = 1 if verdict == "worse" else status
        print("%-14s %12.4f %12.4f %12.4f %12.4f %8.3f %3d/%d  %s"
              % (name, q1, pm, q3, cm, ratio, wins, args.pairs, verdict))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

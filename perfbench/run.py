#!/usr/bin/env python3
"""Serving benchmark for `mondet serve --tcp`.

Run from the repository root:

    python3 perfbench/run.py --workload hit --seed 1 --seconds 20 --trace 0

builds the server and the benchmark with dune, then runs one measurement
(see perfbench/README.md).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --stability [--runs 10] [--workloads hit,cold]

runs two sets of runs of the same build, over the same seeds, and prints
for each workload and end-to-end metric each set's median and quartiles,
the spread (interquartile range over median) and whether the two medians
agree within the metric's bound from BENCHMARK.json.  It then runs the
traced mode twice on one seed per workload and checks that the per-layer
counts repeat exactly.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
SERVER = os.path.join("_build", "default", "bin", "mondet.exe")
RUN_TIMEOUT_S = 175

# per-layer metrics that are counts of work, not times: they must repeat
# exactly across traced runs of one seed
COUNT_UNITS = {"count", "bytes", "1/req", "frac"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for need in ("dune-project", "bin", "lib"):
        if not os.path.exists(need):
            fail("run from the repository root (%s is missing)" % need)
    # the shared dune cache lives outside the checkout: build without it
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", SERVER, MAIN],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def run_once(workload, seed, seconds, trace, echo):
    """One measurement in its own process group, so a timeout also stops
    the server it spawned.  Returns (exit code, stdout lines)."""
    cmd = [MAIN, "--server", SERVER, "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--spans", os.path.join("perfbench", "out")]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return p.returncode, out.splitlines()


def result_of(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stability(args):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    sets = []
    for s in range(2):
        results = {w: [] for w in workloads}
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed + i
                code, lines = run_once(w, seed, seconds, 0, echo=False)
                res = result_of(lines)
                if code != 0 or res is None or not res["correct"]:
                    print("\n".join(lines[-12:]))
                    fail("set %d %s seed %d failed" % (s + 1, w, seed))
                results[w].append(res["metrics"])
                print("set %d %-7s seed %-3d %s" % (
                    s + 1, w, seed, " ".join(
                        "%s=%.4g" % (m["name"], res["metrics"][m["name"]]["value"])
                        for m in metrics)), flush=True)
        sets.append(results)
    ok = True
    for w in workloads:
        print("\n%s" % w)
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            meds = []
            for results in sets:
                vals = [r[name]["value"] for r in results[w]]
                q1, q2, q3 = quartiles(vals)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                meds.append(q2)
                steady = spread <= bound / 3
                ok = ok and spread <= bound
                cols.append("q1=%-10.4g med=%-10.4g q3=%-10.4g spread=%.3f%s" % (
                    q1, q2, q3, spread, "" if steady else " (above bound/3)"))
            worse = ((meds[1] - meds[0]) / meds[0] if m["better"] == "lower"
                     else (meds[0] - meds[1]) / meds[0])
            agree = worse <= bound
            ok = ok and agree
            print("  %-15s bound %.2f | %s | %s | %s" % (
                name, bound, cols[0], cols[1],
                "agree" if agree else "DISAGREE (%.3f worse)" % worse))
    # per-layer counts must repeat exactly across traced runs of one seed
    for w in workloads:
        runs = []
        for _ in range(2):
            code, lines = run_once(w, args.seed, seconds, 1, echo=False)
            res = result_of(lines)
            if code != 0 or res is None:
                fail("traced %s failed" % w)
            counts = {k: v["value"] for k, v in res["metrics"].items()
                      if v["unit"] in COUNT_UNITS}
            digest = [l for l in lines if l.startswith("answers digest")]
            runs.append((counts, digest))
        same = runs[0] == runs[1]
        ok = ok and same
        print("%s traced counts %s" % (
            w, "repeat exactly" if same else "DIFFER: %s vs %s" % runs))
    print("stability: %s" % ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--stability", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    build()
    if args.stability:
        sys.exit(stability(args))
    if not args.workload or args.seconds is None:
        fail("--workload and --seconds are required")
    code, _ = run_once(args.workload, args.seed, args.seconds, args.trace,
                       echo=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

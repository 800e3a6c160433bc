#!/usr/bin/env python3
"""Plexus benchmark runner.

Run from the root of a Plexus checkout:

    python3 perfbench/run.py --workload udp_echo_64 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 [--trace 1]
    python3 perfbench/run.py --selftest

It builds perfbench/plexbench.exe with dune, runs the workload in its own
process and passes the program's output through; the last line of stdout
is the JSON result.  `--workload all` runs every workload of
BENCHMARK.json, each in its own process, and prints one table with the
clock (host or sim) of every metric.  `--selftest` checks that the
simulated metrics and alloc_words_per_op repeat exactly for one seed and
that another seed gives other inputs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "plexbench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 870


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a Plexus checkout (no dune-project and lib/ here)")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/plexbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}", 3)
    if r.returncode != 0:
        die("build failed", 3)


def run_workload(workload, seed, seconds, trace):
    """Run one workload in its own process; returns (stdout lines, result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: no result within {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        die(f"{workload}: exited with code {r.returncode}", 4)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die(f"{workload}: last line is not a JSON result", 4)
    return lines[:-1], result


def check_result(bench, result, trace):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        die(f"result keys {sorted(result)} differ from {sorted(keys)}", 4)
    wanted = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    got = result["metrics"]
    missing = [n for n in wanted if n not in got]
    extra = [n for n in got if n not in wanted]
    if missing or extra:
        die(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 4)


def digest_of(lines):
    for line in lines:
        if line.startswith("inputs-digest: "):
            return line.split(": ", 1)[1]
    return None


def run_all(bench, meta, seed, seconds, trace):
    clock = {m["name"]: m["clock"] for m in meta["end_to_end"]}
    results = {}
    for w in bench["workloads"]:
        name = w["name"]
        lines, r = run_workload(name, seed, seconds, 0)
        check_result(bench, r, False)
        results[name] = {"untraced": r}
        if trace:
            tlines, t = run_workload(name, seed, seconds, 1)
            check_result(bench, t, True)
            results[name]["traced"] = t
            print("\n".join(tlines))
    names = [w["name"] for w in bench["workloads"]]
    print(f"\nend-to-end metrics, seed {seed}, {seconds} s per workload")
    print(f"{'metric':<20} {'clock':<5} " + " ".join(f"{n:>16}" for n in names))
    for m in bench["end_to_end"]:
        vals = " ".join(
            f"{results[n]['untraced']['metrics'][m['name']]['value']:>16.4f}" for n in names)
        print(f"{m['name']:<20} {clock[m['name']]:<5} {vals}  {m['unit']}")
    fails = " ".join(
        f"{results[n]['untraced']['failed']}/{results[n]['untraced']['attempted']:>8}"
        .rjust(16) for n in names)
    print(f"{'failed/attempted':<26} {fails}")
    if trace:
        print("traced: " + " ".join(
            f"{n} {results[n]['traced']['metrics']['trace.ops_per_s']['value']:.0f} ops/s "
            f"(overhead {100 * results[n]['traced']['metrics']['trace.overhead_share']['value']:.1f}%)"
            for n in names))
    correct = all(r["untraced"]["correct"] and r.get("traced", {"correct": True})["correct"]
                  for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))


def selftest(bench, meta):
    """sim_* and alloc_words_per_op repeat bit for bit for one seed; another
    seed gives other inputs.  Each run is its own process."""
    exact = [m["name"] for m in meta["end_to_end"]
             if m["clock"] == "sim" or m["name"] == "alloc_words_per_op"]
    base, held = meta["baseline_seed"], meta["heldout_seed"]
    ok = True
    for name in [w["name"] for w in bench["workloads"]]:
        l1, r1 = run_workload(name, base, 1, 0)
        l2, r2 = run_workload(name, base, 1, 0)
        l3, r3 = run_workload(name, held, 1, 0)
        for m in exact:
            a, b = r1["metrics"][m]["value"], r2["metrics"][m]["value"]
            same = a == b
            ok &= same
            print(f"{name:<14} {m:<20} seed {base}: {a!r} vs {b!r} "
                  f"{'identical' if same else 'DIFFERENT'}")
        d1, d3 = digest_of(l1), digest_of(l3)
        differ = d1 is not None and d1 != d3
        ok &= differ
        print(f"{name:<14} inputs seed {base} vs {held}: "
              f"{'different' if differ else 'SAME'} ({d1} / {d3})")
        for r in (r1, r2, r3):
            ok &= r["correct"]
    print("selftest: " + ("pass" if ok else "FAIL"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        die("run from the root of a Plexus checkout (no BENCHMARK.json here)")
    bench = load_json("BENCHMARK.json")
    meta = load_json(os.path.join(HERE, "metrics.json"))
    build()
    if args.selftest:
        sys.exit(0 if selftest(bench, meta) else 1)
    if args.workload == "all":
        run_all(bench, meta, args.seed, args.seconds, args.trace)
        return
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    lines, result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    check_result(bench, result, args.trace == 1)
    print("\n".join(lines))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

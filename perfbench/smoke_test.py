#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny scale (about a minute).

Run from the root of a checkout:

    python3 perfbench/smoke_test.py

Checks that
  * every workload, traced and untraced, prints every metric BENCHMARK.json
    names, with its unit, and passes its own correctness checks;
  * a deliberately wrong lu128_store anchor is reported as a failed
    operation (``correct`` false), not a crash;
  * a second seed also produces complete output;
  * requests the load generator cannot send, connections the daemon
    refuses and a failed counters query are each counted as failed
    operations, not a crash;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.

Exit code 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import socket
import subprocess
import sys

ROOT = os.getcwd()
RUN = ["python3", os.path.join("perfbench", "run.py")]


def run(args, cwd=ROOT):
    r = subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return r, result


def refused_load_is_counted():
    """Points run.py's serve client at a port nobody listens on; returns
    a list of problems."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import run as bench_run

    args = argparse.Namespace(workload="lu128_store", seed=1, scale="tiny")
    bench = bench_run.Bench(args, ROOT)
    os.makedirs(bench.work, exist_ok=True)
    problems = []
    try:
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        bench.addr = f"127.0.0.1:{port}"
        req = '{"op":"replay","id":"x","trace_dir":"none","np":1}'
        plan = bench.path("plan.tsv")
        with open(plan, "w") as f:
            f.write(f"a\t0.0\t{req}\nb\t0.01\t{req}\n")

        ph = bench.load("open-loop", plan)
        bench.check_responses(ph, "open-loop")
        if sorted(ph.unsent) != ["a", "b"] or ph.sends:
            problems.append(f"open loop on a closed port: {ph!r}")
        ph = bench.load("closed-loop", plan, 0.1)
        bench.check_responses(ph, "closed-loop")
        if not ph.refused or ph.sends:
            problems.append(f"closed loop on a closed port: {ph!r}")
        if bench.serve_counters() != {}:
            problems.append("a counters query on a closed port returned counters")
        # Two generator runs that worked; two unsent requests, at least
        # one refused connection and one counters query that failed.
        want = 2 + 2 + len(ph.refused) + 1
        if bench.fail.attempted != want or bench.fail.failed != want - 2:
            problems.append(f"closed port: {bench.fail.failed} of {bench.fail.attempted} "
                            f"operations failed, want {want - 2} of {want}")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    if not problems:
        print("ok refused connections and unsent requests count as failed operations",
              flush=True)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(label, r, result, trace, want_correct=True):
        if r.returncode != 0 or result is None:
            problems.append(f"{label}: exit {r.returncode}, no result\n{r.stderr[-2000:]}")
            return
        if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
            problems.append(f"{label}: result keys {sorted(result)}")
        if sorted(result["metrics"]) != sorted(names[trace]):
            problems.append(f"{label}: metrics {sorted(result['metrics'])}")
        for k, unit in names[trace].items():
            m = result["metrics"].get(k, {})
            if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
                problems.append(f"{label}: metric {k} = {m!r}, want unit {unit!r}")
        if result["correct"] != want_correct:
            problems.append(f"{label}: correct={result['correct']}, failed={result['failed']}")
        print(f"ok {label}: {result['attempted']} operations, {result['failed']} failed",
              flush=True)

    tiny = ["--scale", "tiny", "--seconds", "2"]
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            r, res = run(["--workload", w, "--seed", "1", "--trace", str(trace)] + tiny)
            check(f"{w} trace={trace} seed=1", r, res, trace)
        r, res = run(["--workload", w, "--seed", "2", "--trace", "0"] + tiny)
        check(f"{w} trace=0 seed=2", r, res, 0)

    problems += refused_load_is_counted()

    r, res = run(["--workload", "lu128_store", "--seed", "1", "--trace", "0",
                  "--anchor", "0.5"] + tiny)
    check("lu128_store with a wrong anchor", r, res, 0, want_correct=False)
    if res is not None and res["failed"] < 1:
        problems.append("a wrong anchor was not counted as a failed operation")

    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
    r, res = run(["--workload", "lu128_store", "--seed", "1", "--trace", "0"] + tiny, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or res is not None:
        problems.append(f"bare directory: exit {r.returncode}, result {res!r}")
    else:
        print(f"ok bare directory: exit {r.returncode}, no result", flush=True)

    for p in problems:
        print(f"FAIL {p}", flush=True)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the benchmark itself, a few seconds per case at tiny sizes.

    python3 perfbench/smoke_test.py --binary .bench_build/menos_perfbench

Checks that
  * every workload prints every metric BENCHMARK.json names, with its unit,
    passes its correctness and self-checks, and exits 0 (untraced and traced;
    the traced run also writes a Chrome trace);
  * a planted loss mismatch fails the correctness check: nonzero exit, a
    counted failure, "correct": false;
  * a client error thrown mid-run is counted, not fatal: the process exits 1
    (not by a signal) and still prints its result.
Registered as the perfbench_smoke ctest in perfbench/CMakeLists.txt.
"""
import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL: {what}")


def run(binary, out_dir, workload, trace, plant="none", seconds="1"):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", seconds,
           "--trace", str(trace), "--scale", "tiny", "--out-dir", out_dir,
           "--plant", plant]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        print(p.stdout[-3000:], p.stderr[-3000:])
    return p.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--binary", required=True)
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(args.binary)),
                           "smoke_out")
    shutil.rmtree(out_dir, ignore_errors=True)

    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, r = run(args.binary, out_dir, w["name"], trace)
            tag = f"{w['name']} --trace {trace}"
            check(code == 0, f"{tag}: exit code {code}")
            if r is None:
                check(False, f"{tag}: no JSON result line")
                continue
            check(set(r) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(r)}")
            check(r["correct"] is True and r["failed"] == 0,
                  f"{tag}: correct={r['correct']} failed={r['failed']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, f"{tag}: metrics differ from BENCHMARK.json: "
                  f"missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}")
        traces = glob.glob(os.path.join(out_dir, f"{w['name']}-*.trace.json"))
        check(len(traces) == 1, f"{w['name']}: trace files {traces}")
        for path in traces:
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            names = {e["name"] for e in events}
            check({"setup", "client.connect", "probe.nn.trunk"} <= names,
                  f"{path}: span names {sorted(names)}")

    code, r = run(args.binary, out_dir, "memory_pressure", 0,
                  plant="loss_mismatch")
    check(code == 1, f"planted loss mismatch: exit code {code}")
    check(r is not None and r["correct"] is False and r["failed"] >= 1,
          f"planted loss mismatch: result {r}")

    code, r = run(args.binary, out_dir, "memory_pressure", 0,
                  plant="client_throw")
    check(code == 1, f"planted client error: exit code {code} (<0 = signal)")
    check(r is not None and r["correct"] is False and r["failed"] == 1 and
          r["attempted"] > 20,
          f"planted client error: result {r}")

    shutil.rmtree(out_dir, ignore_errors=True)
    print("perfbench smoke:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the GNSS LNA design pipeline.

Builds the library and the benchmark program (e2e_bench) from this checkout
(CMake, into .bench_build/e2ebench), runs one workload in its own process,
checks its output, and prints as the last line one JSON object with the
keys correct, attempted, failed and metrics.  BENCHMARK.json gates
design_run and yield_mc; service runs and reports the same way.

  python3 e2ebench/run.py --workload design_run|yield_mc|service \
      --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --workload all --seed N --seconds S
      runs the three workloads one process each and prints every report
  python3 e2ebench/run.py --selftest
      builds and runs the benchmark's own tests, then smoke-runs every
      workload through this script

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 the traced run prints its per-layer metrics (BENCHMARK.json's
per_layer list) with the end-to-end metric each should move (layers.json),
self times, tracing overhead and coverage, and writes its spans to
.bench_build/e2ebench/traces.  Host context, the per-workload metrics and
the correctness verdicts precede the last line.
"""
import argparse
import fcntl
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("design_run", "yield_mc", "service")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def child_env():
    # The benchmark sets the program's switches itself: no GNSSLNA_*
    # variable of the caller's environment reaches the program.
    return {k: v for k, v in os.environ.items() if not k.startswith("GNSSLNA_")}


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to the benchmark")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(len(os.sched_getaffinity(0)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                     + list(targets))
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=child_env())
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))


def load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload process; returns (report lines, parsed result)."""
    cmd = [os.path.join(BUILD, "e2e_bench"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", "1" if trace else "0"]
    if trace:
        out_dir = os.path.join(BUILD, "traces")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        fail("%s exited with %d and no result" % (workload, done.returncode))
    return lines[:-1], json.loads(lines[-1])


def select_metrics(result, wanted):
    """The BENCHMARK.json metrics `wanted` from a run, value and unit only."""
    for name in result["metrics"]:
        if not NAME.match(name):
            fail("metric name %r breaks the name grammar" % name)
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail("metric %s missing from the run" % entry["name"])
        if got["unit"] != entry["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (entry["name"], got["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def print_layer_map(result):
    """Each per-layer metric with the end-to-end metric it should move."""
    layers = load_json(HERE, "layers.json")["per_layer"]
    for name in sorted(layers):
        entry = layers[name]
        got = result["metrics"][name]
        print("layer   %-40s %14.6g %-6s -> %s; no change: %s"
              % (name, got["value"], got["unit"], entry["moves"],
                 entry["no_change"]))


def selftest():
    build(["e2e_bench", "e2e_bench_tests"])
    if subprocess.run([os.path.join(BUILD, "e2e_bench_tests")],
                      env=child_env()).returncode != 0:
        fail("benchmark tests failed")
    bench = load_json(ROOT, "BENCHMARK.json")
    layers = load_json(HERE, "layers.json")["per_layer"]
    listed = {m["name"] for m in bench["per_layer"]}
    if listed != set(layers):
        fail("layers.json and BENCHMARK.json per_layer differ: %s"
             % sorted(listed ^ set(layers)))
    for entry in bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(entry["name"]):
            fail("BENCHMARK.json name %r breaks the grammar" % entry["name"])
    for workload in WORKLOADS:
        _, result = run_workload(workload, 1, 1, False)
        select_metrics(result, bench["end_to_end"])
        if not result["correct"] or result["failed"]:
            fail(workload + " smoke run incorrect")
    print("selftest ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")
    bench = load_json(ROOT, "BENCHMARK.json")
    build(["e2e_bench"])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        lines, result = run_workload(workload, args.seed, args.seconds,
                                     args.trace)
        print("\n".join(lines))
        if args.trace:
            print_layer_map(result)
        if result["attempted"] < 1:
            fail(workload + " attempted nothing")
        print(json.dumps({
            "correct": bool(result["correct"]) and result["failed"] == 0,
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": select_metrics(result, wanted)}), flush=True)


if __name__ == "__main__":
    main()

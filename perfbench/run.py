#!/usr/bin/env python3
"""Build and run the request benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload request_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # all four, one process
    python3 perfbench/run.py --selftest                # determinism + tiling check

Run from the repository root. The first run configures and builds the
benchmark and the library sources it links into $CARGO_TARGET_DIR (default
.bench_build) with CMake. The last line of standard output is the JSON
result of the (last) workload; build output goes to standard error.
With --trace 1 the Chrome traces go to $CARGO_TARGET_DIR/perfbench/traces.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["request_mix", "sim_long", "oracle_soak", "service_stream"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "target", "tdsp.isd")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, base, "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return bdir


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run the benchmark binary; returns (exit code, stdout lines, results)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           *extra]
    runs = len(WORKLOADS) if workload == "all" else 1
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S * runs)
    except subprocess.TimeoutExpired:
        fail(workload + ": timed out")
    sys.stderr.write(p.stderr)
    lines = p.stdout.rstrip("\n").split("\n")
    results = [json.loads(l) for l in lines if l.startswith('{"correct"')]
    return p.returncode, lines, results


def measure(binary, args):
    extra = []
    if args.trace:
        traces = os.path.join(os.path.dirname(binary), "traces")
        os.makedirs(traces, exist_ok=True)
        extra = ["--trace-dir", traces]
    code, lines, results = run(binary, args.workload, args.seed, args.seconds,
                               args.trace, extra)
    print("\n".join(lines))
    sys.stdout.flush()
    expected = len(WORKLOADS) if args.workload == "all" else 1
    if len(results) != expected or not lines[-1].startswith('{"correct"'):
        fail("missing result line")
    declared = sorted(declared_metrics(args.trace))
    for r in results:
        if sorted(r["metrics"]) != declared:
            fail("metrics differ from BENCHMARK.json: " +
                 ", ".join(sorted(r["metrics"])))
    return code


def selftest(binary):
    """Two short fixed-work runs per workload must report the same
    deterministic counters, pass every check and tile their spans."""
    ok = True
    for w in WORKLOADS:
        counters = []
        for _ in range(2):
            code, lines, results = run(binary, w, 7, 60, True,
                                       ["--requests", "64"])
            if code or len(results) != 1 or not results[0]["correct"]:
                print("\n".join(lines))
                ok = False
            counters.append([l for l in lines if " counter " in l])
        same = counters[0] == counters[1] and counters[0]
        print("%-15s %s (%d counters)" % (w, "same" if same else "DIFFER",
                                          len(counters[0])))
        if not same:
            for a, b in zip(*counters):
                if a != b:
                    print("  %s\n  %s" % (a, b))
            ok = False
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    binary = os.path.join(build(), "perfbench")
    sys.exit(selftest(binary) if args.selftest else measure(binary, args))


if __name__ == "__main__":
    main()

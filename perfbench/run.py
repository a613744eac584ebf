#!/usr/bin/env python3
"""Build and run the graph2par end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse
the build. The last line of stdout is the JSON result of the run.

--smoke is the benchmark's self-check: a short run of every workload in
BENCHMARK.json, traced and untraced, asserting that every metric named there
is emitted with its unit, that every output check passes, and that on
cold_batch the traced stage spans add up to pipeline.call_us within
SPAN_TOLERANCE.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BINARY = "g2p_perfbench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# cold_batch's stage spans must account for pipeline.call_us within this share.
SPAN_TOLERANCE = 0.15
SMOKE_SECONDS = "1"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False).returncode == 0
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False


def build(retry=True):
    """Configure and build the benchmark; returns the binary path or None."""
    out = build_dir()
    had_cache = os.path.exists(os.path.join(out, "CMakeCache.txt"))
    configure = ["cmake", "-S", PACKAGE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not had_cache:
        configure += ["-G", "Ninja"]
    if not run_checked(configure, BUILD_TIMEOUT_S):
        if not (had_cache and retry):
            return None
        # Perhaps a cache from another source location: start afresh, once.
        shutil.rmtree(out, ignore_errors=True)
        return build(retry=False)
    jobs = str(os.cpu_count() or 1)
    if not run_checked(["cmake", "--build", out, "--target", BINARY, "-j", jobs],
                       BUILD_TIMEOUT_S):
        return None
    binary = os.path.join(out, BINARY)
    return binary if os.path.exists(binary) else None


def run_benchmark(binary, workload, seed, seconds, trace):
    """Run one measurement; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if str(trace) == "1":
        cmd += ["--spans", os.path.join(build_dir(), f"spans-{workload}-{seed}.tsv")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, stdout.splitlines()


def smoke(binary):
    """Assert every BENCHMARK.json metric is emitted and the spans add up."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, lines = run_benchmark(binary, workload, 1, SMOKE_SECONDS, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
            extra = set(metrics) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{where}: undeclared metrics {sorted(extra)}")
            if trace == "1" and workload == "cold_batch" and not problems:
                call = metrics["pipeline.call_us"]["value"]
                overhead = metrics["pipeline.overhead_us"]["value"]
                share = abs(overhead) / call
                log(f"cold_batch: stage spans leave {overhead:.1f} us of {call:.1f} us "
                    f"per call unaccounted ({share:.1%}, tolerance {SPAN_TOLERANCE:.0%})")
                if share > SPAN_TOLERANCE:
                    problems.append(f"cold_batch: stage spans miss {share:.1%} of pipeline.call_us")
    for p in problems:
        log("FAIL " + p)
    log("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.smoke:
        return smoke(binary)
    code, lines = run_benchmark(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

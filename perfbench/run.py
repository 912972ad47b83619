#!/usr/bin/env python3
"""Build and run the libsfa end-to-end benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload build|scan|serve --seed N --seconds S --trace 0|1
      One measured run.  The last line of standard output is the JSON result;
      the exit code is non-zero when any answer was wrong or the run failed.
  python3 perfbench/run.py --self-test
      Feeds the benchmark one wrong reference per phase and checks that it
      reports the failures and exits non-zero.
  python3 perfbench/run.py --overhead --workload W --seed N --seconds S
      Runs W untraced and traced, prints the traced run's output, then the
      tracing overhead as traced minus untraced for every end-to-end metric.

The benchmark is compiled from the sources in the checkout into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).  Build output
goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "sfa_perfbench", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "sfa_perfbench")


def run(binary, workload, seed, seconds, trace, extra=()):
    """Runs the binary once; returns (exit code, stdout lines)."""
    trace_out = os.path.join(build_dir(), "trace-%s-%s.json" % (workload, seed))
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--trace-out", trace_out, *extra]
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            timeout=RUN_TIMEOUT_S, check=False)
    return result.returncode, result.stdout.splitlines()


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(lines, trace):
    """The binary's result restricted to the declared metrics.

    The binary reports every metric it measured; BENCHMARK.json gates only
    those that repeat on a shared host (README.md says which and why).  A
    declared metric that is missing or not a positive finite number makes
    the run fail.
    """
    result = json.loads(lines[-1])
    names = declared_metrics(trace)
    measured = result["metrics"]
    missing = [n for n in names if n not in measured]
    if missing:
        sys.exit("perfbench: metrics missing from the run: " + ", ".join(missing))
    if not trace:
        bad = [n for n in names if not 0 < measured[n]["value"] < float("inf")]
        if bad:
            sys.exit("perfbench: end-to-end metrics not positive: " + ", ".join(bad))
    ungated = sorted(set(measured) - set(names))
    result["metrics"] = {n: measured[n] for n in names}
    return ungated, json.dumps(result)


def e2e_lines(lines):
    """The 'e2e <name> <value> <unit>' lines the binary prints in both modes."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "e2e":
            out[parts[1]] = (float(parts[2]), parts[3] if len(parts) > 3 else "")
    return out


def self_test(binary):
    code, lines = run(binary, "scan", 1, 3, 0, ["--inject-wrong-reference"])
    print("\n".join(lines))
    result = json.loads(lines[-1]) if lines else {}
    caught = (code != 0 and result.get("correct") is False
              and result.get("failed", 0) >= 3)
    print("self-test: wrong references %s (exit code %d, failed %s)"
          % ("caught" if caught else "NOT caught", code, result.get("failed")))
    return 0 if caught else 1


def overhead(binary, workload, seed, seconds):
    code_plain, plain = run(binary, workload, seed, seconds, 0)
    code_traced, traced = run(binary, workload, seed, seconds, 1)
    if code_plain != 0 or code_traced != 0:
        print("overhead: a run failed (exit codes %d, %d)" % (code_plain, code_traced))
        return 1
    print("\n".join(traced[:-1]))
    a, b = e2e_lines(plain), e2e_lines(traced)
    print("%-28s %14s %14s %14s %9s" % ("metric", "untraced", "traced", "traced-untraced", "relative"))
    for name in sorted(a):
        va, unit = a[name]
        vb = b[name][0]
        print("%-28s %14.6g %14.6g %14.6g %8.1f%%  %s"
              % (name, va, vb, vb - va, 100.0 * (vb - va) / va if va else 0.0, unit))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=["build", "scan", "serve"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.overhead:
        return overhead(binary, args.workload, args.seed, args.seconds)
    code, lines = run(binary, args.workload, args.seed, args.seconds, args.trace)
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        sys.exit("perfbench: the run printed no result (exit code %d)" % code)
    ungated, result = result_line(lines, args.trace)
    print("\n".join(lines[:-1]))
    if ungated:
        print("reported, not gated: " + ", ".join(ungated))
    print(result, flush=True)
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        sys.exit("perfbench: timed out: %s" % " ".join(map(str, e.cmd)))

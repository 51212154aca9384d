#!/usr/bin/env python3
"""Builds the dydbscan benchmark from source and runs it.

One run (prints the result JSON as the last line of standard output):

    python3 dybench/run.py --workload window-d2 --seed 1 --seconds 10 --trace 0

Steadiness mode: runs each workload several times back to back, one seed
per run, and prints for every metric the median, the quartiles (as
Python's statistics.quantiles(values, n=4) gives them), the quartile
spread as a share of the median, and the max/min ratio:

    python3 dybench/run.py --steadiness --runs 10 --seconds 10 [--trace 1]
        [--workloads paper-d3,serve-d2] [--first-seed 1]

The build goes to $CARGO_TARGET_DIR, or to .bench_build in the current
directory when it is unset. Run from the root of the repository.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-d3", "window-d2", "window-sharded-d2", "serve-d2"]


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build output goes to stderr: stdout's last line is the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        print("dybench: build failed", file=sys.stderr)
        sys.exit(done.returncode or 1)
    return os.path.join(target, "release", "dybench"), target


def run_once(binary, target, args, echo):
    cmd = [binary, *args, "--trace-out", os.path.join(target, "dybench-traces")]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done.stdout


def steadiness(binary, target, argv):
    opts = {"--runs": "5", "--seconds": "10", "--trace": "0",
            "--workloads": ",".join(WORKLOADS), "--first-seed": "1"}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            sys.exit(f"dybench: unknown steadiness flag {flag}")
        opts[flag] = next(it)
    runs, first = int(opts["--runs"]), int(opts["--first-seed"])
    status = 0
    for workload in opts["--workloads"].split(","):
        values, failed, attempted = {}, [], []
        for seed in range(first, first + runs):
            code, result, out = run_once(binary, target, [
                "--workload", workload, "--seed", str(seed),
                "--seconds", opts["--seconds"], "--trace", opts["--trace"]], echo=False)
            if code != 0 or result is None:
                sys.stdout.write(out)
                print(f"{workload} seed {seed}: exit {code}")
                status = 1
                continue
            env = next((l for l in out.splitlines() if l.startswith("env ")), "")
            host = " ".join(f for f in env.split() if f.split("=")[0] in ("steal_ms", "runq_wait_ms", "rounds"))
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in list(result["metrics"].items())[:6])
            print(f"  {workload} seed {seed}: {host} {shown}", flush=True)
            failed.append(result["failed"])
            attempted.append(result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {len(attempted)} runs of {opts['--seconds']} s, seeds {first}..{first + runs - 1}, "
              f"failed/attempted {sum(failed)}/{sum(attempted)}")
        print(f"  {'metric':<38} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'max/min':>8}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            lo, hi = min(vs), max(vs)
            ratio = hi / lo if lo > 0 else float("nan")
            print(f"  {name:<38} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.3f} {ratio:>8.3f}")
        sys.stdout.flush()
    return status


def main():
    argv = sys.argv[1:]
    binary, target = build()
    if argv[:1] == ["--steadiness"]:
        sys.exit(steadiness(binary, target, argv[1:]))
    code, _, _ = run_once(binary, target, argv, echo=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the FRED host-time benchmark (the Rust package beside this file).

Run from the repository root.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one run; the last line of output is the JSON result
  python3 perfbench/run.py --repeat <N>
      N runs of each workload on seeds 1..N, each as long as
      BENCHMARK.json's run_seconds; with N = 1 it prints every end-to-end
      metric with its unit, otherwise the median and quartiles of each
      metric and the quartile spread beside its bound in BENCHMARK.json
  python3 perfbench/run.py --self-test
      shows that a corrupted expected value is caught
  python3 perfbench/run.py --record-expected
      rewrites perfbench/expected.txt from the current build

The build goes to $CARGO_TARGET_DIR (default: .bench_build).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["train_paper", "train_traced", "cluster_churn", "dse_pareto"]


def build():
    """Builds the release binary; returns its path, or exits non-zero."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "fred-perfbench")


def option(argv, name, default):
    if name in argv:
        return argv[argv.index(name) + 1]
    return default


def repeat(binary, argv):
    n = int(option(argv, "--repeat", "1"))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = str(bench["run_seconds"])
    limits = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for name in WORKLOADS:
        values = {}
        units = {}
        for seed in range(1, n + 1):
            cmd = [binary, "--workload", name, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                meta = json.loads(lines[-2])["meta"]
            except (IndexError, ValueError, KeyError):
                sys.exit(f"perfbench: {' '.join(cmd)} exited {proc.returncode} without a result")
            if n == 1:
                print("\n".join(lines[:-2]))
            if not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: {result['failed']}/{result['attempted']} ops FAILED")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
        if n == 1:
            continue
        print(f"{name}: {n} runs, seeds 1..{n}, nproc {meta['nproc']}, "
              f"threads {meta['threads']}, {meta['profile']} build, commit {meta['git_commit']}")
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            line = (f"  {metric:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                    f"{units[metric]:<3} spread {(q3 - q1) / med:.4f}")
            if metric in limits:
                line += f" (bound {limits[metric]})"
            print(line)
    return 0 if ok else 1


def main(argv):
    binary = build()
    if "--repeat" in argv:
        return repeat(binary, argv)
    if "--record-expected" in argv:
        argv = ["--record-expected", os.path.join(HERE, "expected.txt")]
    return subprocess.run([binary] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

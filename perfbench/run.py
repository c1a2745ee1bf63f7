#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The benchmark is built with cargo
into $CARGO_TARGET_DIR (default: perfbench/target). The program's
stdout is passed through; before its last line, the result object, a
host block is printed: CPUs, CPU model, kernel, rustc, git commit, and
the share of CPU time stolen by the hypervisor while the run lasted.
With --trace 1 the spans are written under the target directory.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_times():
    """The aggregate `cpu` line of /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    return [int(x) for x in fields[1:]]


def steal_share(before, after):
    """Stolen ticks as a share of all ticks between two samples."""
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user, so only the first eight add up.
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


def command_output(cmd, cwd=None):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_block(steal):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"], cwd=HERE) or "unknown",
        "steal_share": steal,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.tsv")
        cmd += ["--spans-out", spans]
    before = cpu_times()
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    after = cpu_times()
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"host": host_block(steal_share(before, after))}))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

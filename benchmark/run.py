#!/usr/bin/env python3
"""Builds the benchmark and `refer-node` from source, then runs workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is paper, dutycycle, fabric, cluster, or `all`, which runs the four
in turn, each in a fresh process, and prints their metrics. Builds go to
$CARGO_TARGET_DIR, default `.bench_build` at the repository root. The last
line of standard output of a single workload is its JSON result; build
output goes to standard error.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["paper", "dutycycle", "fabric", "cluster"]
MANIFESTS = ["benchmark/Cargo.toml", "crates/node/Cargo.toml"]


def build():
    """Builds both binaries; returns the target directory or exits."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest in MANIFESTS:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(ROOT, manifest)]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: building {manifest} failed")
    return target


def main():
    args = sys.argv[1:]
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "all"
    target = build()
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "refer-benchmark"),
             "--node-bin", os.path.join(release, "refer-node"), "--work-dir", target]
    if workload != "all":
        sys.exit(subprocess.run(bench + args).returncode)
    rest = [a for i, a in enumerate(args)
            if a != "--workload" and (i == 0 or args[i - 1] != "--workload")]
    failed = False
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        run = subprocess.run(bench + ["--workload", name] + rest)
        failed = failed or run.returncode != 0
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()

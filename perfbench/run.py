#!/usr/bin/env python3
"""Build and run the roamsim workload benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-healthy --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 42] [--seconds 10] [--trace 0]

The first form prints human-readable lines and, last on stdout, one JSON
result line. `--all` runs every workload in turn. The benchmark package
is built (release) into $CARGO_TARGET_DIR, default `.bench_build`;
scratch files go to `.bench_run`. Both are under the current directory.
"""

import os
import subprocess
import sys

WORKLOADS = ["fleet-healthy", "fleet-degraded", "agent-soak", "campaign-paper"]
HERE = os.path.dirname(os.path.abspath(__file__))


def roam_overrides(environ):
    """Names of ROAM_* variables: the library reads some of them mid-run."""
    return sorted(k for k in environ if k.startswith("ROAM_"))


def build(target_dir):
    cmd = [
        "cargo", "build", "--offline", "--release", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr so the result line stays last on stdout.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def main(argv):
    names = roam_overrides(os.environ)
    if names:
        print(f"perfbench: refusing to run with ROAM_* overrides set ({', '.join(names)})",
              file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    scratch = os.path.abspath(".bench_run")
    if "--all" in argv:
        rest = [a for a in argv if a != "--all"]
        for workload in WORKLOADS:
            code = subprocess.run([binary, "--workload", workload, "--scratch", scratch] + rest).returncode
            if code != 0:
                return code
        return 0
    return subprocess.run([binary, "--scratch", scratch] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

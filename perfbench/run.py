#!/usr/bin/env python3
"""Run one benchmark workload from the root of a source checkout.

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Builds bin/ccsched.exe and perfbench/perfbench.exe from source with
dune, then runs the benchmark program, whose standard output ends with
the result object.  Exits non-zero without a result when the checkout
is not a complete source tree or the build fails.  See README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["serve-warm", "serve-cold", "simulate"]
# What the build needs besides the benchmark itself.
REQUIRED = ["dune-project", "bin/ccsched.ml", "lib/serve/server.ml", "lib/core/auto.ml"]


def source_digest():
    """MD5 over the library and daemon sources, so a result can be tied to
    the code it measured where no git metadata is available."""
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument(
        "--inject",
        default="none",
        choices=["none", "corrupt-response", "miss-count"],
        help="deliberate fault for the self-test (test_short.py)",
    )
    args = p.parse_args()

    missing = [f for f in REQUIRED if not os.path.exists(os.path.join(ROOT, f))]
    if missing:
        print("perfbench: not a complete source tree, missing: " + ", ".join(missing), file=sys.stderr)
        return 2

    targets = ["./bin/ccsched.exe", "./perfbench/perfbench.exe"]
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"] + targets,
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    cmd = [
        os.path.join("_build", "default", "perfbench", "perfbench.exe"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--inject", args.inject,
        "--ccsched", os.path.join("_build", "default", "bin", "ccsched.exe"),
        "--git-rev", git_rev(),
        "--source-digest", source_digest(),
    ]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

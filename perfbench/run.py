#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload scan-batch --seed 1 --seconds 10 --trace 0

Builds the benchmark twice from source (plain, and with the `trace`
feature) under $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload. `--trace 0` runs the plain build and prints the end-to-end
metrics; `--trace 1` first runs the plain build for the tracing-overhead
baseline, then the traced build, and prints the per-layer metrics. The
last line of standard output is the result object. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("scan-batch", "serve-remote", "ingest-recover")
# Each benchmark process must finish well inside the 180 s a run gets.
RUN_TIMEOUT_S = 170
MANIFEST = os.path.join("perfbench", "Cargo.toml")
OUT_DIR = os.path.join("perfbench", "out")


def build(target_dir, traced):
    """Build one variant; return the binary's path, or None on failure."""
    sub = os.path.join(target_dir, "traced" if traced else "plain")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
           "--target-dir", sub]
    if traced:
        cmd += ["--features", "trace"]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"error: running cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(sub, "release", "ddrs-perfbench")


def provenance():
    """The git revision when the checkout is a git repository, and a
    digest of the sources the benchmark builds from."""
    parts = []
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if rev.returncode == 0:
            parts.append("git:" + rev.stdout.strip())
    except OSError:
        pass
    h = hashlib.sha256()
    roots = ["Cargo.lock", "crates", "vendor", os.path.join("perfbench", "src"), MANIFEST]
    for root in roots:
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    parts.append("src:" + h.hexdigest()[:16])
    return " ".join(parts)


def run(binary, args, rev, extra=()):
    """Run one benchmark process; return (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", OUT_DIR, "--rev", rev, *extra]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, []
    return done.returncode, done.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Build both variants on every run (a no-op once built), so the first
    # run pays for both builds and a later traced run stays short.
    plain, traced = build(target_dir, False), build(target_dir, True)
    if plain is None or traced is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    rev = provenance()

    code, lines = run(plain, args, rev)
    if args.trace == 1:
        result = json.loads(lines[-1]) if code == 0 and lines else None
        if result is None:
            for line in lines:
                print("untraced " + line)
            print("error: the untraced baseline run failed", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print("untraced " + line)
        base = result["metrics"]["p50_ms"]["value"]
        code, lines = run(traced, args, rev, ("--baseline-p50-ms", repr(base)))
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())

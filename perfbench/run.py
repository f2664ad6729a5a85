#!/usr/bin/env python3
"""Builds the NEAT campaign benchmark from this checkout and runs it.

    python3 perfbench/run.py --workload sweep|guided|deep --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the library sources under src/) into the directory named by
CARGO_TARGET_DIR, default .bench_build; later runs only re-check the build.
Build output goes to standard error; the benchmark's own output, ending in
one JSON result line, goes to standard output. The exit code is the
benchmark's: 0 only when its correctness gate passed.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        print(f"perfbench: build step failed: {' '.join(map(str, cmd))}",
              file=sys.stderr)
        sys.exit(2)


def build(out):
    if not (ROOT / "src" / "neat" / "campaign.h").is_file():
        print(f"perfbench: no NEAT sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    if not any((out / name).is_file() for name in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(out), "--target", "neat_perfbench",
               "-j", jobs])
    return out / "neat_perfbench"


def source_revision():
    """The git revision when ROOT is a work tree's top level, plus a digest
    of the library sources, so results can be matched to code either way."""
    rev = "none"
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                pathlib.Path(lines[0]).resolve() == ROOT:
            rev = lines[1][:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "guided", "deep"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", str(ROOT / "tests" / "scenarios"),
           "--goldens", str(HERE / "goldens.txt"),
           "--rev", source_revision()]
    if args.trace:
        cmd += ["--spans-out",
                str(out / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

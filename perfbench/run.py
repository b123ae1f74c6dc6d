#!/usr/bin/env python3
"""Build the F2PM benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline_build --seed 1 --seconds 15 --trace 0

Builds the `f2pm` CLI from the repository workspace and the `perfbench`
package next to this file (into $CARGO_TARGET_DIR, default `.bench_build`),
then runs the workload in its own process. The last line of standard
output is the result JSON; everything else is human-readable report.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ("offline_build", "serve_stream", "retrain_slide")
# The workload binary bounds its own run; this only guards against a hang.
RUN_TIMEOUT_S = 170


def build(root, target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "f2pm-cli"], ["--manifest-path", "perfbench/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def source_rev(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True, check=True)
        top, rev = out.stdout.split()
        if os.path.realpath(top) == os.path.realpath(root):
            return "git:" + rev
    except (OSError, subprocess.CalledProcessError, ValueError):
        pass
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "perfbench"]
    for top in tops:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
        if os.path.isfile(os.path.join(root, top)):
            with open(os.path.join(root, top), "rb") as f:
                digest.update(top.encode() + f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "crates")):
        sys.exit("perfbench: no repository sources next to perfbench/ (expected crates/)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    build(root, target)

    out_dir = os.path.join(target, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--f2pm", os.path.join(target, "release", "f2pm"),
        "--out-dir", out_dir,
        "--rev", source_rev(root),
        "--rustc", rustc_version(),
    ]
    # Own process group, so a hung run can be stopped with everything it
    # started (the serve workload's server process included).
    child = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()

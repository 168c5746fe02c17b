#!/usr/bin/env python3
"""Fed-CDP round benchmark: build fedcl_perfbench from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench/fedcl_perfbench.cpp together with the fedcl libraries under
src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls only re-check the build. The program's stdout is passed
through; its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. Workloads and metrics
are described in perfbench/README.md and BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cdp_mlp", "sdp_cnn_serving", "stream_virtual")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for the build re-check.
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_digest():
    """Content hash of everything fedcl_perfbench is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(bdir):
    """Configures once, then builds only fedcl_perfbench and what it links."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no fedcl sources under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "fedcl_perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit("run.py: build step failed: %s" % " ".join(cmd))
    return bdir / "fedcl_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # Self-test hooks (perfbench/selftest.py), passed through.
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject", default="")
    args = parser.parse_args()

    exe = build(build_dir())
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    env = dict(os.environ, FEDCL_GIT_SHA=git_sha(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("run.py: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        sys.exit("run.py: fedcl_perfbench exited with status %d"
                 % proc.returncode)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("run.py: fedcl_perfbench printed no result line")
    if set(result) != RESULT_KEYS:
        sys.exit("run.py: malformed result line: %s" % lines[-1])
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()

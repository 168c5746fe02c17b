#!/usr/bin/env python3
"""Checkpoint matrix: one fl_simulator run per config, one digest each.

Runs `fl_simulator --rounds=3 --seed=97 --save=...` over three datasets,
the four paper policies and three engines (36 runs) and prints one line
per run, "<config> <sha256 of the saved checkpoint>", in a fixed order.
A first line, "# build=<type> <compiler> isa=<host.isa>", names the
build the digests came from and the ISA its kernels dispatched on; it is
read from the run manifest (`run.build` and `run.host.isa` in the meta
line) of one extra one-round `--telemetry-out` run, because after a
default configure the CMake cache holds an empty build type.
Two listings are equal exactly when every run saved the same bytes, so
diffing them checks bit identity:

  - across builds (a parent and a change, same compiler and host). The
    optimization level does not change the bits: every matmul element
    is one ascending-k chain, so RelWithDebInfo, the default, and
    Release list the same 36 digests, and only the first line differs.
    The ISA does: whether the matmul kernels fuse their multiply-adds
    depends on the CPU's x86-64 level and on whether the build has
    clones (not under ThreadSanitizer), so listings from two host.isa
    values are not comparable. tools/checkpoint_pin.py compares a
    binary's smoke listing with the one committed for its compiler and
    host.isa (the checkpoint_digests_pinned ctest);
  - across thread counts: run it at FEDCL_THREADS=1 and at 4 and compare
    (the checkpoint_matrix_threads ctest does this).

The engines are the sync engine (one-client units), the sync engine
with --streaming (edge blocks of two clients) under faults and retries,
and the async engine with faults and retries.

Usage:
  checkpoint_matrix.py --bin PATH [--scale smoke|small]

FEDCL_THREADS passes through to every run. Exits 1 if a run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

DATASETS = ["cancer", "adult", "mnist"]
POLICIES = ["non-private", "fed-sdp", "fed-cdp", "fed-cdp-decay"]
ENGINES = [
    ("sync", []),
    ("streaming", ["--streaming", "--fault-rate=0.05", "--retry-attempts=2",
                   "--tree-fan-out=2"]),
    ("async", ["--async", "--fault-rate=0.05", "--retry-attempts=2"]),
]
RUN_TIMEOUT_S = 300


def build_line(binary, env, tmp):
    """The "# build=<type> <compiler> isa=<host.isa>" line from a
    one-round run's meta, or None (reason on stderr) if the run fails."""
    meta = os.path.join(tmp, "meta.jsonl")
    cmd = [binary, "--dataset=cancer", "--rounds=1",
           "--telemetry-out=" + meta]
    run = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S)
    if run.returncode != 0:
        print("checkpoint_matrix: manifest run exited with %d:\n%s"
              % (run.returncode, run.stderr), file=sys.stderr)
        return None
    with open(meta) as f:
        manifest = json.loads(f.readline())["run"]
    # Binaries older than host.isa print "unknown".
    return "# build=%s %s isa=%s" % (manifest["build"]["type"],
                                     manifest["build"]["compiler"],
                                     manifest["host"].get("isa", "unknown"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", required=True, help="fl_simulator binary")
    parser.add_argument("--scale", choices=["smoke", "small"],
                        default="smoke")
    args = parser.parse_args()

    env = dict(os.environ, FEDCL_SCALE=args.scale)
    with tempfile.TemporaryDirectory(prefix="checkpoint_matrix_") as tmp:
        line = build_line(args.bin, env, tmp)
        if line is None:
            return 1
        print(line, flush=True)
        ckpt = os.path.join(tmp, "global.ckpt")
        for dataset in DATASETS:
            for policy in POLICIES:
                for engine, flags in ENGINES:
                    config = "%s/%s/%s" % (dataset, policy, engine)
                    cmd = [args.bin, "--dataset=" + dataset,
                           "--policy=" + policy, "--rounds=3", "--seed=97",
                           "--save=" + ckpt] + flags
                    run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                         stderr=subprocess.PIPE, text=True,
                                         timeout=RUN_TIMEOUT_S)
                    if run.returncode != 0:
                        print("checkpoint_matrix: %s exited with %d:\n%s"
                              % (config, run.returncode, run.stderr),
                              file=sys.stderr)
                        return 1
                    with open(ckpt, "rb") as f:
                        digest = hashlib.sha256(f.read()).hexdigest()
                    os.remove(ckpt)
                    print("%s %s" % (config, digest), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

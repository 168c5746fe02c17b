#!/usr/bin/env python3
"""Checks fl_simulator's smoke checkpoint matrix against a committed listing.

Runs tools/checkpoint_matrix.py at smoke scale on the given binary and
compares its 36 digests with the listing committed for the binary's key,
the compiler and host.isa of its "# build=<type> <compiler>
isa=<host.isa>" line. The build type is not part of the key: since every
matmul element is one ascending-k chain, RelWithDebInfo and Release save
the same bytes.

The listing file holds one section per key:

  key=g++ 12.2.0 isa=x86-64-v4+clones
  cancer/non-private/sync <sha256>
  ...

Exit codes: 0 when every digest matches; 1 when one moved (each moved
config is printed, old -> new) or a run failed; 77 when the file has no
section for the binary's key ("no listing for <key>"), which the ctest
reports as skipped. A change that moves bits on purpose re-records the
section in its own diff:

  python3 tools/checkpoint_matrix.py --bin build/examples/fl_simulator

Usage:
  checkpoint_pin.py FL_SIMULATOR LISTING
"""
import os
import subprocess
import sys

SKIP = 77


def read_listings(path):
    """{key: {config: digest}} from the listing file."""
    listings, current = {}, None
    with open(path) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("key="):
                current = listings.setdefault(line[len("key="):], {})
                continue
            config, digest = line.split()
            current[config] = digest
    return listings


def key_of(build_line):
    """'# build=<type> <compiler> isa=<isa>' -> '<compiler> isa=<isa>'."""
    rest = build_line[len("# build="):]
    return rest.split(" ", 1)[1]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 1
    binary, listing = sys.argv[1], sys.argv[2]
    matrix = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "checkpoint_matrix.py")
    run = subprocess.run([sys.executable, matrix, "--bin", binary,
                          "--scale", "smoke"],
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return 1
    lines = run.stdout.splitlines()
    key = key_of(lines[0])
    expected = read_listings(listing).get(key)
    if expected is None:
        print("checkpoint_pin: no listing for %s; skipped" % key)
        return SKIP
    got = dict(line.split() for line in lines[1:])
    moved = 0
    for config in sorted(set(expected) | set(got)):
        old, new = expected.get(config), got.get(config)
        if old != new:
            moved += 1
            print("MOVED %s %s -> %s" % (config, old, new))
    matched = sum(got.get(c) == d for c, d in expected.items())
    print("checkpoint_pin: %d of %d digests match the listing for %s"
          % (matched, len(expected), key))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

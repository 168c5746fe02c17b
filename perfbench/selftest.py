#!/usr/bin/env python3
"""Self-test of the round benchmark at a tiny length (about a minute).

    python3 perfbench/selftest.py

Checks, through perfbench/run.py:
  * every workload emits exactly the metrics BENCHMARK.json names, each
    with its unit: the end_to_end set untraced, the per_layer set traced,
    with correct=true and no failed rounds;
  * each output check fails when fed a wrong result (a perturbed weight
    byte, a broken fault-ledger count, ...), via fedcl_perfbench's --inject;
  * run.py exits nonzero, printing no result, in a tree that holds only
    BENCHMARK.json and perfbench/ (no sources to build).
Exits nonzero on the first failure.
"""
import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# (workload, injected fault, text the failed check must print)
INJECTIONS = [
    ("sdp_cnn_serving", "weight_byte", "differ from fl::run_experiment"),
    ("sdp_cnn_serving", "updates", "updates accepted"),
    ("cdp_mlp", "repeat_hash", "final-weight hash differs"),
    ("cdp_mlp", "nonfinite", "not all finite"),
    ("stream_virtual", "ledger", "fault ledger broken"),
    ("stream_virtual", "levels", "reducer occupancy"),
]


def run(workload, trace, inject=""):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "20261016", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    if proc.returncode != 0:
        sys.exit("FAIL %s: exit %d\n%s" % (" ".join(cmd), proc.returncode,
                                           proc.stderr[-3000:]))
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def check_metrics():
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            result, out = run(w, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = set(expected[trace]) - set(got)
                extra = set(got) - set(expected[trace])
                wrong = {k for k in set(got) & set(expected[trace])
                         if got[k] != expected[trace][k]}
                sys.exit("FAIL %s trace %d: missing %s extra %s wrong unit %s"
                         % (w, trace, sorted(missing), sorted(extra),
                            sorted(wrong)))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                sys.exit("FAIL %s trace %d: checks did not pass\n%s"
                         % (w, trace, out))
            print("ok   %-16s trace %d: %d metrics" % (w, trace, len(got)))


def check_injections():
    for w, inject, message in INJECTIONS:
        result, out = run(w, 0, inject)
        if result["correct"] or message not in out:
            sys.exit("FAIL %s --inject %s was not caught (want '%s')\n%s"
                     % (w, inject, message, out))
        print("ok   %-16s --inject %-12s caught" % (w, inject))


def check_bare_tree():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload",
           SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=bare,
                          timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit("FAIL bare tree: exit %d, stdout %r"
                 % (proc.returncode, proc.stdout[-500:]))
    print("ok   bare tree exits %d with no result" % proc.returncode)


def main():
    check_metrics()
    check_injections()
    check_bare_tree()
    print("selftest passed")


if __name__ == "__main__":
    main()

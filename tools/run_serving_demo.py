#!/usr/bin/env python3
"""Three-process serving demo, parity check, and trace check (stdlib only).

Launches one fedcl_server and two fedcl_client worker processes over
loopback TCP, waits for the run to complete, then re-runs the same
experiment with the in-process fl_simulator and byte-compares the two
saved checkpoints. Passing means the documented contract of
docs/PROTOCOL.md section 5 holds end to end: the multi-process socket
path produces a BITWISE identical global model to the single-process
sync engine at the same seed.

All three serving processes also run with --telemetry-out; their JSONL
streams are validated together with tools/fedcl_trace.py, STRICTLY:
every worker-side span must parent under its round's server-side span,
with zero orphan spans across the three streams. The streams are then
merged into one Chrome trace, in which every worker's fl.client.round
must parent under the server's fl.phase{local_train} of the same round
— the cross-process trace-propagation contract of docs/PROTOCOL.md
§3.4.

The server also accounts the run's privacy budget the way the
simulator does. Its --telemetry-out stream must validate with the round
spans and the dp.epsilon series present (tools/validate_telemetry.py),
and it must print a "privacy:" line equal to fl_simulator's for the same
flags.

With --async the server runs its asynchronous engine instead. The demo
still requires every round to complete, the streams and the merged
trace to pass the same checks, and the server's stream to carry
dp.epsilon. It skips the
checkpoint comparison: with two workers the async engine folds updates
in arrival order and gives up bitwise parity by design
(docs/PROTOCOL.md §5.2). It only requires the "privacy:" line to be
present, without running the simulator: the budget depends on the
config, not the engine.

Usage:
  run_serving_demo.py --server=PATH --client=PATH --simulator=PATH
                      [--rounds=5] [--port=0] [--async] [--keep-dir]
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
FEDCL_TRACE = os.path.join(TOOLS_DIR, "fedcl_trace.py")
VALIDATE_TELEMETRY = os.path.join(TOOLS_DIR, "validate_telemetry.py")

ROUND_TIMEOUT_S = 180

EXPERIMENT = {
    "dataset": "cancer",
    "policy": "fed-cdp",
    "clients": "8",
    "per-round": "4",
    "seed": "97",
}


def fail(msg):
    print("run_serving_demo: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def experiment_flags(rounds):
    flags = ["--%s=%s" % (k, v) for k, v in sorted(EXPERIMENT.items())]
    return flags + ["--rounds=%d" % rounds]


def privacy_line(output, who):
    """The one "privacy:" line a run printed."""
    lines = [l for l in output.splitlines() if l.startswith("privacy:")]
    if len(lines) != 1:
        fail("%s printed %d privacy: lines, expected 1" % (who, len(lines)))
    return lines[0]


def run_checked(step, what):
    print("+ %s" % " ".join(step))
    check = subprocess.run(step, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=60)
    sys.stdout.write(check.stdout)
    if check.returncode != 0:
        fail(what)


def check_worker_round_parents(merged_trace):
    """Every worker's fl.client.round parents under the server's
    fl.phase{local_train} span of the same round."""
    with open(merged_trace, encoding="utf-8") as f:
        spans = [e for e in json.load(f)["traceEvents"]
                 if e.get("ph") == "X"]
    by_id = {e["args"]["span"]: e for e in spans
             if "span" in e.get("args", {})}
    checked = 0
    for e in spans:
        if e.get("name") != "fl.client.round":
            continue
        args = e.get("args", {})
        parent = by_id.get(args.get("parent"), {})
        parent_args = parent.get("args", {})
        if (parent.get("name") != "fl.phase"
                or parent_args.get("phase") != "local_train"
                or parent_args.get("step") != args.get("step")):
            fail("fl.client.round of round %s parents under %s{%s} of "
                 "round %s, not fl.phase{local_train}"
                 % (args.get("step"), parent.get("name"),
                    parent_args.get("phase"), parent_args.get("step")))
        checked += 1
    if checked == 0:
        fail("no fl.client.round spans in the merged trace")
    print("run_serving_demo: %d worker round spans parent under "
          "fl.phase{local_train}" % checked)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--server", required=True)
    parser.add_argument("--client", required=True)
    parser.add_argument("--simulator", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--async", dest="async_engine", action="store_true")
    parser.add_argument("--keep-dir", action="store_true")
    args = parser.parse_args()
    if args.rounds < 5:
        fail("the demo contract is >= 5 rounds (got %d)" % args.rounds)

    env = dict(os.environ)
    env["FEDCL_SCALE"] = "smoke"
    work = tempfile.mkdtemp(prefix="fedcl_serving_demo_")
    net_ckpt = os.path.join(work, "net.ckpt")
    sim_ckpt = os.path.join(work, "sim.ckpt")
    procs = []
    try:
        server_telemetry = os.path.join(work, "server_telemetry.jsonl")
        client_telemetry = [
            os.path.join(work, "client%d_telemetry.jsonl" % w)
            for w in range(2)]
        server_cmd = [args.server, "--port=%d" % args.port, "--workers=2",
                      "--save=%s" % net_ckpt,
                      "--telemetry-out=%s" % server_telemetry] + \
            experiment_flags(args.rounds)
        if args.async_engine:
            server_cmd.append("--async")
        print("+ %s" % " ".join(server_cmd))
        server = subprocess.Popen(server_cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  env=env)
        procs.append(server)

        # The server announces its (possibly ephemeral) port on stdout:
        #   fedcl_server: listening on 127.0.0.1:PORT (...)
        port = None
        server_lines = []
        for line in server.stdout:
            server_lines.append(line)
            if "listening on 127.0.0.1:" in line:
                port = int(line.split("127.0.0.1:", 1)[1].split()[0])
                break
        if port is None:
            server.wait(timeout=10)
            fail("server never announced its port:\n%s"
                 % "".join(server_lines))
        print("run_serving_demo: server is on port %d" % port)

        clients = []
        for w in range(2):
            cmd = [args.client, "--port=%d" % port, "--worker-index=%d" % w,
                   "--workers=2",
                   "--telemetry-out=%s" % client_telemetry[w]]
            print("+ %s" % " ".join(cmd))
            clients.append(subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                            stderr=subprocess.STDOUT,
                                            text=True, env=env))
        procs.extend(clients)

        server_out, _ = server.communicate(timeout=ROUND_TIMEOUT_S)
        server_lines.append(server_out)
        out = "".join(server_lines)
        sys.stdout.write(out)
        if server.returncode != 0:
            fail("server exited with %d" % server.returncode)
        for w, client in enumerate(clients):
            client_out, _ = client.communicate(timeout=30)
            sys.stdout.write(client_out)
            if client.returncode != 0:
                fail("client %d exited with %d" % (w, client.returncode))

        want = "%d/%d rounds completed" % (args.rounds, args.rounds)
        if want not in out:
            fail("server did not complete all %d rounds" % args.rounds)
        if not os.path.exists(net_ckpt):
            fail("server did not write %s" % net_ckpt)
        server_privacy = privacy_line(out, "the server")
        run_checked([sys.executable, VALIDATE_TELEMETRY, server_telemetry,
                     "--require", "fl.round", "--require", "dp.epsilon"],
                    "the server's telemetry failed validation or records "
                    "no privacy budget")

        # The strict zero-orphan check over the three processes'
        # streams: every client span's parent chain must resolve to the
        # server's per-round span tree. Then one merged Chrome trace.
        streams = [server_telemetry] + client_telemetry
        merged_trace = os.path.join(work, "merged_trace.json")
        for step in (
            [sys.executable, FEDCL_TRACE, "validate"] + streams +
            ["--require-span=fl.round", "--require-span=fl.client.round",
             "--require-span=fl.phase", "--require-span=fl.net.recv"],
            [sys.executable, FEDCL_TRACE, "merge", merged_trace] + streams,
        ):
            run_checked(step, "the streams failed validation or merge — "
                        "cross-process span propagation is broken")
        check_worker_round_parents(merged_trace)

        if args.async_engine:
            print("run_serving_demo: PASS — %d async rounds over TCP, the "
                  "3 processes' spans have zero orphans, the server "
                  "accounts its budget (no checkpoint comparison: async "
                  "forgoes bitwise parity)" % args.rounds)
            return

        sim_telemetry = os.path.join(work, "sim_telemetry.jsonl")
        sim_cmd = [args.simulator, "--save=%s" % sim_ckpt,
                   "--telemetry-out=%s" % sim_telemetry] + \
            experiment_flags(args.rounds)
        print("+ %s" % " ".join(sim_cmd))
        sim = subprocess.run(sim_cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, env=env,
                             timeout=ROUND_TIMEOUT_S)
        sys.stdout.write(sim.stdout)
        if sim.returncode != 0:
            fail("fl_simulator exited with %d" % sim.returncode)

        with open(net_ckpt, "rb") as f:
            net_bytes = f.read()
        with open(sim_ckpt, "rb") as f:
            sim_bytes = f.read()
        if net_bytes != sim_bytes:
            fail("checkpoints differ (%d vs %d bytes) — the socket path "
                 "diverged from the in-process engine"
                 % (len(net_bytes), len(sim_bytes)))
        sim_privacy = privacy_line(sim.stdout, "fl_simulator")
        if server_privacy != sim_privacy:
            fail("the server accounted another budget than fl_simulator:\n"
                 "  server:    %s\n  simulator: %s"
                 % (server_privacy, sim_privacy))

        # The simulator's single-process stream must also stand alone.
        run_checked([sys.executable, FEDCL_TRACE, "validate", sim_telemetry,
                     "--require-span=fl.round"],
                    "fl_simulator's stream failed validation")

        print("run_serving_demo: PASS — %d rounds over TCP, checkpoint is "
              "bitwise identical to the in-process engine (%d bytes), "
              "privacy line matches, the 3 processes' spans have zero "
              "orphans" % (args.rounds, len(net_bytes)))
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
        if args.keep_dir:
            print("run_serving_demo: artifacts kept in %s" % work)
        else:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()

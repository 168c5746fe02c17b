#!/usr/bin/env python3
"""Work with the --telemetry-out JSONL streams' spans (stdlib only).

Every process (fl_simulator, fedcl_server, fedcl_client, the benches)
writes one JSONL stream (docs/telemetry.schema.json). Its meta line
carries the process id ("pid") and the wall-clock anchor
("wall_epoch_unix_ms") of the stream's millisecond offsets; every span
carries "start_ms" and "dur_ms" on those offsets and "tid", the dense
id of the thread it ran on. Traced spans also carry their identity:
"trace" (32-hex 128-bit trace id, one per federated round), "span"
(16-hex span id), "parent" (16-hex parent span id, absent for trace
roots), and "parent_remote": true when the parent span was emitted by
another process (propagated over the wire, docs/PROTOCOL.md §3.4).

Subcommands:
  validate FILE...    every line checked as tools/validate_telemetry.py
                      checks it, unique span ids, and orphan detection
                      across all given files together. An orphan is a
                      traced span whose parent id is nowhere in the
                      input; spans flagged parent_remote only count as
                      orphans when their producer's file is part of the
                      input (pass --allow-remote-orphans when
                      validating a single process's stream in
                      isolation).
  merge OUT FILE...   render the streams as one Chrome trace-event
                      document for Perfetto: one "X" event per span on
                      a shared wall-clock timeline, one named track
                      group per process.
  report FILE...      per-round critical paths: dominant phase, p50/p99
                      per phase, straggler worker attribution, and the
                      round ledger's accept/reject/degradation points.
  diff A B            compare per-phase p50 between two streams.

Exit status 0 on success; validate exits 1 on any invalid line,
duplicate span id or orphan span. CI runs `validate` on the telemetry
smoke streams and the serving demo's (docs/DEPLOYMENT.md shows the
capture workflow).
"""

import argparse
import json
import os
import sys

from validate_telemetry import read_stream

# The round ledger's per-round points report overlays.
OVERLAY_POINTS = (
    "fl.round.accepted",
    "fl.round.rejected",
    "fl.round.noise_widening",
)


def fail(msg):
    print("fedcl_trace: %s" % msg, file=sys.stderr)
    sys.exit(1)


def read_or_fail(path):
    try:
        return read_stream(path)
    except (OSError, UnicodeDecodeError) as e:
        fail("%s: cannot read: %s" % (path, e))


def load_stream(path):
    """(meta, spans, points) of a stream that must be valid throughout."""
    events, failures = read_or_fail(path)
    if failures:
        lineno, errors = failures[0]
        fail("%s: line %d: %s" % (path, lineno, errors[0]))
    if not events:
        fail("%s: no events, not even the meta line" % path)
    meta = events[0][1]
    spans = [e for _, e in events if e["type"] == "span"]
    points = [e for _, e in events if e["type"] == "point"]
    return meta, spans, points


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args):
    errors = []
    traced = []  # (path, span event) for traced spans
    span_ids = set()
    total_spans = 0
    for path in args.files:
        events, failures = read_or_fail(path)
        for lineno, line_errors in failures:
            errors.extend("%s: line %d: %s" % (path, lineno, error)
                          for error in line_errors)
        if not events and not failures:
            errors.append("%s: no events, not even the meta line" % path)
        for _, e in events:
            if e["type"] != "span":
                continue
            total_spans += 1
            if "span" not in e:
                continue
            if e["span"] in span_ids:
                errors.append("%s: duplicate span id %s" % (path, e["span"]))
            span_ids.add(e["span"])
            traced.append((path, e))

    remote_skipped = 0
    for path, e in traced:
        parent = e.get("parent")
        if parent is None or parent in span_ids:
            continue
        if e.get("parent_remote") and args.allow_remote_orphans:
            remote_skipped += 1
            continue
        errors.append(
            "%s: orphan span %s (%s): parent %s never emitted"
            % (path, e["span"], e["name"], parent)
        )

    for name in args.require_span:
        if not any(e["name"] == name for _, e in traced):
            errors.append("required traced span %r never emitted" % name)

    if errors:
        for error in errors:
            print("fedcl_trace: %s" % error, file=sys.stderr)
        return 1
    note = (
        " (%d cross-process parents skipped)" % remote_skipped
        if remote_skipped
        else ""
    )
    print(
        "fedcl_trace: OK — %d spans, %d traced, 0 orphans%s"
        % (total_spans, len(traced), note)
    )
    return 0


# ---------------------------------------------------------------------------
# merge


def process_name(meta, path):
    """The process's track name: its program, plus the worker index of
    a serving worker; the file name when the stream has no argv."""
    argv = meta["run"]["argv"]
    if not argv:
        return os.path.basename(path)
    name = os.path.basename(argv[0])
    for i, arg in enumerate(argv):
        if arg.startswith("--worker-index="):
            return "%s[%s]" % (name, arg.split("=", 1)[1])
        if arg == "--worker-index" and i + 1 < len(argv):
            return "%s[%s]" % (name, argv[i + 1])
    return name


def chrome_events(path):
    meta, spans, _ = load_stream(path)
    if "pid" not in meta or "wall_epoch_unix_ms" not in meta:
        fail("%s: the meta line carries no pid / wall_epoch_unix_ms"
             % path)
    pid = meta["pid"]
    epoch_ms = meta["wall_epoch_unix_ms"]
    events = [{"name": "process_name", "ph": "M", "pid": pid,
               "args": {"name": process_name(meta, path)}}]
    for s in spans:
        args = {k: s[k] for k in ("trace", "span", "parent",
                                  "parent_remote", "step") if k in s}
        args.update(s.get("labels", {}))
        # Complete events: ts/dur in microseconds on the wall clock, so
        # streams of separate processes share one timeline.
        events.append({
            "name": s["name"],
            "cat": "fedcl",
            "ph": "X",
            "ts": (epoch_ms + s["start_ms"]) * 1000.0,
            "dur": s["dur_ms"] * 1000.0,
            "pid": pid,
            "tid": s["tid"],
            "args": args,
        })
    return events


def cmd_merge(args):
    merged = {"traceEvents": [], "displayTimeUnit": "ms"}
    for path in args.files:
        merged["traceEvents"].extend(chrome_events(path))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(merged, f)
        f.write("\n")
    print(
        "fedcl_trace: merged %d streams -> %s (%d events)"
        % (len(args.files), args.out, len(merged["traceEvents"]))
    )
    return 0


# ---------------------------------------------------------------------------
# report


def phase_key(span):
    """A stable per-phase bucket: span name plus the discriminating label."""
    labels = span.get("labels", {})
    name = span["name"]
    if name in ("fl.phase", "fl.client.phase"):
        return "%s{%s}" % (name, labels.get("phase", "?"))
    if name == "dp.sanitize":
        return "dp.sanitize{%s}" % labels.get("stage", "?")
    return name


def percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(q * (len(sorted_vals) - 1) + 0.5))
    return sorted_vals[idx]


def cmd_report(args):
    rounds = {}  # step -> traced spans of that round
    overlay = {}  # step -> {ledger point name: value}
    for path in args.files:
        _, spans, points = load_stream(path)
        for s in spans:
            if "trace" in s and "step" in s:
                rounds.setdefault(s["step"], []).append(s)
        for p in points:
            if "step" in p and p["name"] in OVERLAY_POINTS:
                overlay.setdefault(p["step"], {})[p["name"]] = p["value"]
    if not rounds:
        fail("%s hold no traced, stepped spans" % " ".join(args.files))

    phase_durs = {}
    print("per-round critical path:")
    for step in sorted(rounds):
        spans = rounds[step]
        by_phase = {}
        for s in spans:
            key = phase_key(s)
            by_phase[key] = by_phase.get(key, 0.0) + s["dur_ms"]
            phase_durs.setdefault(key, []).append(s["dur_ms"])
        round_total = by_phase.pop("fl.round", 0.0)
        dominant = max(by_phase.items(), key=lambda kv: kv[1], default=("-", 0))

        # Straggler attribution: the worker whose fl.client.round span
        # ran longest this round held the round open.
        straggler = ""
        worker_ms = {}
        for s in spans:
            if s["name"] == "fl.client.round":
                w = s.get("labels", {}).get("worker", "?")
                worker_ms[w] = max(worker_ms.get(w, 0.0), s["dur_ms"])
        if worker_ms:
            slowest = max(worker_ms.items(), key=lambda kv: kv[1])
            straggler = " | slowest worker %s (%.2f ms)" % slowest

        note = ""
        ov = overlay.get(step)
        if ov:
            note = " | accepted=%s rejected=%s" % (
                "%g" % ov["fl.round.accepted"]
                if "fl.round.accepted" in ov else "?",
                "%g" % ov["fl.round.rejected"]
                if "fl.round.rejected" in ov else "?",
            )
            if "fl.round.noise_widening" in ov:
                note += " DEGRADED(widening=%.2f)" % ov[
                    "fl.round.noise_widening"
                ]
        print(
            "  round %-4d %8.2f ms | dominant %s (%.2f ms)%s%s"
            % (step, round_total, dominant[0], dominant[1], straggler, note)
        )

    print("per-phase latency across rounds:")
    for key in sorted(phase_durs):
        vals = sorted(phase_durs[key])
        print(
            "  %-28s n=%-5d p50=%8.3f ms  p99=%8.3f ms  total=%9.2f ms"
            % (
                key,
                len(vals),
                percentile(vals, 0.50),
                percentile(vals, 0.99),
                sum(vals),
            )
        )
    return 0


# ---------------------------------------------------------------------------
# diff


def phase_p50(path):
    _, spans, _ = load_stream(path)
    durs = {}
    for s in spans:
        durs.setdefault(phase_key(s), []).append(s["dur_ms"])
    return {k: percentile(sorted(v), 0.5) for k, v in durs.items()}


def cmd_diff(args):
    a = phase_p50(args.a)
    b = phase_p50(args.b)
    print("%-28s %12s %12s %10s" % ("phase (p50 ms)", args.a[-12:],
                                    args.b[-12:], "delta"))
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            print("%-28s %12s %12s %10s"
                  % (key,
                     "%.3f" % va if va is not None else "-",
                     "%.3f" % vb if vb is not None else "-",
                     "only one side"))
            continue
        delta = vb - va
        pct = " (%+.0f%%)" % (100.0 * delta / va) if va > 0 else ""
        print("%-28s %12.3f %12.3f %+10.3f%s" % (key, va, vb, delta, pct))
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check streams and orphan spans")
    p.add_argument("files", nargs="+")
    p.add_argument(
        "--allow-remote-orphans",
        action="store_true",
        help="skip spans whose parent lives in a file not given here",
    )
    p.add_argument(
        "--require-span",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless a traced span with this name is present",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("merge", help="render streams as one Chrome trace")
    p.add_argument("out")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("report", help="per-round critical-path profile")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("diff", help="compare per-phase p50 of two streams")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_diff)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

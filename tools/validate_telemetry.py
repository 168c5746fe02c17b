#!/usr/bin/env python3
"""Validate a --telemetry-out JSONL stream against docs/telemetry.schema.json.

Stdlib only (no jsonschema dependency): the schema's constraints are
simple enough to check by hand, and this script enforces exactly the
contract the schema documents — per-event required fields, field types,
and the meta header on line 1. CI runs it on the fl_simulator artifact,
and tools/fedcl_trace.py reads every stream through read_stream below.

Usage: tools/validate_telemetry.py run.jsonl [--require name ...]
                                            [--forbid name ...]

--require NAME fails the run unless at least one span or point event
with that metric name is present (used by CI to pin down the round
spans, the epsilon series, and the screening counters' point mirror).
--forbid NAME fails the run if any span or point event has that name
(used by CI to pin that a non-private run reports no epsilon).
Exit status 0 on success, 1 with a line-numbered report otherwise.
"""

import argparse
import json
import sys

LEVELS = {"DEBUG", "INFO", "WARN", "ERROR"}


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def is_hex_id(v, digits):
    """Fixed-width lowercase-hex id (u64s travel as strings: JSON
    numbers are doubles and cannot carry 64-bit ids losslessly)."""
    return (
        isinstance(v, str)
        and len(v) == digits
        and all(c in "0123456789abcdef" for c in v)
        and v != "0" * digits
    )


def check_span_timing(event, errors):
    """Every span carries its start and the dense id of the thread it
    ran on; t_ms is its end (emit time)."""
    if not is_num(event.get("start_ms")) or event.get("start_ms", -1) < 0:
        errors.append("span needs a non-negative 'start_ms'")
    elif is_num(event.get("t_ms")) and event["start_ms"] > event["t_ms"]:
        # t_ms is the span END (emit time): end < start is corrupt.
        errors.append("span ends before it starts (start_ms > t_ms)")
    if not is_int(event.get("tid")) or event["tid"] < 1:
        errors.append("span needs a positive integer 'tid'")


def check_span_trace(event, errors):
    """Optional distributed-tracing fields on span events: either all
    absent (untraced span) or 'trace' + 'span' present with 'parent'
    optional."""
    keys = ("trace", "span", "parent", "parent_remote")
    present = [k for k in keys if k in event]
    if not present:
        return
    if not is_hex_id(event.get("trace", ""), 32):
        errors.append("'trace' must be 32 lowercase hex digits")
    if not is_hex_id(event.get("span", ""), 16):
        errors.append("'span' must be 16 lowercase hex digits")
    if "parent" in event and not is_hex_id(event["parent"], 16):
        errors.append("'parent' must be 16 lowercase hex digits")
    if "parent_remote" in event:
        if event["parent_remote"] is not True:
            errors.append("'parent_remote' must be true when present")
        if "parent" not in event:
            errors.append("'parent_remote' without 'parent'")


def check_labels(event, errors):
    labels = event.get("labels")
    if labels is None:
        return
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        errors.append("labels must be a string-to-string object")


def check_common(event, errors):
    if not isinstance(event.get("name"), str) or not event["name"]:
        errors.append("missing or empty 'name'")
    if not is_num(event.get("t_ms")) or event["t_ms"] < 0:
        errors.append("'t_ms' must be a non-negative number")
    if "step" in event and (
        not isinstance(event["step"], int)
        or isinstance(event["step"], bool)
        or event["step"] < 0
    ):
        errors.append("'step' must be a non-negative integer")
    check_labels(event, errors)


def check_run_manifest(run, errors):
    """The meta event carries the run manifest (docs/METRICS.md)."""
    if not isinstance(run, dict):
        errors.append("meta 'run' must be an object (the run manifest)")
        return
    git = run.get("git")
    if (
        not isinstance(git, dict)
        or not isinstance(git.get("sha"), str)
        or not git["sha"]
        or not isinstance(git.get("dirty"), bool)
    ):
        errors.append("run.git must carry a non-empty 'sha' and bool 'dirty'")
    for section, keys in (
        ("build", ("type", "compiler")),
        ("host", ("name",)),
    ):
        obj = run.get(section)
        if not isinstance(obj, dict) or not all(
            isinstance(obj.get(k), str) for k in keys
        ):
            errors.append("run.%s must carry string %s" % (section, list(keys)))
    if not is_num(run.get("seed")):
        errors.append("run.seed must be a number")
    if run.get("scale") not in ("smoke", "small", "paper"):
        errors.append("run.scale must be smoke|small|paper")
    argv = run.get("argv")
    if not isinstance(argv, list) or not all(
        isinstance(a, str) for a in argv
    ):
        errors.append("run.argv must be an array of strings")


def validate_event(event):
    errors = []
    kind = event.get("type")
    if kind == "meta":
        if event.get("schema") != "fedcl-telemetry-v1":
            errors.append("meta 'schema' must be 'fedcl-telemetry-v1'")
        if not isinstance(event.get("version"), int) or event["version"] < 1:
            errors.append("meta 'version' must be a positive integer")
        # The process and the wall-clock anchor of its start_ms offsets
        # (what tools/fedcl_trace.py merge places spans with).
        if "pid" in event and (not is_int(event["pid"]) or event["pid"] < 1):
            errors.append("meta 'pid' must be a positive integer")
        if "wall_epoch_unix_ms" in event and (
            not is_num(event["wall_epoch_unix_ms"])
            or event["wall_epoch_unix_ms"] < 0
        ):
            errors.append("meta 'wall_epoch_unix_ms' must be a "
                          "non-negative number")
        check_run_manifest(event.get("run"), errors)
    elif kind == "span":
        check_common(event, errors)
        if not is_num(event.get("dur_ms")) or event["dur_ms"] < 0:
            errors.append("'dur_ms' must be a non-negative number")
        check_span_timing(event, errors)
        check_span_trace(event, errors)
    elif kind == "point":
        check_common(event, errors)
        if not is_num(event.get("value")):
            errors.append("'value' must be a number")
    elif kind == "log":
        if not is_num(event.get("t_ms")) or event["t_ms"] < 0:
            errors.append("'t_ms' must be a non-negative number")
        if event.get("level") not in LEVELS:
            errors.append("'level' must be one of %s" % sorted(LEVELS))
        if not isinstance(event.get("message"), str):
            errors.append("'message' must be a string")
    else:
        errors.append("unknown event type %r" % (kind,))
    return errors


def read_stream(path):
    """Reads a JSONL stream and checks every line with validate_event.

    Returns (events, failures): [(lineno, event)] for the lines that
    pass, in order, and [(lineno, [error, ...])] for the lines that do
    not. Line 1 must be the meta event. Raises OSError when the file
    cannot be read.
    """
    events = []
    failures = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                failures.append((lineno, ["blank line"]))
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as e:
                failures.append((lineno, ["not valid JSON: %s" % e]))
                continue
            if not isinstance(event, dict):
                failures.append((lineno, ["line is not a JSON object"]))
                continue
            errors = validate_event(event)
            if lineno == 1 and event.get("type") != "meta":
                errors.append("first line must be the meta event")
            if errors:
                failures.append((lineno, errors))
                continue
            events.append((lineno, event))
    return events, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("path", help="JSONL file written by --telemetry-out")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless a span/point with this metric name is present",
    )
    parser.add_argument(
        "--forbid",
        action="append",
        default=[],
        metavar="NAME",
        help="fail if a span/point with this metric name is present",
    )
    args = parser.parse_args()

    events, failures = read_stream(args.path)
    seen_names = set()
    span_ids = set()
    # (lineno, name, parent): resolved only at EOF — a parent span's
    # event is emitted when it CLOSES, i.e. after all its children.
    parent_refs = []
    counts = {"meta": 0, "span": 0, "point": 0, "log": 0}
    for lineno, event in events:
        kind = event["type"]
        counts[kind] = counts.get(kind, 0) + 1
        if kind in ("span", "point"):
            seen_names.add(event["name"])
        if kind == "span" and "span" in event:
            span_ids.add(event["span"])
            # A parent adopted from another process (parent_remote)
            # is legitimately absent from this single file; the
            # cross-file check is fedcl_trace.py's job.
            if "parent" in event and not event.get("parent_remote"):
                parent_refs.append(
                    (lineno, event.get("name", "?"), event["parent"])
                )

    for lineno, name, parent in parent_refs:
        if parent not in span_ids:
            failures.append(
                (lineno, ["span %r parents under %s, never emitted"
                          % (name, parent)])
            )

    total = sum(counts.values())
    if total == 0:
        failures.append((0, ["file contains no events"]))
    for name in args.require:
        if name not in seen_names:
            failures.append((0, ["required metric %r never emitted" % name]))
    for name in args.forbid:
        if name in seen_names:
            failures.append((0, ["forbidden metric %r was emitted" % name]))

    if failures:
        for lineno, errors in failures:
            where = "line %d" % lineno if lineno else args.path
            for error in errors:
                print("%s: %s" % (where, error), file=sys.stderr)
        return 1
    print(
        "%s: OK — %d events (%d spans, %d points, %d logs), %d metric names"
        % (
            args.path,
            total,
            counts["span"],
            counts["point"],
            counts["log"],
            len(seen_names),
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Observability artifact validation (CI smoke gates).

``python -m repro.obs.validate trace.json --require-op-span`` checks
that a trace written by :class:`repro.obs.RecordingTracer` is
well-formed Chrome trace-event JSON (the subset Perfetto and
``chrome://tracing`` consume) and, optionally, that it contains at least
one *complete* OP lifecycle span and per-queue depth counters — the
acceptance gates of the observability subsystem.

``repro.prof/v1`` profile artifacts (``check --profile``) are
auto-detected by their ``schema`` field and validated with
:func:`validate_prof_artifact` instead; ``--min-coverage 0.9`` enforces
the phase-breakdown-explains-exploration acceptance gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .prof import PHASES, PROF_SCHEMA

__all__ = ["validate_chrome_trace", "validate_prof_artifact", "main"]

_KNOWN_PHASES = {"B", "E", "X", "i", "I", "C", "b", "n", "e", "M", "s",
                 "t", "f"}
_ASYNC_PHASES = {"b", "n", "e"}


def validate_chrome_trace(doc: Any,
                          require_op_span: bool = False,
                          require_counters: bool = False) -> list[str]:
    """Return a list of schema problems (empty when the trace is valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing/invalid 'traceEvents' array"]
    if not events:
        problems.append("'traceEvents' is empty")

    async_groups: dict[tuple, list] = {}
    counter_names: set[str] = set()
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing/non-string 'name'")
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: missing/non-numeric 'ts'")
        elif event["ts"] < 0:
            problems.append(f"{where}: negative ts {event['ts']}")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing/non-int 'pid'")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: missing/non-int 'tid'")
        if phase == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"{where}: 'X' event without numeric 'dur'")
        if phase == "C":
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"{where}: 'C' event without args series")
            else:
                counter_names.add(event.get("name", ""))
        if phase in _ASYNC_PHASES:
            if "id" not in event:
                problems.append(f"{where}: async event without 'id'")
            else:
                key = (event.get("cat"), event.get("pid"), str(event["id"]))
                async_groups.setdefault(key, []).append(event)

    # Async groups must open with 'b' and close with 'e'.
    for key, group in async_groups.items():
        phases = [e["ph"] for e in group]
        if phases.count("b") != 1 or phases.count("e") != 1:
            problems.append(
                f"async group {key}: expected exactly one 'b' and one 'e', "
                f"got {phases}")
            continue
        begin = next(e for e in group if e["ph"] == "b")
        end = next(e for e in group if e["ph"] == "e")
        if end["ts"] < begin["ts"]:
            problems.append(f"async group {key}: 'e' before 'b'")

    if require_op_span:
        complete = _complete_op_spans(async_groups)
        if not complete:
            problems.append(
                "no complete OP span (async 'op' group whose stage marks "
                "include 'scheduler' and 'acked')")
    if require_counters:
        if not any(name.startswith("queue ") for name in counter_names):
            problems.append("no per-queue depth counter events found")
    return problems


def _complete_op_spans(async_groups: dict) -> list[tuple]:
    complete = []
    for key, group in async_groups.items():
        cat = key[0]
        if cat != "op":
            continue
        stages = {e["name"] for e in group if e["ph"] == "n"}
        if "scheduler" in stages and "acked" in stages:
            complete.append(key)
    return complete


_PROF_WALL_KEYS = ("total", "exploration", "busy")
_PROF_ENGINES = {"serial", "serial-fp", "compiled", "parallel"}


def validate_prof_artifact(doc: Any,
                           min_coverage: float = 0.0) -> list[str]:
    """Return schema problems for a ``repro.prof/v1`` document."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != PROF_SCHEMA:
        problems.append(f"schema must be {PROF_SCHEMA!r}, "
                        f"got {doc.get('schema')!r}")
    if not isinstance(doc.get("spec"), str) or not doc.get("spec"):
        problems.append("missing/non-string 'spec'")
    engine = doc.get("engine")
    if engine not in _PROF_ENGINES:
        problems.append(f"engine must be one of {sorted(_PROF_ENGINES)}, "
                        f"got {engine!r}")
    workers = doc.get("workers")
    if workers is not None and (not isinstance(workers, int) or workers < 1):
        problems.append(f"workers must be null or a positive int, "
                        f"got {workers!r}")
    if engine == "parallel" and workers is None:
        problems.append("parallel engine requires a 'workers' count")
    if not isinstance(doc.get("options"), dict):
        problems.append("missing/non-object 'options'")

    wall = doc.get("wall_s")
    if not isinstance(wall, dict):
        problems.append("missing/non-object 'wall_s'")
        wall = {}
    for key in _PROF_WALL_KEYS:
        value = wall.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            problems.append(f"wall_s.{key} must be a non-negative number, "
                            f"got {value!r}")
    coverage = doc.get("coverage")
    if not isinstance(coverage, (int, float)) or coverage < 0:
        problems.append(f"coverage must be a non-negative number, "
                        f"got {coverage!r}")
    elif coverage < min_coverage:
        problems.append(f"coverage {coverage} below required minimum "
                        f"{min_coverage}")

    phases = doc.get("phases")
    if not isinstance(phases, dict):
        problems.append("missing/non-object 'phases'")
    else:
        for name in PHASES:
            entry = phases.get(name)
            if not isinstance(entry, dict):
                problems.append(f"phases.{name}: missing/non-object entry")
                continue
            calls = entry.get("calls")
            if not isinstance(calls, int) or calls < 0:
                problems.append(f"phases.{name}.calls must be a "
                                f"non-negative int, got {calls!r}")
            wall_s = entry.get("wall_s")
            if not isinstance(wall_s, (int, float)) or wall_s < 0:
                problems.append(f"phases.{name}.wall_s must be a "
                                f"non-negative number, got {wall_s!r}")
        for name in phases:
            if name not in PHASES:
                problems.append(f"phases.{name}: unknown phase")

    labels = doc.get("labels")
    if not isinstance(labels, dict):
        problems.append("missing/non-object 'labels'")
    else:
        for name, entry in labels.items():
            if not isinstance(entry, dict):
                problems.append(f"labels[{name!r}]: not an object")
                continue
            for field, kind in (("expansions", int), ("successors", int),
                                ("wall_s", (int, float))):
                value = entry.get(field)
                if not isinstance(value, kind) or isinstance(value, bool) \
                        or value < 0:
                    problems.append(
                        f"labels[{name!r}].{field} must be a non-negative "
                        f"{'int' if kind is int else 'number'}, "
                        f"got {value!r}")

    counts = doc.get("counts")
    if not isinstance(counts, dict):
        problems.append("missing/non-object 'counts'")
    else:
        for field in ("states", "transitions"):
            value = counts.get(field)
            if not isinstance(value, int) or value < 0:
                problems.append(f"counts.{field} must be a non-negative "
                                f"int, got {value!r}")
    return problems


def main(argv=None) -> int:
    """Validate a trace or profile file; exit 0 when clean, 1 otherwise."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate a Chrome trace-event JSON file or a "
                    "repro.prof/v1 profile artifact (auto-detected)")
    parser.add_argument("trace", help="trace/profile file (.json or .jsonl)")
    parser.add_argument("--require-op-span", action="store_true",
                        help="require one complete scheduler→acked OP span")
    parser.add_argument("--require-counters", action="store_true",
                        help="require per-queue depth counter events")
    parser.add_argument("--min-coverage", type=float, default=0.0,
                        help="minimum phase coverage for a repro.prof/v1 "
                             "artifact (e.g. 0.9)")
    args = parser.parse_args(argv)

    with open(args.trace, encoding="utf-8") as handle:
        if args.trace.endswith(".jsonl"):
            doc = {"traceEvents": [json.loads(line) for line in handle
                                   if line.strip()]}
        else:
            doc = json.load(handle)
    if isinstance(doc, dict) and doc.get("schema") == PROF_SCHEMA:
        problems = validate_prof_artifact(doc, min_coverage=args.min_coverage)
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}", file=sys.stderr)
            return 1
        print(f"OK: {args.trace} ({PROF_SCHEMA}, "
              f"coverage {doc['coverage']:.2f})")
        return 0
    problems = validate_chrome_trace(
        doc, require_op_span=args.require_op_span,
        require_counters=args.require_counters)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    events = doc["traceEvents"]
    print(f"OK: {args.trace} ({len(events)} events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

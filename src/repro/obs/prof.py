"""Verification profiling: checker phase/label timing, progress, traces.

PR 2's :mod:`repro.obs` instrumented the *simulator*; this module does
the same for the *verification stack* — the explicit-state model
checker whose per-state Python cost dominates every scaling experiment
(ROADMAP open item 2).  Three pieces:

* :class:`CheckProfiler` — accumulates per-**phase** wall time
  (successor generation, POR ample computation, symmetry
  canonicalization, fingerprinting, dedup, property evaluation,
  liveness) and per-``(process, label)`` expansion counters/time while
  the checker runs.  ``ModelChecker(profile=True)`` attaches one and
  folds it into a ``repro.prof/v1`` JSON artifact
  (:func:`CheckProfiler.artifact`, validated by
  :func:`repro.obs.validate.validate_prof_artifact`).  All timing lives
  in ``CheckResult.stats`` — never in ``CheckResult.to_json`` — so a
  profiled run is byte-identical to an unprofiled one.
* :class:`Progress` — an opt-in stderr heartbeat (states/s, frontier
  depth, dedup hit-rate, ETA) shared by ``check --progress``, the
  campaign runner and the chaos driver.  It writes to stderr only and
  never touches canonical output or consumes randomness.
* :class:`CheckerTraceBuilder` — Chrome trace-event export of checker
  *wall-clock* activity (the PR-2 trace format, but real time instead
  of sim time): one track per parallel worker with explore / serialize
  / relay / idle spans per BFS round plus frontier-depth and dedup-rate
  counters, which is how the serial-beats-parallel pathology becomes
  visible in Perfetto (``check --trace-out PATH``).

Determinism contract
--------------------

The profiler only *observes* wall time; it never changes what the
checker explores.  The non-timing artifact fields (phase call counts,
per-label expansion/successor counts, state/transition counts) are pure
functions of (spec, checker options) and are identical across runs and
engines; only the ``*_s`` / ``coverage`` fields vary run to run.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Optional, TextIO

__all__ = [
    "PHASES",
    "PROF_SCHEMA",
    "CheckProfiler",
    "CheckerTraceBuilder",
    "Progress",
    "dump_prof",
    "eta_from_samples",
    "render_report",
]

#: Version tag written into (and required from) every profile artifact.
PROF_SCHEMA = "repro.prof/v1"

#: The checker phase taxonomy, in pipeline order.  ``liveness`` runs
#: after exploration finishes and is therefore excluded from the
#: exploration-coverage figure (it has its own wall-time entry).
PHASES = (
    "por_ample",       # ample-set eligibility scan (POR)
    "successor_gen",   # Step.run over all oracle branches
    "compile",         # compiled engine: closure builds + table fills
    "canonicalize",    # symmetry canonicalization of successors
    "fingerprint",     # canonical encode + BLAKE2b fold (fp engines)
    "dedup",           # seen-set / raw-memo / fingerprint-store lookups
    "spill",           # mmap spill-tier probes/inserts (disk store)
    "property_eval",   # invariant predicates on newly accepted states
    "liveness",        # terminal-SCC ◇□ pass (post-exploration)
)

#: Phases whose sum is compared against the exploration (busy) window.
_EXPLORE_PHASES = tuple(p for p in PHASES if p != "liveness")

#: Seconds → Chrome trace microseconds.
_US = 1e6


class CheckProfiler:
    """Accumulates phase wall time and per-(process, label) counters.

    One instance per checker run (workers build their own and ship
    :meth:`snapshot` dicts back for :meth:`merge`).  The accounting is
    flat — phases never nest — so the phase sum is directly comparable
    to the exploration wall time it is embedded in.
    """

    __slots__ = ("phase_s", "phase_calls", "labels", "busy_s", "_lap_t")

    def __init__(self):
        self._lap_t = 0.0
        self.phase_s: dict[str, float] = {p: 0.0 for p in PHASES}
        self.phase_calls: dict[str, int] = {p: 0 for p in PHASES}
        #: (process, label) → [expansions, successors, wall_s]
        self.labels: dict[tuple[str, str], list] = {}
        #: Total time spent inside exploration work (== the exploration
        #: window for serial engines; the sum of per-round worker busy
        #: time for the parallel engine, where the coordinator-side
        #: window also contains relay and idle time).
        self.busy_s = 0.0

    # -- recording ----------------------------------------------------------
    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of wall time to ``phase``."""
        self.phase_s[phase] += seconds
        self.phase_calls[phase] += 1

    def add_label(self, process: str, label: str, seconds: float,
                  successors: int) -> None:
        """One ``_expand_step`` call: label-attributed successor gen."""
        entry = self.labels.get((process, label))
        if entry is None:
            entry = self.labels[(process, label)] = [0, 0, 0.0]
        entry[0] += 1
        entry[1] += successors
        entry[2] += seconds
        self.phase_s["successor_gen"] += seconds
        self.phase_calls["successor_gen"] += 1

    # -- chained clock -------------------------------------------------------
    # One timestamp closes a region and opens the next, so code that runs
    # between two instrumented regions (loop control, the profiler's own
    # bookkeeping) is charged to a phase instead of leaking out of the
    # breakdown.  The search driver and its engine share this clock.
    def mark(self) -> None:
        """Open a region now (drops whatever ran since the last lap)."""
        self._lap_t = time.perf_counter()

    def lap(self, phase: str, calls: int = 1) -> None:
        """Charge the time since the last mark/lap to ``phase``."""
        now = time.perf_counter()
        self.phase_s[phase] += now - self._lap_t
        self.phase_calls[phase] += calls
        self._lap_t = now

    def lap_label(self, process: str, label: str, successors: int) -> None:
        """:meth:`add_label` for the region since the last mark/lap."""
        now = time.perf_counter()
        self.add_label(process, label, now - self._lap_t, successors)
        self._lap_t = now

    # -- cross-process aggregation ------------------------------------------
    def snapshot(self) -> dict:
        """A picklable dump for :meth:`merge` (parallel workers)."""
        return {
            "phase_s": dict(self.phase_s),
            "phase_calls": dict(self.phase_calls),
            "labels": [[proc, label, e, s, w]
                       for (proc, label), (e, s, w) in self.labels.items()],
            "busy_s": self.busy_s,
        }

    def merge(self, snap: dict) -> None:
        """Fold another profiler's :meth:`snapshot` into this one."""
        for phase, seconds in snap["phase_s"].items():
            self.phase_s[phase] += seconds
        for phase, calls in snap["phase_calls"].items():
            self.phase_calls[phase] += calls
        for proc, label, e, s, w in snap["labels"]:
            entry = self.labels.get((proc, label))
            if entry is None:
                entry = self.labels[(proc, label)] = [0, 0, 0.0]
            entry[0] += e
            entry[1] += s
            entry[2] += w
        self.busy_s += snap["busy_s"]

    # -- artifact ------------------------------------------------------------
    def artifact(self, *, spec: str, engine: str,
                 workers: Optional[int] = None,
                 options: Optional[dict] = None,
                 total_s: float = 0.0,
                 exploration_s: float = 0.0,
                 busy_s: Optional[float] = None,
                 counts: Optional[dict] = None) -> dict:
        """The ``repro.prof/v1`` JSON document for this run.

        ``busy_s`` defaults to ``exploration_s`` (serial engines, where
        the exploration window *is* busy time); the parallel engine
        passes the summed per-worker busy time so ``coverage`` measures
        how much of the actual compute the phases explain, not how much
        of the coordinator's barrier-and-relay window.
        """
        busy = exploration_s if busy_s is None else busy_s
        phase_total = sum(self.phase_s[p] for p in _EXPLORE_PHASES)
        return {
            "schema": PROF_SCHEMA,
            "spec": spec,
            "engine": engine,
            "workers": workers,
            "options": dict(options or {}),
            "wall_s": {
                "total": round(total_s, 6),
                "exploration": round(exploration_s, 6),
                "busy": round(busy, 6),
            },
            "coverage": round(phase_total / busy, 4) if busy > 0 else 0.0,
            "phases": {p: {"calls": self.phase_calls[p],
                           "wall_s": round(self.phase_s[p], 6)}
                       for p in PHASES},
            "labels": {f"{proc}.{label}": {"expansions": e,
                                           "successors": s,
                                           "wall_s": round(w, 6)}
                       for (proc, label), (e, s, w)
                       in sorted(self.labels.items())},
            "counts": dict(counts or {}),
        }


def dump_prof(doc: dict, path: str) -> None:
    """Write a profile artifact as stable, human-diffable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(doc: dict, top: int = 10) -> str:
    """Human-readable profile: phases hottest-first + top-N hot labels."""
    wall = doc.get("wall_s", {})
    lines = [
        f"== {doc.get('schema')}: {doc.get('spec')} "
        f"({doc.get('engine')}"
        + (f", {doc['workers']} workers" if doc.get("workers") else "")
        + ") ==",
        f"total {wall.get('total', 0.0):.3f}s; "
        f"exploration {wall.get('exploration', 0.0):.3f}s; "
        f"phase coverage {doc.get('coverage', 0.0) * 100:.1f}% "
        f"of {wall.get('busy', 0.0):.3f}s busy",
    ]
    busy = wall.get("busy", 0.0) or 1.0
    phases = sorted(doc.get("phases", {}).items(),
                    key=lambda kv: -kv[1]["wall_s"])
    lines.append("phases (hottest first):")
    for name, entry in phases:
        if entry["calls"] == 0 and entry["wall_s"] == 0.0:
            continue
        lines.append(f"  {name:<14} {entry['wall_s']:9.3f}s "
                     f"{entry['wall_s'] / busy * 100:5.1f}%  "
                     f"({entry['calls']} calls)")
    labels = sorted(doc.get("labels", {}).items(),
                    key=lambda kv: (-kv[1]["wall_s"], kv[0]))
    if labels:
        lines.append(f"top {min(top, len(labels))} labels by wall time:")
        for name, entry in labels[:top]:
            lines.append(
                f"  {name:<40} {entry['wall_s']:9.3f}s  "
                f"{entry['expansions']} expansions -> "
                f"{entry['successors']} successors")
        if len(labels) > top:
            lines.append(f"  ... ({len(labels) - top} more labels)")
    return "\n".join(lines)


class Progress:
    """A throttled stderr heartbeat (never touches canonical output).

    ``update`` formats its keyword fields into one line and emits it at
    most every ``min_interval_s`` seconds (``force=True`` bypasses the
    throttle; :meth:`done` always emits).  Integers are
    thousands-separated, floats get one decimal, and ``eta_s`` renders
    as ``eta ~Ns`` when an estimate exists.  Consumers: ``check
    --progress`` (states/s, frontier depth, dedup hit-rate), ``sweep``
    (task completion + histogram-derived ETA), ``chaos --progress``
    (trial completion + ETA).
    """

    def __init__(self, label: str = "", stream: Optional[TextIO] = None,
                 min_interval_s: float = 1.0):
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.lines_emitted = 0
        self._last = float("-inf")

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, int):
            return f"{value:,}"
        if isinstance(value, float):
            return f"{value:,.1f}"
        return str(value)

    def update(self, force: bool = False, eta_s: Optional[float] = None,
               **fields: Any) -> bool:
        """Emit one heartbeat line; returns True when a line was written."""
        now = time.monotonic()
        if not force and now - self._last < self.min_interval_s:
            return False
        self._last = now
        parts = [f"{key}={self._fmt(value)}" for key, value in fields.items()]
        if eta_s is not None:
            parts.append(f"eta ~{max(0.0, eta_s):.0f}s")
        prefix = f"[{self.label}] " if self.label else ""
        print(prefix + "  ".join(parts), file=self.stream, flush=True)
        self.lines_emitted += 1
        return True

    def done(self, **fields: Any) -> None:
        """The final line (bypasses the throttle)."""
        self.update(force=True, **fields)


class CheckerTraceBuilder:
    """Chrome trace events for checker wall-clock activity.

    The PR-2 export format (loads in Perfetto / ``chrome://tracing``)
    over *real* time: pid 0 is the checker run, tid 0 carries counter
    series, and each named track (``coordinator``, ``worker0`` ...)
    gets its own tid in first-seen order.  Timestamps are seconds since
    exploration start, scaled to Chrome microseconds.
    """

    def __init__(self, label: str = "checker"):
        self.label = label
        self._events: list[dict] = []
        self._tracks: dict[str, int] = {}

    def _tid(self, track: str) -> int:
        if track not in self._tracks:
            self._tracks[track] = len(self._tracks) + 1
        return self._tracks[track]

    def span(self, track: str, name: str, start_s: float, dur_s: float,
             **args: Any) -> None:
        """A closed slice on ``track`` (clamped to non-negative)."""
        self._events.append({
            "name": name,
            "cat": "checker",
            "ph": "X",
            "ts": round(max(0.0, start_s) * _US, 3),
            "dur": round(max(0.0, dur_s) * _US, 3),
            "pid": 0,
            "tid": self._tid(track),
            "args": dict(args),
        })

    def counter(self, name: str, ts_s: float, values: dict) -> None:
        """A counter sample (frontier depth, dedup hit-rate, ...)."""
        self._events.append({
            "name": name,
            "cat": "counter",
            "ph": "C",
            "ts": round(max(0.0, ts_s) * _US, 3),
            "pid": 0,
            "tid": 0,
            "args": dict(values),
        })

    def round_spans(self, track: str, round_index: int, t0: float,
                    reply_at: float, barrier_at: float, explore_s: float,
                    serialize_s: float, **args: Any) -> None:
        """One worker's BFS round: round ⊃ relay, explore, serialize, idle.

        ``t0`` is the coordinator-side round dispatch, ``reply_at`` when
        the worker's reply was read, ``barrier_at`` when the last worker
        replied (the round barrier).  The worker reports its own
        ``explore_s``/``serialize_s`` durations; the remainder before
        them is inbound relay (pipe transfer + candidate unpickling),
        the remainder after the reply is idle (waiting on stragglers).
        """
        busy = explore_s + serialize_s
        relay_s = max(0.0, (reply_at - t0) - busy)
        common = {"round": round_index, **args}
        self.round_span(track, round_index, t0, barrier_at, **args)
        self.span(track, "relay", t0, relay_s, **common)
        self.span(track, "explore", t0 + relay_s, explore_s, **common)
        self.span(track, "serialize", t0 + relay_s + explore_s, serialize_s,
                  **common)
        self.span(track, "idle", reply_at, max(0.0, barrier_at - reply_at),
                  **common)

    def round_span(self, track: str, round_index: int, t0: float,
                   t_end: float, **args: Any) -> None:
        """The enclosing per-round span on ``track``."""
        self.span(track, f"round {round_index}", t0, max(0.0, t_end - t0),
                  round=round_index, **args)

    def to_doc(self) -> dict:
        """The Chrome trace-event document (with track metadata)."""
        events = list(self._events)
        events.append({"name": "process_name", "ph": "M", "ts": 0,
                       "pid": 0, "tid": 0, "cat": "__metadata",
                       "args": {"name": self.label}})
        for track, tid in sorted(self._tracks.items(), key=lambda kv: kv[1]):
            events.append({"name": "thread_name", "ph": "M", "ts": 0,
                           "pid": 0, "tid": tid, "cat": "__metadata",
                           "args": {"name": track}})
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.obs.prof",
                          "clock": "wall-time"},
        }

    def write(self, path: str) -> None:
        """Write the trace (Chrome JSON; ``.jsonl`` suffix for JSONL)."""
        doc = self.to_doc()
        with open(path, "w", encoding="utf-8") as handle:
            if str(path).endswith(".jsonl"):
                for event in doc["traceEvents"]:
                    handle.write(json.dumps(event, sort_keys=True) + "\n")
            else:
                json.dump(doc, handle, sort_keys=True)
                handle.write("\n")


def eta_from_samples(samples, remaining: int,
                     parallelism: int = 1) -> Optional[float]:
    """Naive ETA: mean completed wall time × remaining / parallelism.

    Returns None when there are no samples or nothing remains — the
    campaign runner and chaos driver both derive their heartbeat ETA
    from exactly this estimator over their wall-time histograms.
    """
    samples = list(samples)
    if not samples or remaining <= 0:
        return None
    return (sum(samples) / len(samples)) * remaining / max(1, parallelism)

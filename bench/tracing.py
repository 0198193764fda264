"""Instrumentation for the traced repetition, owned by the benchmark.

Nothing under ``src/`` is edited: every layer is observed from outside,
through the public :class:`repro.obs.Tracer` hook protocol and through
wrappers that :class:`Instrumentation` installs around public functions
on entry and removes on exit.  Three pieces:

* :class:`Spans` — wall-clock spans kept in memory.  Calls made millions
  of times (``nib.write``, ``net.routing_state`` ...) are aggregated per
  (name, parent); coarse spans (rep, setup, DAG, reconcile cycle, chaos
  trial, checker phase) are kept whole.  A span's self time is its
  duration minus what its child spans cover.
* :class:`WallTracer` — chained ``perf_counter`` reads.  At every
  ``event_fired`` hook the interval since the previous mark is charged
  to the layer whose process was waiting on the previously fired event;
  entering and leaving ``Environment.run`` are marks too, so the chain
  is gap-free and time outside the kernel is the harness's own.
* :class:`Instrumentation` — the context manager that installs both.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from repro import obs
from repro.baselines import pr as baselines_pr
from repro.core.controller import ZenithController
from repro.core.state import ControllerState
from repro.experiments import common
from repro.metrics import convergence
from repro.net import topology
from repro.net.dataplane import Network
from repro.net.switch import SimSwitch
from repro.nib.store import Nib, NibTable
from repro.sim import Environment
from repro.workloads import background

KERNEL = "sim.kernel_s"
DRIVER = "harness.driver_s"
UNATTRIBUTED = "unattributed"

#: Simulation process name -> the layer metric its wall time is charged to.
_EXACT = {
    "dag-scheduler": "core.dag_scheduler_s",
    "nib-event-handler": "core.nib_handler_s",
    "monitoring-server": "core.monitoring_s",
    "ms-status": "core.monitoring_s",
    "topo-event-handler": "core.topo_handler_s",
    "watchdog": "core.watchdog_s",
    "reconciler": "baselines.reconciler_s",
    "deadlock-sweeper": "baselines.sweeper_s",
    "routing-app": "apps.routing_s",
    "switch-failure-injector": "orchestrator.injector_s",
    "chaos-injector": "orchestrator.injector_s",
    "chaos-monitor": "chaos.monitor_s",
}
_PREFIX = (
    ("sequencer-", "core.sequencer_s"),
    ("worker-", "core.worker_pool_s"),
    ("ms-send-", "core.monitoring_s"),
    ("ms-recv-", "core.monitoring_s"),
    ("restart-", "core.watchdog_s"),
    ("routing-app-retry-", "apps.routing_s"),
    ("recover-", "orchestrator.injector_s"),
    ("switch-", "net.switch_s"),
)
_SWITCH_SUFFIX = ("-deliver", "-reply", "-read", "-status")

#: Every layer a process can be charged to (reported as 0 when idle).
PROCESS_LAYERS = sorted({*_EXACT.values(), *(layer for _, layer in _PREFIX)})


def layer_of_process(name) -> str:
    """The layer metric for a simulation process name."""
    if name is None:
        # A condition's member event, or an event nobody waits on.
        return KERNEL
    if name in _EXACT:
        return _EXACT[name]
    for prefix, layer in _PREFIX:
        if name.startswith(prefix):
            return layer
    if name.endswith(_SWITCH_SUFFIX):
        return "net.switch_s"
    return UNATTRIBUTED


class Spans:
    """Wall-clock spans: aggregated fine-grained calls + whole coarse ones."""

    def __init__(self):
        #: Open spans, innermost last: [name, seconds covered by children].
        self._stack: list[list] = []
        #: (name, parent) -> [calls, inclusive s, self s, outermost s].
        self._aggregates: dict[tuple, list] = {}
        self._depth: dict[str, int] = {}
        #: (name, start, end, parent, args) with perf_counter timestamps.
        self.whole: list[tuple] = []
        # Kept current by WallTracer: whether the timed section is open,
        # whether Environment.run is on the stack, and the seconds spent
        # inside it so far.
        self.timed = False
        self.in_kernel = False
        self.kernel_s = 0.0
        #: Harness-side seconds (timed section, outside Environment.run)
        #: that some wrapped call accounts for.
        self.covered_s = 0.0

    def _record(self, name: str, parent, elapsed: float, children: float,
                outermost: bool) -> None:
        record = self._aggregates.get((name, parent))
        if record is None:
            record = self._aggregates[(name, parent)] = [0, 0.0, 0.0, 0.0]
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - children
        if outermost:
            record[3] += elapsed

    def wrap(self, name: str, function):
        """``function`` recorded as an aggregated span on every call."""
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            # The clock starts first, so a span covers its own bookkeeping.
            start = perf_counter()
            parent = stack[-1][0] if stack else None
            harness_side = (parent is None and self.timed
                            and not self.in_kernel)
            kernel_before = self.kernel_s
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = nested = depth.get(name, 0) + 1
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                depth[name] = nested - 1
                if stack:
                    stack[-1][1] += elapsed
                self._record(name, parent, elapsed, frame[1], nested == 1)
                if harness_side:
                    self.covered_s += elapsed - (self.kernel_s - kernel_before)

        wrapper.__wrapped__ = function
        return wrapper

    def wrap_generator(self, name: str, function):
        """A generator function; only the time its steps run is recorded."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            generator = function(*args, **kwargs)
            send, value = generator.send, None
            elapsed = children = 0.0
            parent = stack[-1][0] if stack else None
            try:
                while True:
                    frame = [name, 0.0]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        event = send(value)
                    finally:
                        step = perf_counter() - start
                        stack.pop()
                        if stack:
                            stack[-1][1] += step
                        elapsed += step
                        children += frame[1]
                    try:
                        value = yield event
                        send = generator.send
                    except BaseException as error:  # thrown into the step
                        value, send = error, generator.throw
            except StopIteration as stop:
                return stop.value
            finally:
                self._record(name, parent, elapsed, children, True)

        wrapper.__wrapped__ = function
        return wrapper

    def add(self, name: str, start: float, end: float, parent=None,
            **args) -> None:
        """Keep one coarse span whole (timestamps from ``perf_counter``)."""
        self.whole.append((name, start, end, parent, args))

    def calls(self, name: str) -> int:
        return sum(record[0] for (span, _), record
                   in self._aggregates.items() if span == name)

    def seconds(self, name: str) -> float:
        """Inclusive wall of ``name`` (nested calls of itself not doubled)."""
        return sum(record[3] for (span, _), record
                   in self._aggregates.items() if span == name)

    def aggregates(self) -> list[dict]:
        return [{"name": name, "parent": parent, "calls": record[0],
                 "inclusive_s": record[1], "self_s": record[2]}
                for (name, parent), record in sorted(
                    self._aggregates.items(),
                    key=lambda item: (item[0][0], item[0][1] or ""))]


class WallTracer(obs.Tracer):
    """Charges wall-clock time to layers with chained timestamps.

    Composes under :class:`repro.chaos.triggers.TriggerTracer`, which
    forwards every hook to the tracer installed before it.
    """

    enabled = True

    def __init__(self, spans: Spans):
        self.spans = spans
        self.layer_s: dict[str, float] = {}
        self.unattributed_names: set[str] = set()
        self.events_fired = 0
        self.events_scheduled = 0
        self.ops_done = 0
        self.reconcile_cycles = 0
        self._active = False
        self._mark = 0.0
        self._owner = DRIVER
        self._layer_cache: dict = {}
        self._cycle_started = None
        self._entered = 0.0

    # -- the chain ---------------------------------------------------------
    def _charge(self, next_owner: str) -> float:
        now = perf_counter()
        owner = self._owner
        self.layer_s[owner] = self.layer_s.get(owner, 0.0) + now - self._mark
        self._mark = now
        self._owner = next_owner
        return now

    def start(self) -> None:
        """Open the chain: the timed section starts in the harness."""
        self._active = self.spans.timed = True
        self._mark = perf_counter()
        self._owner = DRIVER

    def stop(self) -> None:
        self._charge(DRIVER)
        self._active = self.spans.timed = False

    def enter_run(self) -> None:
        self.spans.in_kernel = True
        if self._active:
            self._entered = self._charge(KERNEL)

    def exit_run(self) -> None:
        self.spans.in_kernel = False
        if self._active:
            self.spans.kernel_s += self._charge(DRIVER) - self._entered

    # -- repro.obs.Tracer hooks ----------------------------------------------
    def event_scheduled(self, env, event, when, priority):
        if self._active:
            self.events_scheduled += 1

    def event_fired(self, env, event):
        if not self._active:
            return
        callbacks = event.callbacks
        waiter = getattr(callbacks[0], "__self__", None) if callbacks else None
        name = getattr(waiter, "name", None)
        layer = self._layer_cache.get(name)
        if layer is None:
            layer = self._layer_cache[name] = layer_of_process(name)
            if layer == UNATTRIBUTED:
                self.unattributed_names.add(name)
        now = self._charge(layer)
        self.events_fired += 1
        if layer == "baselines.reconciler_s" and self._cycle_started is None:
            self._cycle_started = now

    def op_mark(self, env, op_id, stage, track, ts=None, **args):
        if self._active and stage == "done":
            self.ops_done += 1

    def complete(self, env, name, track, start, duration, **args):
        if self._active and track == "reconciler":
            self.reconcile_cycles += 1
            if self._cycle_started is not None:
                self.spans.add(name, self._cycle_started, perf_counter(),
                               parent="rep", sim_start=start,
                               sim_duration=duration)
                self._cycle_started = None


#: (owner, attribute, span name) of the public methods wrapped per call.
_METHODS = (
    (NibTable, "put", "nib.write"),
    (NibTable, "delete", "nib.write"),
    (NibTable, "clear", "nib.write"),
    (ControllerState, "routing_view_snapshot", "core.view_snapshot"),
    (ControllerState, "view_of_switch", "core.view_of_switch"),
    (ZenithController, "view_matches_dataplane", "core.view_matches"),
    (SimSwitch, "send", "net.send"),
    (Network, "routing_state", "net.routing_state"),
)
#: (module, attribute, span name) of the public module-level functions.
_FUNCTIONS = (
    (baselines_pr, "fix_switch_against_snapshot", "baselines.fix_switch"),
    (convergence, "dag_installed_in_dataplane", "metrics.dag_installed"),
    (background, "preload_background_state", "workloads.preload"),
    (common, "build_system", "experiments.build_system"),
    (topology, "kdl", "net.topology"),
    (topology, "subgraph", "net.topology"),
)


class Instrumentation:
    """Installs the tracer and the wrappers; removes every one on exit."""

    def __init__(self):
        self.spans = Spans()
        self.tracer = WallTracer(self.spans)
        self.is_healthy_calls = 0
        self._undo: list[tuple] = []
        self._observing = None

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module, attribute: str, name: str) -> None:
        original = getattr(module, attribute)
        wrapped = self.spans.wrap(name, original)
        # ``from x import f`` copies the reference: patch every holder.
        for holder in list(sys.modules.values()):
            names = getattr(holder, "__dict__", None)
            if names is not None and names.get(attribute) is original:
                self._patch(holder, attribute, wrapped)

    def __enter__(self) -> "Instrumentation":
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self) -> None:
        spans, tracer = self.spans, self.tracer
        for owner, attribute, name in _METHODS:
            self._patch(owner, attribute,
                        spans.wrap(name, owner.__dict__[attribute]))
        self._patch(Nib, "bulk_update", spans.wrap_generator(
            "nib.bulk_update", Nib.__dict__["bulk_update"]))
        for module, attribute, name in _FUNCTIONS:
            self._patch_function(module, attribute, name)

        healthy = SimSwitch.__dict__["is_healthy"].fget

        def is_healthy(switch):
            self.is_healthy_calls += 1
            return healthy(switch)

        self._patch(SimSwitch, "is_healthy", property(is_healthy))

        run = Environment.__dict__["run"]

        def traced_run(env, until=None):
            tracer.enter_run()
            try:
                return run(env, until)
            finally:
                tracer.exit_run()

        self._patch(Environment, "run", traced_run)
        self._observing = obs.observe(tracer=tracer)
        self._observing.__enter__()

    def __exit__(self, *exc_info) -> None:
        if self._observing is not None:
            self._observing.__exit__(*exc_info)
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def write_chrome_trace(path: str, spans: Spans, origin: float,
                       metadata: dict) -> None:
    """The spans in the repo's Chrome trace-event convention (wall clock)."""
    tracks: dict[str, int] = {}

    def tid(name: str) -> int:
        return tracks.setdefault(name.split(".")[0], len(tracks) + 1)

    events = []
    for name, start, end, parent, args in spans.whole:
        events.append({
            "name": name, "cat": "wall", "ph": "X", "pid": 0,
            "tid": tid(name), "ts": round((start - origin) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "args": {"parent": parent, **args},
        })
    for track, number in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "ts": 0, "pid": 0,
                       "tid": number, "cat": "__metadata",
                       "args": {"name": track}})
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "bench", "clock": "wall-time",
                      "aggregated_spans": spans.aggregates(), **metadata},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")

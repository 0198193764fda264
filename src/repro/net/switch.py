"""Executable AbstractSW: the paper's switch model (§3.5, Listing 2).

The switch is not Byzantine (assumption A3): if it acknowledges an OP it
has completed it correctly, it processes requests one at a time, and it
correctly wipes the TCAM when asked.  Failures are modeled by impact,
not root cause, along two dimensions:

* **state loss** — ``complete`` failures wipe the flow table and all
  in-flight requests; ``partial`` failures keep the TCAM but drop
  buffered in-flight requests.
* **duration** — the caller decides whether/when to call
  :meth:`SimSwitch.recover`, capturing transient vs permanent failures.

Timing is calibrated to the paper's Fig. 4(a) measurement of a Cumulus
SN2100: reading an ``n``-entry table takes
``1ms + 20.5µs·n + 1.9ns·n²`` (13 ms at 512 entries, 117 ms at 4096).
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..sim import Environment, FifoQueue, Interrupt, RandomStreams, Store
from .messages import (
    FlowEntry,
    MsgKind,
    SwitchAck,
    SwitchRequest,
    SwitchStatus,
    SwitchStatusMsg,
    TableSnapshot,
)

__all__ = ["SimSwitch", "FailureMode", "FlowTable", "table_read_time"]

#: Fig. 4(a) calibration constants (seconds).
READ_BASE_S = 1.0e-3
READ_PER_ENTRY_S = 20.5e-6
READ_QUADRATIC_S = 1.9e-9


def table_read_time(entries: int) -> float:
    """Time to read an ``entries``-long flow table (Fig. 4a fit)."""
    return READ_BASE_S + READ_PER_ENTRY_S * entries + READ_QUADRATIC_S * entries ** 2


class FailureMode(enum.Enum):
    """How much state a failure destroys."""

    #: TCAM and in-flight requests lost (e.g. power outage).
    COMPLETE = "complete"
    #: TCAM preserved; buffered requests lost (e.g. ASIC/CPU hiccup).
    PARTIAL = "partial"


class FlowTable(dict):
    """``entry_id → FlowEntry``; every in-place write bumps ``version``.

    Direct ``switch.flow_table[k] = v`` writes (workloads, tests) count
    like the switch's own; health transitions bump it too, so pollers
    compare :meth:`Network.version` instead of re-reading every table.
    """

    version = 0

    def _counted(mutate):
        def mutator(self, *args, **kwargs):
            self.version += 1
            return mutate(self, *args, **kwargs)
        mutator.__name__ = mutate.__name__
        return mutator

    __init__, __setitem__, __delitem__, __ior__, pop, popitem, clear, \
        update, setdefault = map(_counted, (
            dict.__init__, dict.__setitem__, dict.__delitem__, dict.__ior__,
            dict.pop, dict.popitem, dict.clear, dict.update, dict.setdefault))
    del _counted


class SimSwitch:
    """A single simulated switch with an OpenFlow-like control channel.

    The controller talks to the switch by calling :meth:`send` (which
    applies the control-channel one-way delay) and reads responses from
    :attr:`out_queue`.  Liveness transitions are announced on every
    queue registered via :meth:`add_status_listener` after the
    configured detection delay, modeling keepalive-based detection.
    """

    def __init__(self, env: Environment, switch_id: str,
                 streams: Optional[RandomStreams] = None,
                 channel_delay: float = 2e-3,
                 channel_jitter: float = 0.5e-3,
                 op_process_time: float = 1e-3,
                 detection_delay: float = 0.5):
        self.env = env
        self.switch_id = switch_id
        self.streams = (streams or RandomStreams(0)).child(f"sw-{switch_id}")
        self.channel_delay = channel_delay
        self.channel_jitter = channel_jitter
        self.op_process_time = op_process_time
        self.detection_delay = detection_delay

        self.flow_table: FlowTable = FlowTable()
        self.health = Store(env, SwitchStatus.UP)
        self.master: Optional[str] = None
        self.in_queue = FifoQueue(env, f"{switch_id}.in")
        self.out_queue = FifoQueue(env, f"{switch_id}.out")
        self._status_listeners: list[FifoQueue] = []

        #: entry_id -> first time the entry was ever installed (for the
        #: CorrectDAGOrder safety condition, which uses first installs).
        self.first_install: dict[int, float] = {}
        #: Chronological (time, op) install/delete log — the paper's G_d.
        self.history: list[tuple[float, str, int]] = []
        self.failure_count = 0
        #: Installs that overwrote a live entry (§B duplicate metric).
        self.duplicate_installs = 0
        #: Telemetry counters (collected by repro.obs.MetricsRegistry).
        self.install_count = 0
        self.delete_count = 0
        self.table_read_count = 0
        #: Total entries served to table reads (reconciliation volume).
        self.reconciliation_entries = 0
        # FIFO channel guarantees (paper P4): delivery times are
        # monotone per direction even with jittered per-message delays.
        self._last_inbound_delivery = 0.0
        self._last_outbound_delivery = 0.0
        #: Optional repro.chaos.FaultPlane; when armed, control-channel
        #: deliveries route through it (drop/duplicate/delay/partition).
        self.fault_plane = None
        registry = getattr(env, "metrics", None)
        if registry is not None:
            registry.register_switch(self)
        self._process = env.process(self._main(), name=f"switch-{switch_id}")

    # -- health -----------------------------------------------------------------
    @property
    def is_healthy(self) -> bool:
        """Whether the switch is currently UP."""
        return self.health.value is SwitchStatus.UP

    def add_status_listener(self, queue: FifoQueue) -> None:
        """Deliver :class:`SwitchStatusMsg` notifications to ``queue``."""
        self._status_listeners.append(queue)

    def remove_status_listener(self, queue: FifoQueue) -> None:
        """Stop delivering notifications to ``queue``."""
        try:
            self._status_listeners.remove(queue)
        except ValueError:
            pass

    def fail(self, mode: FailureMode = FailureMode.COMPLETE) -> None:
        """Fail the switch; the caller controls recovery timing."""
        if not self.is_healthy:
            return
        self.failure_count += 1
        state_lost = mode is FailureMode.COMPLETE
        if state_lost:
            self.flow_table.clear()
            self.history.append((self.env.now, "wipe", -1))
        # In-flight requests are lost in both modes.
        self.in_queue.clear()
        self.out_queue.clear()
        self.health.set(SwitchStatus.DOWN)
        self.flow_table.version += 1
        self._process.interrupt(("failure", mode))
        self._announce(SwitchStatus.DOWN, state_lost=state_lost)

    def recover(self) -> None:
        """Bring a failed switch back up."""
        if self.is_healthy:
            return
        self.health.set(SwitchStatus.UP)
        self.flow_table.version += 1
        self._announce(SwitchStatus.UP)

    def _announce(self, status: SwitchStatus, state_lost: bool = False) -> None:
        message = SwitchStatusMsg(
            switch=self.switch_id, status=status, at=self.env.now,
            state_lost=state_lost)

        for extra, _fifo in self._delivery_plan("status"):
            def deliver(extra=extra):
                yield self.env.timeout(self.detection_delay + extra)
                for listener in self._status_listeners:
                    listener.put(message)

            self.env.process(deliver(), name=f"{self.switch_id}-status")

    # -- control channel -----------------------------------------------------------
    def _channel_delay(self) -> float:
        return self.channel_delay + self.streams.uniform(0.0, self.channel_jitter)

    def _delivery_plan(self, direction: str):
        """How to deliver one message: ``[(extra_delay, fifo), ...]``.

        Without an armed fault plane this is a single on-time FIFO
        delivery — the exact pre-chaos behavior, consuming the same
        randomness.  ``fifo=False`` deliveries (delayed/duplicated
        copies) bypass the monotone-delivery clamp and do not advance
        its watermark, so an extra delay can reorder past later sends.
        """
        plane = self.fault_plane
        if plane is None or not plane.active:
            return ((0.0, True),)
        return plane.deliveries(self.switch_id, direction, self.env.now)

    def send(self, request: SwitchRequest) -> None:
        """Deliver ``request`` after the control-channel one-way delay."""
        for extra, fifo in self._delivery_plan("c2s"):
            raw = self.env.now + self._channel_delay() + extra
            if fifo:
                arrival = max(raw, self._last_inbound_delivery)
                self._last_inbound_delivery = arrival
            else:
                arrival = raw

            def deliver(arrival=arrival):
                yield self.env.timeout(arrival - self.env.now)
                if self.is_healthy:
                    self.in_queue.put(request)
                # Requests to a dead switch are lost silently, like TCP
                # to a dead host; detection happens via keepalives.

            self.env.process(deliver(), name=f"{self.switch_id}-deliver")

    def _reply(self, message) -> None:
        for extra, fifo in self._delivery_plan("s2c"):
            raw = self.env.now + self._channel_delay() + extra
            if fifo:
                arrival = max(raw, self._last_outbound_delivery)
                self._last_outbound_delivery = arrival
            else:
                arrival = raw

            def deliver(arrival=arrival):
                yield self.env.timeout(arrival - self.env.now)
                self.out_queue.put(message)

            self.env.process(deliver(), name=f"{self.switch_id}-reply")

    # -- main loop -------------------------------------------------------------------
    def _main(self):
        while True:
            try:
                yield self.health.wait_for(lambda s: s is SwitchStatus.UP)
                request = yield self.in_queue.get()
                started = self.env.now
                yield self.env.timeout(self.op_process_time)
                self._perform(request)
                if self.env._tracing:
                    self.env.tracer.complete(
                        self.env, request.kind.name,
                        track=f"switch-{self.switch_id}", start=started,
                        duration=self.env.now - started, xid=request.xid)
            except Interrupt:
                # Failure: abandon whatever was in progress.
                continue

    def _perform(self, request: SwitchRequest) -> None:
        """Apply one request and acknowledge it (A3 semantics)."""
        if request.kind is MsgKind.INSTALL:
            entry = request.entry
            assert entry is not None
            if entry.entry_id in self.flow_table:
                # §B "unnecessary OP installation": overwriting a live
                # entry is a duplicate (tolerated around failures, but
                # counted so experiments can quantify it).
                self.duplicate_installs += 1
            self.flow_table[entry.entry_id] = entry
            self.first_install.setdefault(entry.entry_id, self.env.now)
            self.history.append((self.env.now, "install", entry.entry_id))
            self.install_count += 1
            if self.env._tracing:
                self.env.tracer.op_mark(
                    self.env, request.xid, "installed",
                    track=f"switch-{self.switch_id}",
                    entry=entry.entry_id)
            self._reply(SwitchAck(MsgKind.INSTALL, self.switch_id, request.xid))
        elif request.kind is MsgKind.DELETE:
            assert request.entry_id is not None
            self.flow_table.pop(request.entry_id, None)
            self.history.append((self.env.now, "delete", request.entry_id))
            self.delete_count += 1
            if self.env._tracing:
                self.env.tracer.op_mark(
                    self.env, request.xid, "installed",
                    track=f"switch-{self.switch_id}",
                    entry=request.entry_id, kind="delete")
            self._reply(SwitchAck(MsgKind.DELETE, self.switch_id, request.xid))
        elif request.kind is MsgKind.CLEAR_TCAM:
            self.flow_table.clear()
            self.history.append((self.env.now, "wipe", -1))
            if self.env._tracing:
                self.env.tracer.op_mark(
                    self.env, request.xid, "installed",
                    track=f"switch-{self.switch_id}", kind="clear")
            self._reply(SwitchAck(MsgKind.CLEAR_TCAM, self.switch_id, request.xid))
        elif request.kind is MsgKind.READ_TABLE:
            # READ_TABLE replies after the Fig. 4(a)-calibrated latency.
            entries = self.table_snapshot()
            self.table_read_count += 1
            self.reconciliation_entries += len(entries)
            read_cost = table_read_time(len(entries))

            def respond(snapshot=entries, cost=read_cost, xid=request.xid):
                yield self.env.timeout(cost)
                self._reply(TableSnapshot(self.switch_id, xid, snapshot))

            self.env.process(respond(), name=f"{self.switch_id}-read")
        elif request.kind is MsgKind.ROLE_CHANGE:
            self.master = request.role
            self._reply(SwitchAck(MsgKind.ROLE_CHANGE, self.switch_id,
                                  request.xid))
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown request kind {request.kind}")

    # -- dataplane queries ---------------------------------------------------------
    def lookup(self, dst: str) -> Optional[FlowEntry]:
        """Highest-priority entry matching ``dst`` (ties: lowest id)."""
        candidates = [e for e in self.flow_table.values() if e.dst == dst]
        if not candidates:
            return None
        return max(candidates, key=lambda e: (e.priority, -e.entry_id))

    def lookup_all(self, dst: str) -> list[FlowEntry]:
        """All entries matching ``dst``, best first (for local repair)."""
        candidates = [e for e in self.flow_table.values() if e.dst == dst]
        return sorted(candidates, key=lambda e: (-e.priority, e.entry_id))

    def table_snapshot(self) -> tuple[FlowEntry, ...]:
        """Instantaneous table contents (ground truth, no read cost)."""
        # flow_table is keyed by entry id: sort the keys, not the entries.
        return tuple(map(self.flow_table.__getitem__, sorted(self.flow_table)))

"""Shared experiment machinery.

Every figure/table module builds on these harnesses:

* :func:`build_system` — environment + network + controller + routing app;
* :func:`run_trace_replay` — replay one adversarial trace and measure
  true convergence (Figs. 10/15);
* :func:`run_install_workload` — repeatedly install small DAGs and
  collect convergence latencies (Figs. 3/11);
* :class:`ExperimentTable` — uniform row collection and printing, so
  benchmarks emit the same rows/series the paper reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence, Type

from ..apps.base import RoutingApp
from ..core.config import ControllerConfig
from ..core.controller import ZenithController
from ..core.types import DagStatus
from ..metrics.convergence import ChangeStamp, dag_installed_in_dataplane
from ..metrics.percentiles import Summary, summarize
from ..net.dataplane import Network
from ..net.topology import Topology, ring
from ..orchestrator.trace import Trace, TraceContext, TraceOrchestrator
from ..sim import AnyOf, ComponentHost, Environment, RandomStreams
from ..workloads.background import preload_background_state
from ..workloads.dags import IdAllocator, path_dag

__all__ = [
    "System",
    "build_system",
    "wait_for_stability",
    "run_trace_replay",
    "run_install_workload",
    "run_failure_workload",
    "ExperimentTable",
]


@dataclass
class System:
    """A wired-up simulation: env, network, controller, app, allocator."""

    env: Environment
    network: Network
    controller: ZenithController
    app: Optional[RoutingApp]
    alloc: IdAllocator
    streams: RandomStreams
    #: What :func:`_stable` last saw (built on its first call).
    stamp: Optional[ChangeStamp] = field(default=None, repr=False)


def build_system(controller_cls: Type[ZenithController],
                 topology: Topology,
                 config: Optional[ControllerConfig] = None,
                 seed: int = 0,
                 demands: Optional[Sequence[tuple[str, str]]] = None,
                 background_entries: int = 0,
                 background_register_ops: bool = True,
                 local_repair: bool = False,
                 switch_kwargs: Optional[dict] = None,
                 settle: float = 10.0) -> System:
    """Construct and settle a controller + (optional) routing app."""
    env = Environment()
    streams = RandomStreams(seed)
    network = Network(env, topology, streams=streams,
                      local_repair=local_repair, **(switch_kwargs or {}))
    config = config if config is not None else ControllerConfig()
    controller = controller_cls(env, network, config=config).start()
    alloc = IdAllocator()
    if background_entries:
        preload_background_state(controller, background_entries, alloc,
                                 register_ops=background_register_ops)
    app = None
    if demands:
        app = RoutingApp(env, controller, demands, alloc=alloc)
        ComponentHost(env, app, auto_restart=False).start()
    env.run(until=settle)
    return System(env, network, controller, app, alloc, streams)


def _stable(system: System) -> bool:
    """:func:`_stable_now`, evaluated only when something it reads changed.

    Pollers ask every 50 sim-ms; over 98 % of those polls see the flow
    tables, health bits, NIB tables and current DAG of the poll before.
    """
    state = system.controller.state
    inputs = (system.network, state.routing_view, state.dag_status,
              state.dag_table)
    if system.stamp is None or system.stamp.inputs != inputs:
        system.stamp = ChangeStamp(*inputs)
    dag = system.app.current_dag if system.app is not None else None
    return system.stamp.cached(_stable_now, system, key=dag)


def _stable_now(system: System) -> bool:
    """System-wide consistency: intent certified and ground-truth true.

    Stability requires (1) the app's current DAG certified DONE and
    actually installed, (2) the controller's routing view matching the
    dataplane, and (3) every DAG the NIB certifies DONE to actually be
    in the dataplane — a controller that *believes* wiped entries are
    installed (PR after a complete transient failure) is not stable.
    """
    controller = system.controller
    app = system.app
    if app is not None and app.current_dag is not None:
        dag = app.current_dag
        if controller.state.dag_status_of(dag.dag_id) is not DagStatus.DONE:
            return False
        if not dag_installed_in_dataplane(system.network, dag,
                                          ignore_down=True):
            return False
    if not controller.view_matches_dataplane():
        return False
    for dag_id, status in controller.state.dag_status.items():
        if status is not DagStatus.DONE:
            continue
        dag = controller.state.get_dag(dag_id)
        if dag is not None and not dag_installed_in_dataplane(
                system.network, dag, ignore_down=True):
            return False
    return True


def wait_for_stability(system: System, deadline: float,
                       poll: float = 0.05) -> Optional[float]:
    """Run until the system is stable; returns the instant (or None)."""
    env = system.env
    while env.now < deadline:
        if _stable(system):
            return env.now
        env.run(until=min(env.now + poll, deadline))
    return env.now if _stable(system) else None


def run_trace_replay(controller_cls: Type[ZenithController],
                     trace: Trace,
                     seed: int = 0,
                     config: Optional[ControllerConfig] = None,
                     topology: Optional[Topology] = None,
                     demands: Optional[Sequence[tuple[str, str]]] = None,
                     bindings: Optional[dict] = None,
                     background_entries: int = 20,
                     deadline: float = 90.0) -> Optional[float]:
    """Replay one trace; return the true convergence latency (seconds).

    The measurement starts when the trace submits the measured DAG
    (``measure_from``) and ends when the system is stable again.  To
    randomise where failures land relative to reconciliation cycles,
    the trace starts after a seed-dependent offset within one period.
    """
    topology = topology if topology is not None else ring(6)
    demands = demands if demands is not None else [("s0", "s3")]
    system = build_system(controller_cls, topology, config=config, seed=seed,
                          demands=demands,
                          background_entries=background_entries)
    if not _stable(system):
        wait_for_stability(system, system.env.now + 30.0)
    # Randomise the phase relative to the reconciliation cycle.
    offset = system.streams.child("phase").uniform(
        0.0, system.controller.config.reconciliation_period)
    system.env.run(until=system.env.now + offset)

    ctx = TraceContext(system.env, system.controller, system.network,
                       bindings={"app": system.app, "system": system,
                                 **(bindings or {})})
    orchestrator = TraceOrchestrator(ctx, trace)
    done = orchestrator.start()
    system.env.run(until=done)
    measure_from = ctx.bindings.get("measure_from", system.env.now)
    stable_at = wait_for_stability(system, measure_from + deadline)
    if stable_at is None:
        return None
    return stable_at - measure_from


def run_install_workload(controller_cls: Type[ZenithController],
                         topology: Topology,
                         duration: float = 60.0,
                         path_length: int = 5,
                         seed: int = 0,
                         config: Optional[ControllerConfig] = None,
                         background_entries: int = 0,
                         switch_kwargs: Optional[dict] = None,
                         per_dag_deadline: float = 60.0) -> list[float]:
    """The Fig. 3/11 workload: repeatedly install small path DAGs.

    Each DAG updates ``path_length`` switches along a random simple
    path; the next DAG is only scheduled once the previous converged
    (as in the paper).  Returns certified-convergence latencies.

    ``switch_kwargs`` tunes the switch model; the scale experiments use
    testbed-realistic flow-mod latencies (tens of ms per OP) so DAG
    installation takes O(100 ms)–O(1 s) as on the paper's testbed.
    """
    system = build_system(controller_cls, topology, config=config, seed=seed,
                          background_entries=background_entries,
                          background_register_ops=False,
                          switch_kwargs=switch_kwargs)
    env, controller, alloc = system.env, system.controller, system.alloc
    picker = system.streams.child("workload")
    latencies: list[float] = []
    end_time = env.now + duration
    while env.now < end_time:
        path = _random_path(topology, picker, path_length)
        dag = path_dag(alloc, path)
        submit_at = env.now
        controller.submit_dag(dag)
        waiter = controller.wait_for_dag(dag.dag_id)
        deadline_timer = env.timeout(per_dag_deadline)
        env.run(until=AnyOf(env, [waiter, deadline_timer]))
        if waiter.triggered:
            latencies.append(env.now - submit_at)
        else:
            latencies.append(float("inf"))  # failed to converge in time
            break
    return latencies


def _random_path(topology: Topology, stream: RandomStreams,
                 length: int) -> list[str]:
    """A random simple path of ~``length`` switches (random walk)."""
    for _attempt in range(50):
        start = stream.choice(topology.switches)
        path = [start]
        current = start
        while len(path) < length:
            neighbors = [n for n in topology.neighbors(current)
                         if n not in path]
            if not neighbors:
                break
            current = stream.choice(neighbors)
            path.append(current)
        if len(path) >= 2:
            return path
    raise RuntimeError("could not sample a path")


def run_failure_workload(controller_cls: Type[ZenithController],
                         topology: Topology,
                         failure_kind: str = "switch",
                         duration: float = 120.0,
                         failure_count: int = 10,
                         concurrent: bool = False,
                         num_demands: int = 8,
                         seed: int = 0,
                         config: Optional[ControllerConfig] = None,
                         churn_period: Optional[float] = None,
                         switch_kwargs: Optional[dict] = None,
                         poll: float = 0.05) -> list[float]:
    """The Fig. 12/13 workload: random failures under a routing app.

    A :class:`RoutingApp` keeps ``num_demands`` random demands routed
    while random switch (or controller-component) failures hit the
    system.  ``churn_period`` adds management churn (a reroute every so
    often) so component crashes hit in-flight work, as in Fig. 13.
    Returns the durations of *instability episodes*: maximal intervals
    during which the system was not fully consistent — the per-event
    convergence times of Figs. 12/13.
    """
    from ..orchestrator.failures import (
        ComponentFailureInjector,
        SwitchFailureInjector,
        random_component_failures,
        random_switch_failures,
    )

    picker = RandomStreams(seed).child("demands")
    switches = topology.switches
    demands: list[tuple[str, str]] = []
    attempts = 0
    while len(demands) < num_demands and attempts < 50 * num_demands:
        attempts += 1
        src, dst = picker.sample(switches, 2)
        if topology.shortest_path(src, dst) is not None:
            demands.append((src, dst))
    system = build_system(controller_cls, topology, config=config, seed=seed,
                          demands=demands, background_entries=10,
                          switch_kwargs=switch_kwargs, settle=15.0)
    endpoints = {e for pair in demands for e in pair}
    window = (system.env.now + 5.0, system.env.now + 5.0 + duration)
    if failure_kind == "switch":
        schedule = random_switch_failures(
            switches, system.streams, window, failure_count,
            mean_downtime=3.0, concurrent=concurrent, protected=endpoints)
        SwitchFailureInjector(system.env, system.network, schedule)
    elif failure_kind == "component":
        components = (system.controller.de_component_names()
                      + system.controller.ofc_component_names())
        if churn_period:
            # Crashes land while management operations are in flight —
            # the regime where most consistency errors arise (§C: 70%
            # of production failures occur during management ops).
            from .failures_coupled import coupled_component_failures

            schedule = coupled_component_failures(
                components, system.streams, window, failure_count,
                churn_start=system.env.now + churn_period,
                churn_period=churn_period, concurrent=concurrent)
        else:
            schedule = random_component_failures(
                components, system.streams, window, failure_count,
                concurrent=concurrent)
        ComponentFailureInjector(system.env, system.controller, schedule)
    else:
        raise ValueError(f"unknown failure kind {failure_kind!r}")

    env = system.env
    if churn_period is not None:
        def churner():
            while True:
                yield env.timeout(churn_period)
                if system.app is not None:
                    system.app.reroute()

        env.process(churner(), name="management-churn")

    # Record instability episodes by polling.
    episodes: list[float] = []
    unstable_since: Optional[float] = None
    end = window[1] + 60.0  # grace period to settle the last episode
    while env.now < end:
        stable = _stable(system)
        if stable and unstable_since is not None:
            episodes.append(env.now - unstable_since)
            unstable_since = None
        elif not stable and unstable_since is None:
            unstable_since = env.now
        env.run(until=env.now + poll)
    if unstable_since is not None:
        episodes.append(float("inf"))  # never restabilised
    return episodes


class ExperimentTable:
    """Rows of (label, summary) printed the way the paper reports them.

    A series with no finite samples records a ``None`` summary (rendered
    as such) instead of a NaN-filled one, so tables round-trip through
    JSON losslessly: ``from_json(table.to_json())`` reproduces every
    label, float and empty cell exactly.
    """

    def __init__(self, title: str, unit: str = "s"):
        self.title = title
        self.unit = unit
        self.rows: list[tuple[str, Optional[Summary]]] = []
        #: Per-row count of non-finite samples dropped by :meth:`add`.
        self.dropped: list[int] = []

    def add(self, label: str, values: Sequence[float]) -> Optional[Summary]:
        """Summarise and record one series."""
        finite = [v for v in values if v != float("inf")]
        summary = summarize(finite) if finite else None
        self.rows.append((label, summary))
        self.dropped.append(len(values) - len(finite))
        return summary

    def render(self) -> str:
        """The printable table."""
        lines = [f"== {self.title} (unit: {self.unit}) =="]
        width = max((len(label) for label, _ in self.rows), default=10)
        for (label, summary), dropped in zip(self.rows, self.dropped):
            cell = summary.row() if summary is not None \
                else "(no finite samples)"
            suffix = f"  [{dropped} non-finite dropped]" if dropped else ""
            lines.append(f"{label:<{width}}  {cell}{suffix}")
        return "\n".join(lines)

    def print(self) -> None:
        """Print the table to stdout."""
        print(self.render())

    def to_json(self) -> str:
        """Serialize the table; floats survive via shortest-repr JSON."""
        return json.dumps({
            "title": self.title,
            "unit": self.unit,
            "rows": [{"label": label,
                      "dropped": dropped,
                      "summary": None if summary is None
                      else asdict(summary)}
                     for (label, summary), dropped
                     in zip(self.rows, self.dropped)],
        })

    @classmethod
    def from_json(cls, text: str) -> "ExperimentTable":
        """Rebuild a table serialized by :meth:`to_json`."""
        payload = json.loads(text)
        table = cls(payload["title"], payload["unit"])
        for row in payload["rows"]:
            summary = row["summary"]
            table.rows.append((row["label"], None if summary is None
                               else Summary(**summary)))
            table.dropped.append(row.get("dropped", 0))
        return table

"""The seven benchmark workloads: what runs, at which size, and why.

Each workload is driven through public functions of ``repro`` only.  A
workload has a discarded ``warmup``, a ``setup`` that builds the inputs
from the seed (timed as set-up) and a ``run`` that is the timed section
and returns an :class:`Outcome`.  Every repetition builds fresh inputs
from the same seed, so the repetitions of one run are exact replicas and
must agree on :attr:`Outcome.signature`.

All loops are closed: the next DAG, trial or BFS level starts only when
the previous one has finished.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter

from repro.baselines.pr import PrController
from repro.chaos import driver as chaos_driver
from repro.core.config import ControllerConfig
from repro.core.controller import ZenithController
from repro.experiments import common
from repro.metrics.percentiles import percentile
from repro.net import topology
from repro.sim import AnyOf
from repro.spec import ModelChecker
from repro.spec.specs import controller_spec, drain_app_spec
from repro.workloads.dags import path_dag

#: Sizes.  "full" is what BENCHMARK.json measures: every repetition is
#: about 3 s or more on the 2-core reference host, so that three fit
#: the run.  "smoke" exists for bench/tests only.
SIZES = {
    "full": {
        "check-interp": {"spec": "drain-app-full-core"},
        "check-incfp": {"spec": "controller-large"},
        "check-compiled": {"spec": "controller-3ops-2f"},
        "sim-install-zenith": {"switches": 120, "background_entries": 1200,
                               "horizon": 2000.0, "warmup_horizon": 10.0},
        "sim-install-pr": {"switches": 120, "background_entries": 1200,
                           "horizon": 40.0, "warmup_horizon": 10.0},
        "sim-failures": {"kdl": 300, "switches": 60, "duration": 250.0,
                         "failures": 17, "demands": 2},
        "chaos-search": {"trials": 100},
    },
    "smoke": {
        "check-interp": {"spec": "controller"},
        "check-incfp": {"spec": "controller"},
        "check-compiled": {"spec": "controller"},
        "sim-install-zenith": {"switches": 20, "background_entries": 20,
                               "horizon": 30.0, "warmup_horizon": 2.0},
        "sim-install-pr": {"switches": 20, "background_entries": 20,
                           "horizon": 45.0, "warmup_horizon": 2.0},
        "sim-failures": {"kdl": 40, "switches": 12, "duration": 20.0,
                         "failures": 2, "demands": 2},
        "chaos-search": {"trials": 3},
    },
}

_SPECS = {
    "controller": lambda: controller_spec(failures=1),
    "controller-large": lambda: controller_spec(failures=2),
    "controller-3ops-2f": lambda: controller_spec(num_ops=3, failures=2),
    "drain-app-full-core": lambda: drain_app_spec(core="full"),
}

#: Testbed-like flow-mod latencies, as the Fig. 3/11 experiments use.
SWITCH_KWARGS = {"op_process_time": 0.12, "channel_delay": 0.01}
PATH_LENGTH = 5
DAG_DEADLINE = 45.0


@dataclass
class Outcome:
    """What one repetition produced."""

    #: Operations attempted and failed (definitions per workload).
    attempted: int
    failed: int
    #: Digest of everything deterministic the repetition computed.
    signature: str
    #: The values bench/expected.json pins for seeds 0 and 1.
    stats: dict
    #: Deterministic counts reported as per-layer metrics.
    counts: dict = field(default_factory=dict)
    #: (start, end) wall clock of each DAG / chaos trial.
    op_spans: list = field(default_factory=list)
    #: ``CheckResult.stats`` of a profiled checker run.
    checker_stats: dict = field(default_factory=dict)


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


class Workload:
    """Base class; ``seeded`` is False when the seed does not change inputs."""

    name = ""
    seeded = True
    #: Which ``*_match`` metric drift from the pinned answer flips.
    match_metric = "harness.stats_match"
    #: What one entry of :attr:`Outcome.op_spans` is.
    op_name = ""

    def __init__(self, size: str = "full"):
        self.params = SIZES[size][self.name]

    def warmup(self, seed: int) -> None:
        raise NotImplementedError

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, inputs, traced: bool = False) -> Outcome:
        raise NotImplementedError


class CheckWorkload(Workload):
    """Model-check one spec to a verdict with one engine."""

    seeded = False
    match_metric = "checker.counts_match"
    checker_kwargs: dict = {}

    def _check(self, spec, traced: bool = False):
        return ModelChecker(spec, stop_at_first_violation=False,
                            profile=traced, **self.checker_kwargs).run()

    def warmup(self, seed: int) -> None:
        self._check(_SPECS["controller"]())

    def setup(self, seed: int):
        return _SPECS[self.params["spec"]]()

    def run(self, spec, traced: bool = False) -> Outcome:
        result = self._check(spec, traced)
        stats = {"ok": result.ok, "states": result.distinct_states,
                 "transitions": result.transitions,
                 "diameter": result.diameter}
        # The known answer: every benchmarked spec verifies.
        return Outcome(
            attempted=1, failed=0 if result.ok else 1,
            signature=_digest(result.to_json()), stats=stats,
            counts={"checker.states": result.distinct_states,
                    "checker.transitions": result.transitions,
                    "checker.diameter": result.diameter},
            checker_stats=result.stats if traced else {})


class CheckInterp(CheckWorkload):
    name = "check-interp"


class CheckIncFp(CheckWorkload):
    name = "check-incfp"
    checker_kwargs = {"fingerprint_mode": "incremental"}


class CheckCompiled(CheckWorkload):
    name = "check-compiled"
    checker_kwargs = {"compiled": True}


def pick_path(topo, stream, length: int) -> list[str]:
    """A seeded random simple path of exactly ``length`` switches."""
    switches = topo.switches
    for _attempt in range(200):
        path = [stream.choice(switches)]
        while len(path) < length:
            onward = [n for n in topo.neighbors(path[-1]) if n not in path]
            if not onward:
                break
            path.append(stream.choice(onward))
        if len(path) == length:
            return path
    raise RuntimeError(f"no simple path of {length} switches in {topo.name}")


class InstallWorkload(Workload):
    """The Fig. 3/11 steady state: install small path DAGs back to back."""

    op_name = "dag"
    controller_cls = ZenithController
    dag_deadline = DAG_DEADLINE

    def _config(self):
        return None

    def setup(self, seed: int):
        topo = topology.kdl(self.params["switches"], seed)
        system = common.build_system(
            self.controller_cls, topo, config=self._config(), seed=seed,
            background_entries=self.params["background_entries"],
            background_register_ops=False, switch_kwargs=SWITCH_KWARGS)
        return topo, system

    def _install(self, inputs, horizon: float) -> Outcome:
        topo, system = inputs
        env, controller = system.env, system.controller
        picker = system.streams.child("workload")
        latencies, op_spans = [], []
        timeouts = 0
        end = env.now + horizon
        while env.now < end:
            started = perf_counter()
            dag = path_dag(system.alloc, pick_path(topo, picker, PATH_LENGTH))
            submitted = env.now
            controller.submit_dag(dag)
            certified = controller.wait_for_dag(dag.dag_id)
            env.run(until=AnyOf(
                env, [certified, env.timeout(self.dag_deadline)]))
            if certified.triggered:
                latencies.append(env.now - submitted)
            else:
                timeouts += 1
            op_spans.append((started, perf_counter()))
        dags = len(latencies) + timeouts
        stats = {"dags": dags, "sim_p50": None, "sim_p99": None}
        if latencies:
            stats["sim_p50"] = round(percentile(latencies, 50), 9)
            stats["sim_p99"] = round(percentile(latencies, 99), 9)
        return Outcome(
            attempted=dags, failed=timeouts,
            signature=_digest([repr(value) for value in latencies]),
            stats=stats,
            counts={"harness.dags": dags, "harness.dag_timeouts": timeouts},
            op_spans=op_spans)

    def warmup(self, seed: int) -> None:
        self._install(self.setup(seed), self.params["warmup_horizon"])

    def run(self, inputs, traced: bool = False) -> Outcome:
        return self._install(inputs, self.params["horizon"])


class SimInstallZenith(InstallWorkload):
    name = "sim-install-zenith"


class SimInstallPr(InstallWorkload):
    name = "sim-install-pr"
    controller_cls = PrController

    def _config(self):
        return ControllerConfig(reconciliation_period=30)


class SimFailures(Workload):
    """The Fig. 12 path: random switch failures under a routing app."""

    name = "sim-failures"

    def _topology(self, seed: int):
        return topology.subgraph(topology.kdl(self.params["kdl"], seed),
                                 self.params["switches"], seed)

    def _episodes(self, topo, seed: int, duration: float, failures: int):
        return common.run_failure_workload(
            ZenithController, topo, failure_kind="switch",
            duration=duration, failure_count=failures,
            num_demands=self.params["demands"], seed=seed,
            config=ControllerConfig(reconciliation_period=30))

    def warmup(self, seed: int) -> None:
        self._episodes(self._topology(seed), seed, 5.0, 1)

    def setup(self, seed: int):
        return self._topology(seed), seed

    def run(self, inputs, traced: bool = False) -> Outcome:
        topo, seed = inputs
        episodes = self._episodes(topo, seed, self.params["duration"],
                                  self.params["failures"])
        finite = [e for e in episodes if e != float("inf")]
        stats = {"episodes": len(episodes),
                 "sim_unstable_s": round(sum(finite), 9)}
        return Outcome(
            attempted=len(episodes), failed=len(episodes) - len(finite),
            signature=_digest([repr(value) for value in episodes]),
            stats=stats, counts={"harness.episodes": len(episodes)})


class ChaosSearch(Workload):
    """Seeded chaos schedules against PR (target) and ZENITH (reference)."""

    name = "chaos-search"
    op_name = "trial"

    def _search(self, seed: int, trials: int, progress=None) -> dict:
        return chaos_driver.search(seed, trials=trials, shrink=False,
                                   progress=progress)

    def warmup(self, seed: int) -> None:
        self._search(seed, 2)

    def setup(self, seed: int):
        return seed

    def run(self, seed, traced: bool = False) -> Outcome:
        marks = [perf_counter()]
        artifact = self._search(
            seed, self.params["trials"],
            progress=lambda *_args: marks.append(perf_counter()))
        verdicts = [verdict for run in artifact["runs"]
                    for verdict in run["verdicts"].values()]
        # A violation is a finding, not a failed operation: sampled
        # schedules drop control messages, which ZENITH does not retry.
        return Outcome(
            attempted=len(verdicts), failed=0,
            signature=_digest(artifact["runs"]),
            stats={"interesting_trials": artifact["interesting_trials"]},
            counts={
                "chaos.interesting_trials":
                    len(artifact["interesting_trials"]),
                "chaos.triggers_fired":
                    sum(len(v["fired_triggers"]) for v in verdicts),
                "chaos.reference_violations":
                    sum(1 for v in verdicts
                        if v["controller"] == artifact["reference"]
                        and v["violated"]),
            },
            op_spans=list(zip(marks, marks[1:])))


WORKLOADS = {cls.name: cls for cls in (
    CheckInterp, CheckIncFp, CheckCompiled, SimInstallZenith, SimInstallPr,
    SimFailures, ChaosSearch)}

"""Ablation: do the model-checker-driven fixes matter at runtime?

DESIGN.md records bugs that model-checking this repository's own
controller specification found in the initially written implementation.
This experiment re-introduces each bug into a ZENITH variant and drives
the variants through failure/recovery choreographies, measuring each
bug's *signature pathology* rather than just convergence — because
ZENITH's layered defenses (at-least-once delivery, standing-intent
reactivation) let single re-broken bugs self-heal into eventual
convergence while still corrupting intermediate guarantees:

* **lying certifications** — the NIB certifies a DAG as DONE while the
  dataplane does not carry it (breaks the §3.6 contract apps rely on);
  the signature of ``accept-any-ack`` (stale-event resurrection).
* **hidden-entry exposure** — integrated time during which entries are
  installed that the controller's view does not know about (the Fig. 2
  pathology); the signature of ``buggy-recovery-order`` (§G).
* **duplicate installs** — OPs installed over live entries (§B's
  unnecessary-installation condition); amplified by
  ``no-status-guard`` forwarding reset queue entries.

Stock ZENITH must show zero lying certifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.config import ControllerConfig
from ..core.controller import ZenithController
from ..core.events import OpDoneEvent, OpFailedEvent, OpSentEvent
from ..core.nib_handler import NibEventHandler
from ..core.topo_handler import TopoEventHandler
from ..core.types import AppEventKind, DagStatus, OpStatus, OpType, SwitchHealth
from ..core.worker_pool import Worker
from ..metrics.convergence import dag_installed_in_dataplane
from ..net.switch import FailureMode
from ..net.topology import ring
from .common import build_system, wait_for_stability

__all__ = ["run", "param_grid", "AblationResult"]

#: Choreography timing and demand placement derive from the seed.
SEED_SENSITIVE = True


def param_grid(quick: bool = True) -> list[dict]:
    """Campaign tasks: the whole ablation (variants share the shape)."""
    return [{}]


# -- the re-broken components ----------------------------------------------------
class UnguardedWorker(Worker):
    """Forwards any queued OP without the SCHEDULED re-check."""

    def _process(self, op):
        if op.op_type is OpType.CLEAR:
            self._forward(op)
            return
        # (missing: the SCHEDULED status guard)
        if self.state.is_switch_usable(op.switch):
            self.nib_events.put(OpSentEvent(op.op_id))
            self._forward(op)
        else:
            self.nib_events.put(OpFailedEvent(op.op_id))


class BuggyOrderTopoHandler(TopoEventHandler):
    """§G: marks the switch UP, then resets its OPs in a later step.

    The original bug lived in separate threads; here the gap between
    the two actions is an explicit delay, during which workers send to
    the now-UP switch and their ACKs get processed — which the late
    reset then clobbers.
    """

    reset_lag = 0.25

    def _cleanup_done(self, event):
        if self.state.cleanup.get(event.xid) != event.switch:
            return
        self.state.cleanup.delete(event.xid)
        # Wrong order: ⑧ first …
        self.state.set_health(event.switch, SwitchHealth.UP)
        self._notify_apps(AppEventKind.SWITCH_UP, event.switch)

        def late_reset(switch=event.switch):
            yield self.env.timeout(self.reset_lag)
            # … ⑦ afterwards, erasing knowledge of fresh installs.
            self._reset_switch_ops(switch)
            self.state.clear_view_of_switch(switch)

        self.env.process(late_reset(), name=f"late-reset-{event.switch}")


class TrustingNibHandler(NibEventHandler):
    """Applies every event at face value (no conservatism)."""

    def _apply(self, event):
        if isinstance(event, OpSentEvent):
            self.state.set_op_status(event.op_id, OpStatus.IN_FLIGHT)
        elif isinstance(event, OpDoneEvent):
            op = self.state.op_table.get(event.op_id)
            if op is None:
                return
            self.state.set_op_status(event.op_id, OpStatus.DONE)
            if op.op_type is OpType.INSTALL and op.entry is not None:
                self.state.record_installed(op.switch, op.entry.entry_id,
                                            event.op_id)
            elif op.op_type is OpType.DELETE and op.entry_id is not None:
                self.state.record_removed(op.switch, op.entry_id)
            self._notify_owner(event.op_id)
        elif isinstance(event, OpFailedEvent):
            self.state.set_op_status(event.op_id, OpStatus.FAILED)
            self._notify_owner(event.op_id)


class NoStatusGuardController(ZenithController):
    worker_cls = UnguardedWorker


class BuggyRecoveryOrderController(ZenithController):
    topo_handler_cls = BuggyOrderTopoHandler


class AcceptAnyAckController(ZenithController):
    nib_handler_cls = TrustingNibHandler


#: Runtime-demonstrable variants (the §G window is wide enough to hit
#: with wall-clock choreography); the remaining re-broken fixes are
#: exercised at the specification level, where the checker controls
#: scheduling and reaches their razor-thin interleavings.
_RUNTIME_VARIANTS = {
    "zenith": ZenithController,
    "buggy-recovery-order": BuggyRecoveryOrderController,
}

#: Spec-level ablations: name → (guard components switched off,
#: expected verdict).  The spec kwargs are resolved from the ablation
#: registry's "guards" workload (repro.ablation.registry), so this
#: experiment and `zenith-repro ablate` re-break the very same guards;
#: "buggy recovery order" additionally drops stale protection, matching
#: the §G counterexample configuration.
_SPEC_VARIANTS = {
    "spec: final controller": ((), True),
    "spec: no stale-event protection": (("stale-protection",), False),
    "spec: buggy recovery order": (
        ("stale-protection", "atomic-recovery"), False),
}


def _workerpool_buggy_with_discipline():
    """Listing 1 with the Listing 3 queue contract declared.

    The shipped Listing 1 spec predates the ack discipline and lints
    clean; declaring the contract on it turns the destructive FIFOGet
    into a static violation — the same design bug the checker refutes
    dynamically (§3.9 lost-event counterexample).
    """
    from ..spec.specs import worker_pool_spec

    spec = worker_pool_spec(fixed=False)
    spec.ack_queues = frozenset({"op_queue"})
    return spec


def _controller_with_unsound_hint():
    """The final controller with a forged POR ample-set hint.

    Marks a globally-effectful step ``local=True``: static analysis
    must reject the hint, and the checker must refuse to explore under
    it — agreement between the two layers.
    """
    from ..spec.specs.controller import controller_spec

    spec = controller_spec(num_ops=2, failures=1, num_switches=1,
                           oneshot_sequencer=True)
    spec.processes[0].steps[0].local = True
    return spec


#: Static-analysis ablations: name → (spec factory, expected clean?).
#: Each statically flagged variant is also dynamically refuted (or
#: rejected) by the checker; `tests/experiments/test_ablation.py`
#: asserts the two verdicts agree.
_STATIC_VARIANTS = {
    "static: workerpool final": (
        lambda: __import__("repro.spec.specs",
                           fromlist=["worker_pool_spec"]
                           ).worker_pool_spec(fixed=True), True),
    "static: workerpool initial + discipline": (
        _workerpool_buggy_with_discipline, False),
    "static: controller + unsound POR hint": (
        _controller_with_unsound_hint, False),
}


@dataclass
class VariantMetrics:
    """Signature pathologies observed for one variant."""

    lying_certifications: int = 0
    certifications: int = 0
    hidden_entry_time: float = 0.0
    duplicate_installs: int = 0
    unconverged: int = 0


@dataclass
class AblationResult:
    """Per-variant integrity metrics + spec-level verdicts."""

    metrics: dict = field(default_factory=dict)
    spec_verdicts: dict = field(default_factory=dict)
    #: variant name -> lints clean? (True = zero findings)
    static_verdicts: dict = field(default_factory=dict)

    def check_shape(self) -> list[str]:
        failures = []
        stock = self.metrics["zenith"]
        if stock.lying_certifications:
            failures.append("stock ZENITH produced lying certifications")
        if stock.unconverged:
            failures.append("stock ZENITH failed to reconverge")
        buggy = self.metrics["buggy-recovery-order"]
        if not (buggy.hidden_entry_time > stock.hidden_entry_time
                or buggy.duplicate_installs > stock.duplicate_installs):
            failures.append("buggy-recovery-order shows no extra "
                            "hidden-entry exposure or duplicates")
        for name, (_off, expected_ok) in _SPEC_VARIANTS.items():
            if self.spec_verdicts.get(name) != expected_ok:
                failures.append(f"{name}: expected "
                                f"{'OK' if expected_ok else 'VIOLATION'}")
        for name, (_factory, expected_clean) in _STATIC_VARIANTS.items():
            if self.static_verdicts.get(name) != expected_clean:
                failures.append(f"{name}: expected lint "
                                f"{'clean' if expected_clean else 'findings'}")
        return failures

    def rows(self) -> list[dict]:
        """Deterministic per-variant metric and verdict rows."""
        out = []
        for variant, metrics in self.metrics.items():
            out.append({"variant": variant, "kind": "runtime",
                        "lying_certs": metrics.lying_certifications,
                        "certifications": metrics.certifications,
                        "hidden_entry_s": metrics.hidden_entry_time,
                        "duplicate_installs": metrics.duplicate_installs,
                        "unconverged": metrics.unconverged,
                        "ok": None})
        for name, ok in self.spec_verdicts.items():
            out.append({"variant": name, "kind": "spec", "ok": ok})
        for name, clean in self.static_verdicts.items():
            out.append({"variant": name, "kind": "static", "ok": clean})
        return out

    def render(self) -> str:
        lines = ["== Ablation: signature pathologies of re-broken fixes ==",
                 f"{'variant':>22s} {'lying certs':>12s} "
                 f"{'hidden-entry s':>15s} {'dup installs':>13s} "
                 f"{'unconverged':>12s}"]
        for variant, metrics in self.metrics.items():
            lines.append(
                f"{variant:>22s} "
                f"{metrics.lying_certifications:>5d}/{metrics.certifications:<6d} "
                f"{metrics.hidden_entry_time:>15.2f} "
                f"{metrics.duplicate_installs:>13d} "
                f"{metrics.unconverged:>12d}")
        lines.append("-- specification-level verdicts --")
        for name, ok in self.spec_verdicts.items():
            lines.append(f"  {name:36s} {'OK' if ok else 'VIOLATION found'}")
        lines.append("-- static analysis (speclint) verdicts --")
        for name, clean in self.static_verdicts.items():
            lines.append(f"  {name:36s} "
                         f"{'clean' if clean else 'FINDINGS'}")
        return "\n".join(lines)


def _choreograph(controller_cls, seed: int, rounds: int) -> VariantMetrics:
    """Repeated reroute + failure + rapid-recovery choreography.

    The choreography recreates the conditions of the counterexample
    traces (identically for every variant): the NIB Event Handler and
    the victim's worker crash at the failure instant, so stale events
    and queued OP copies are still pending when the recovery reset
    runs; a slowed Sequencer widens the window between the reset and
    the re-dispatch.
    """
    metrics = VariantMetrics()
    config = ControllerConfig(sequencer_step_time=0.03)
    system = build_system(controller_cls, ring(6), seed=seed,
                          demands=[("s0", "s3"), ("s1", "s4")],
                          background_entries=10, config=config)
    env, controller = system.env, system.controller

    def on_dag_status(write):
        if write.new is not DagStatus.DONE:
            return
        dag = controller.state.get_dag(write.key)
        metrics.certifications += 1
        if dag is not None and not dag_installed_in_dataplane(
                system.network, dag, ignore_down=True):
            metrics.lying_certifications += 1

    controller.state.dag_status.watch(on_dag_status)

    hidden_state = {"since": None}

    def hidden_sampler():
        while True:
            hidden = bool(controller.hidden_entries())
            now = env.now
            if hidden and hidden_state["since"] is None:
                hidden_state["since"] = now
            elif not hidden and hidden_state["since"] is not None:
                metrics.hidden_entry_time += now - hidden_state["since"]
                hidden_state["since"] = None
            yield env.timeout(0.02)

    env.process(hidden_sampler(), name="hidden-sampler")

    victims = ["s1", "s2", "s4", "s5"]
    for round_index in range(rounds):
        victim = victims[round_index % len(victims)]
        if victim in ("s0", "s3"):
            continue
        system.app.reroute()
        env.run(until=env.now + 0.01)
        system.network.fail_switch(victim, FailureMode.COMPLETE)
        env.run(until=env.now + 0.8)
        system.network.recover_switch(victim)
        # Extra churn right at the recovery boundary: the window the
        # counterexample traces exploited.
        env.run(until=env.now + 0.6)
        system.app.reroute()
        stable_at = wait_for_stability(system, env.now + 45.0)
        if stable_at is None:
            metrics.unconverged += 1
    metrics.duplicate_installs = sum(
        switch.duplicate_installs for switch in system.network)
    return metrics


def run(quick: bool = True, seed: int = 0) -> AblationResult:
    """Drive the runtime variants, then check the spec-level ablations."""
    from ..spec.checker import check
    from ..spec.specs.controller import controller_spec

    rounds = 6 if quick else 20
    result = AblationResult()
    for variant, controller_cls in _RUNTIME_VARIANTS.items():
        result.metrics[variant] = _choreograph(controller_cls, seed, rounds)
    from ..ablation.registry import resolve_config

    for name, (off, _expected) in _SPEC_VARIANTS.items():
        config = resolve_config("guards", off)
        outcome = check(controller_spec(**config["scopes"]["spec"]))
        result.spec_verdicts[name] = outcome.ok
    from ..analysis import analyze_spec

    for name, (factory, _expected) in _STATIC_VARIANTS.items():
        result.static_verdicts[name] = not analyze_spec(factory()).findings
    return result

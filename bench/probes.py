"""Layer probes: one fixed synthetic input per layer, public API only.

Run once with the traced set.  A probe isolates one layer's unit cost
from the workloads that mix it with everything else, so a change in a
workload's time can be told apart from a change in the layer itself.
"""

from __future__ import annotations

from time import perf_counter

from repro import obs
from repro.nib.store import Nib
from repro.sim import Environment, FifoQueue
from repro.spec import FingerprintStore, ModelChecker, fingerprint_state
from repro.spec.specs import controller_spec

PING_PONG_PAIRS = 50
PING_PONG_ROUNDS = 400
NIB_PUTS = 100_000
STORE_ADDS = 200_000


def _best_of(repeats: int, function) -> float:
    """Smallest wall time of ``function`` over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        function()
        best = min(best, perf_counter() - start)
    return best


class _EventCounter(obs.Tracer):
    fired = 0

    def event_fired(self, env, event):
        self.fired += 1


def sim_events_per_s() -> float:
    """Bare kernel + queues: processes ping-ponging, no components."""

    def run(tracer=None):
        env = Environment(tracer=tracer)

        def ping(outbox, inbox):
            for _ in range(PING_PONG_ROUNDS):
                yield env.timeout(0.001)
                outbox.put(1)
                yield inbox.get()

        def pong(outbox, inbox):
            for _ in range(PING_PONG_ROUNDS):
                yield inbox.get()
                yield env.timeout(0.001)
                outbox.put(1)

        for pair in range(PING_PONG_PAIRS):
            there = FifoQueue(env, f"there-{pair}")
            back = FifoQueue(env, f"back-{pair}")
            env.process(ping(there, back), name=f"ping-{pair}")
            env.process(pong(back, there), name=f"pong-{pair}")
        env.run()

    # The event count is deterministic: take it from a hooked run, and
    # the time from unhooked ones.
    counter = _EventCounter()
    run(counter)
    return counter.fired / _best_of(3, run)


def nib_put_us(watchers: int) -> float:
    """One ``NibTable.put`` with ``watchers`` no-op watchers, in µs."""
    table = Nib(Environment()).table("probe")
    for _ in range(watchers):
        table.watch(lambda write: None)

    def run():
        put = table.put
        for key in range(NIB_PUTS):
            put(key % 1000, key)

    return _best_of(3, run) / NIB_PUTS * 1e6


def _reachable_controller_states() -> list:
    """Every reachable state of the bundled ``controller`` spec."""
    states = []
    spec = controller_spec(failures=1)
    spec.invariants["bench-collect"] = \
        lambda view: states.append(view.state) or True
    ModelChecker(spec, stop_at_first_violation=False).run()
    return states


def fingerprint_probes() -> dict:
    """``fingerprint_state`` per state and ``FingerprintStore.add`` per key."""
    states = _reachable_controller_states()
    fingerprints: list = []

    def digest():
        fingerprints[:] = [fingerprint_state(state) for state in states]

    state_fp_us = _best_of(3, digest) / len(states) * 1e6

    # Half of the adds are hits: every key is offered twice.
    keys = [fingerprints[i % len(fingerprints)] ^ (i // len(fingerprints))
            for i in range(STORE_ADDS // 2)] * 2

    def fill():
        add = FingerprintStore().add
        for key in keys:
            add(key)

    return {"fingerprint.probe_state_fp_us": state_fp_us,
            "fingerprint.probe_store_add_us":
                _best_of(3, fill) / len(keys) * 1e6}


def run_all() -> dict:
    """Every probe metric, by name."""
    return {
        "sim.probe_events_per_s": sim_events_per_s(),
        "nib.probe_put_us": nib_put_us(0),
        "nib.probe_put_watched_us": nib_put_us(4),
        **fingerprint_probes(),
    }

"""Engine differential on *random* specs (ROADMAP 6c, first slice).

The engine matrix pins the four serial configurations byte-identical on
the 13 bundled specs; this suite asks the same of small specs drawn from
the DSL vocabulary — guards, FIFO macros, nondeterministic choice,
locals, explicit ``goto``/``done``, daemon and non-daemon processes, an
invariant and a ◇□ property that sometimes fail — so an engine that is
right only on controller-shaped state spaces is caught.  A spec is drawn
as plain data (tuples of op descriptors) and turned into step closures
by :func:`build_spec`, so a failing example shrinks and prints as data.
Any disagreement hypothesis finds belongs below as an ``@example``.
"""

import os

import hypothesis.strategies as st
from hypothesis import HealthCheck, assume, given, settings

from repro.spec import (
    ModelChecker,
    Spec,
    SpecProcess,
    Step,
    fifo_get,
    fifo_put,
)
from repro.spec.checker import UnsoundPORHintError

GLOBALS = ("g0", "g1")
QUEUE_CAP = 2
ENGINES = {
    "full": {"fingerprint_mode": "full"},
    "incremental": {"fingerprint_mode": "incremental"},
    "compiled": {"compiled": True},
}


def _run_op(ctx, op, labels):
    kind = op[0]
    if kind == "await_lt":
        ctx.block_unless(ctx.get(op[1]) < op[2])
    elif kind == "await_eq":
        ctx.block_unless(ctx.get(op[1]) == op[2])
    elif kind == "inc":
        ctx.set(op[1], (ctx.get(op[1]) + 1) % op[2])
    elif kind == "load":
        ctx.lset("x", ctx.get(op[1]))
    elif kind == "add":
        ctx.set(op[1], (ctx.get(op[1]) + ctx.lget("x")) % 3)
    elif kind == "bump":
        ctx.lset("x", (ctx.lget("x") + 1) % 3)
    elif kind == "put":
        ctx.block_unless(len(ctx.get("q")) < QUEUE_CAP)
        fifo_put(ctx, "q", op[1])
    elif kind == "put_any":
        ctx.block_unless(len(ctx.get("q")) < QUEUE_CAP)
        fifo_put(ctx, "q", ctx.choose_from((0, 1)))
    elif kind == "get":
        ctx.lset("x", fifo_get(ctx, "q"))
    elif kind == "pick":
        ctx.set(op[1], ctx.choose(3))
    elif kind == "maybe_done":
        if ctx.maybe():
            ctx.done()
    elif kind == "goto":
        ctx.goto(labels[op[1] % len(labels)])
    elif kind == "done":
        ctx.done()
    else:  # pragma: no cover - strategy and interpreter out of sync
        raise AssertionError(op)


def _step(ops, labels):
    def run(ctx):
        for op in ops:
            _run_op(ctx, op, labels)

    return run


def _predicate(prop):
    kind = prop[0]
    if kind == "le":
        return lambda view: view[prop[1]] <= prop[2]
    if kind == "eq":
        return lambda view: view[prop[1]] == prop[2]
    if kind == "drained":
        return lambda view: len(view["q"]) == 0
    if kind == "local_le":
        return lambda view: view.local(prop[1], "x") <= prop[2]
    if kind == "not_at":
        return lambda view: view.pc(prop[1]) != prop[2]
    raise AssertionError(prop)  # pragma: no cover


def build_spec(desc) -> Spec:
    """A :class:`Spec` from the plain-data description the strategy draws."""
    processes, invariant, liveness = desc
    spec_processes = []
    for index, (daemon, bodies) in enumerate(processes):
        labels = [f"l{i}" for i in range(len(bodies))]
        steps = [Step(label, _step(ops, labels),
                      # Sound by construction: touches only the own local.
                      local=all(op == ("bump",) for op in ops))
                 for label, ops in zip(labels, bodies)]
        spec_processes.append(
            SpecProcess(f"p{index}", steps, locals_={"x": 0}, daemon=daemon))
    return Spec("random", {"g0": 0, "g1": 0, "q": ()}, spec_processes,
                invariants={"Inv": _predicate(invariant)},
                eventually_always={"Live": _predicate(liveness)})


_global = st.sampled_from(GLOBALS)
_small = st.integers(min_value=0, max_value=2)
_op = st.one_of(
    st.tuples(st.just("await_lt"), _global, _small),
    st.tuples(st.just("await_eq"), _global, _small),
    st.tuples(st.just("inc"), _global, st.integers(2, 3)),
    st.tuples(st.just("load"), _global),
    st.tuples(st.just("add"), _global),
    st.just(("bump",)),
    st.tuples(st.just("put"), st.integers(0, 1)),
    st.just(("put_any",)),
    st.just(("get",)),
    st.tuples(st.just("pick"), _global),
    st.just(("maybe_done",)),
    st.tuples(st.just("goto"), st.integers(0, 2)),
    st.just(("done",)),
)
_process = st.tuples(
    st.booleans(),                                            # daemon
    st.lists(st.lists(_op, min_size=1, max_size=3), min_size=1, max_size=3))


@st.composite
def spec_descriptions(draw):
    processes = draw(st.lists(_process, min_size=2, max_size=3))
    names = [f"p{i}" for i in range(len(processes))]
    proc = st.sampled_from(names)
    prop = st.one_of(
        st.tuples(st.just("le"), _global, _small),
        st.tuples(st.just("eq"), _global, _small),
        st.just(("drained",)),
        st.tuples(st.just("local_le"), proc, st.integers(0, 1)),
        st.tuples(st.just("not_at"), proc, st.sampled_from(("l0", "l1"))),
    )
    return processes, draw(prop), draw(prop)


def _outcome(desc, **kwargs):
    """``to_json`` of one run, or the name of what it refused with."""
    try:
        return ModelChecker(build_spec(desc), max_states=4000,
                            **kwargs).run().to_json()
    except UnsoundPORHintError:
        return "unsound-por-hint"


_FULL = os.environ.get("REPRO_CHECKER_FULL") == "1"


@settings(max_examples=400 if _FULL else 60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(spec_descriptions())
def test_serial_engines_agree_on_random_specs(desc):
    for por in (True, False):
        for stop in (True, False):
            options = {"por": por, "stop_at_first_violation": stop}
            try:
                reference = _outcome(desc, **options)
            except MemoryError:
                assume(False)
            for engine, kwargs in ENGINES.items():
                assert _outcome(desc, **options, **kwargs) == reference, (
                    f"{engine} diverges from the interpreted engine "
                    f"(por={por}, stop_at_first_violation={stop})")


"""Compiled-step engine: per-label parity with the interpreter.

The compiled engine's contract is byte-identity with the interpreter,
and these tests pin it at the finest grain available: for every bundled
spec, every (process, label) pair's compiled expansion must produce the
*same successor list* as the interpreted ``_expand_step`` on a
randomized sample of reachable states (fixed seeds — failures replay).
The whole-run differential lives in ``test_engine_matrix.py``; this
file is where a miscompile is localized to one label.
"""

import random

import pytest

from repro.spec import ModelChecker
from repro.spec.compile import CompiledStepper
from repro.spec.specs import SPEC_SOURCES

SAMPLED_SPECS = ("controller", "workerpool-initial", "workerpool-final",
                 "drain-app", "te-app", "core-with-app-naive",
                 "controller-buggy-recovery")


def _reachable_sample(checker, seed, limit=200):
    """A reproducible random sample of canonical reachable states."""
    rng = random.Random(seed)
    init = checker._canonical(checker.spec.initial_state())
    frontier, seen = [init], {init}
    while frontier and len(seen) < limit * 4:
        state = frontier.pop(rng.randrange(len(frontier)))
        for _action, succ in checker._successors(state):
            canon = checker._canonical(succ)
            if canon not in seen:
                seen.add(canon)
                frontier.append(canon)
    states = sorted(seen, key=repr)
    rng.shuffle(states)
    return states[:limit]


@pytest.mark.parametrize("name", SAMPLED_SPECS)
def test_per_label_successors_agree(name):
    """Compiled expand_label == interpreted _expand_step, per process,
    on randomized reachable states — including blocked (empty) labels,
    so guard parity is covered by the same sweep."""
    spec = SPEC_SOURCES[name].build()
    checker = ModelChecker(spec, validate_por_hints=False)
    stepper = CompiledStepper(spec)
    blocked = expanded = 0
    for state in _reachable_sample(checker, seed=1234):
        for proc_index in range(len(spec.processes)):
            interpreted = checker._expand_step(state, proc_index)
            compiled = stepper.expand_label(state, proc_index)
            assert compiled == interpreted, (
                f"{name} proc {proc_index} "
                f"({spec.processes[proc_index].name}) diverges at {state}")
            if interpreted:
                expanded += 1
            else:
                blocked += 1
    # The sweep must have exercised both the fire and the blocked path.
    assert expanded > 0 and blocked > 0


@pytest.mark.parametrize("name", SAMPLED_SPECS)
def test_whole_state_successor_lists_agree(name):
    """POR ample-scan order is preserved: full successor lists match."""
    spec = SPEC_SOURCES[name].build()
    checker = ModelChecker(spec, validate_por_hints=False)
    stepper = CompiledStepper(spec)
    for state in _reachable_sample(checker, seed=99, limit=120):
        assert stepper.successors(state) == checker._successors(state)


def test_uncompiled_labels_option_is_gone():
    """Every label runs through its memo table; there is no per-label
    opt-out left to name."""
    with pytest.raises(TypeError, match="uncompiled_labels"):
        ModelChecker(SPEC_SOURCES["controller"].build(), compiled=True,
                     uncompiled_labels=("sequencer.schedule",))


def test_compiled_rejects_incompatible_modes():
    spec = SPEC_SOURCES["te-app"].build()
    with pytest.raises(ValueError, match="compiled"):
        ModelChecker(spec, compiled=True, fingerprint_mode="incremental")


def test_coverage_stats_shape():
    result = ModelChecker(SPEC_SOURCES["drain-app"].build(),
                          compiled=True).run()
    stats = result.stats["compiled"]
    # bench/run.py also reads labels_codegen / labels_interp, through
    # .get(..., 0): with one way to execute a label they are always 0.
    assert set(stats) == {
        "labels", "labels_memo", "label_fills", "property_fills", "probes",
        "delta_reuses", "keyslot_growths", "interned_values", "slots"}
    assert stats["labels"] == stats["labels_memo"] > 0
    assert stats["label_fills"] >= stats["labels"]
    assert result.stats["engine"] == "compiled"


# -- specs built through the NADIR front end ----------------------------------

def _nadir_drain_spec():
    """drain-app built *through the NADIR front end*, with a seeded
    request queue so the drain loop has work."""
    from repro.nadir.interp import program_to_spec
    from repro.nadir.programs import drain_app_program

    spec = program_to_spec(drain_app_program())
    index = spec.global_names.index("DrainRequestQueue")
    initial = list(spec.initial_globals)
    initial[index] = (1, 2, -1, 2)
    spec.initial_globals = tuple(initial)
    return spec


def _nadir_worker_pool_spec():
    from repro.nadir.interp import program_to_spec
    from repro.nadir.programs import worker_pool_program

    return program_to_spec(worker_pool_program())


@pytest.mark.parametrize("build", [_nadir_drain_spec, _nadir_worker_pool_spec],
                         ids=["drain-app", "worker-pool"])
def test_nadir_programs_compile_like_any_other_spec(build):
    """A spec that carries a NADIR AST takes the same memo path: the run
    is byte-identical to the interpreter's and every label's compiled
    expansion equals ``_expand_step`` on sampled reachable states."""
    compiled = ModelChecker(build(), compiled=True).run()
    assert compiled.to_json() == ModelChecker(build()).run().to_json()
    stats = compiled.stats["compiled"]
    assert stats["labels_memo"] == stats["labels"] > 0

    spec = build()
    checker = ModelChecker(spec, validate_por_hints=False)
    stepper = CompiledStepper(spec)
    for state in _reachable_sample(checker, seed=7, limit=60):
        for proc_index in range(len(spec.processes)):
            assert (stepper.expand_label(state, proc_index)
                    == checker._expand_step(state, proc_index))

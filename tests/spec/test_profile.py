"""Profiling must never change what the checker reports.

The determinism contract: ``CheckResult.to_json()`` is a pure function
of (spec, options) — profiling, progress and tracing all ride in
``stats`` (excluded from ``to_json``), so a profiled run is
byte-identical to an unprofiled one on every bundled spec and engine.
The two ~100k-state specs are exercised only when
``REPRO_CHECKER_FULL=1`` (the CI checker-smoke job sets it), mirroring
``test_parallel_diff``.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.prof import PHASES, PROF_SCHEMA, CheckProfiler, dump_prof
from repro.obs.validate import validate_prof_artifact
from repro.spec import ModelChecker
from repro.spec.specs import SPEC_SOURCES

LARGE = ("controller-large", "drain-app-full-core")
SMALL = [name for name in SPEC_SOURCES if name not in LARGE]

_FULL = os.environ.get("REPRO_CHECKER_FULL") == "1"

_plain_serial_cache = {}
_plain_parallel_cache = {}


def _serial(name, **kwargs):
    return ModelChecker(SPEC_SOURCES[name].build(),
                        stop_at_first_violation=False, **kwargs).run()


def _parallel(name, **kwargs):
    source = SPEC_SOURCES[name]
    return ModelChecker(source.build(), workers=2, spec_source=source,
                        stop_at_first_violation=False, **kwargs).run()


def _plain_serial(name):
    if name not in _plain_serial_cache:
        _plain_serial_cache[name] = _serial(name).to_json()
    return _plain_serial_cache[name]


def _plain_parallel(name):
    if name not in _plain_parallel_cache:
        _plain_parallel_cache[name] = _parallel(name).to_json()
    return _plain_parallel_cache[name]


@pytest.mark.parametrize("name", SMALL)
def test_profiled_serial_byte_identical(name):
    profiled = _serial(name, profile=True)
    assert profiled.to_json() == _plain_serial(name)
    doc = profiled.stats["profile"]
    assert validate_prof_artifact(doc) == []
    assert doc["engine"] == "serial"


@pytest.mark.parametrize("name", SMALL)
def test_profiled_parallel_byte_identical(name):
    profiled = _parallel(name, profile=True)
    assert profiled.to_json() == _plain_parallel(name)
    doc = profiled.stats["profile"]
    assert validate_prof_artifact(doc) == []
    assert doc["engine"] == "parallel"
    assert doc["workers"] == 2


@pytest.mark.skipif(not _FULL, reason="set REPRO_CHECKER_FULL=1 "
                    "(CI checker-smoke) for the ~100k-state specs")
@pytest.mark.parametrize("name", LARGE)
def test_profiled_byte_identical_large(name):
    profiled = _serial(name, profile=True)
    assert profiled.to_json() == _plain_serial(name)
    assert validate_prof_artifact(profiled.stats["profile"],
                                  min_coverage=0.9) == []
    parallel = _parallel(name, profile=True)
    assert parallel.to_json() == _plain_parallel(name)
    assert validate_prof_artifact(parallel.stats["profile"]) == []


def test_profiled_serial_fp_byte_identical():
    plain = _serial("controller", fingerprint_mode="incremental")
    profiled = _serial("controller", fingerprint_mode="incremental",
                       profile=True)
    assert profiled.to_json() == plain.to_json()
    doc = profiled.stats["profile"]
    assert validate_prof_artifact(doc) == []
    assert doc["engine"] == "serial-fp"
    assert doc["phases"]["fingerprint"]["calls"] > 0


@pytest.mark.parametrize("name", SMALL)
def test_profiled_compiled_byte_identical(name):
    plain = _serial(name, compiled=True)
    profiled = _serial(name, compiled=True, profile=True)
    assert plain.to_json() == _plain_serial(name)
    assert profiled.to_json() == _plain_serial(name)
    doc = profiled.stats["profile"]
    assert validate_prof_artifact(doc) == []
    assert doc["engine"] == "compiled"
    assert doc["phases"]["compile"]["calls"] > 0


def test_coverage_and_hot_phases_on_controller():
    """The phase breakdown explains most of the exploration wall time."""
    doc = _serial("controller", profile=True).stats["profile"]
    # The CI gate on controller-large requires >= 0.9; leave headroom
    # here for loaded test machines.
    assert doc["coverage"] >= 0.85
    hot = sorted(doc["phases"], key=lambda p: -doc["phases"][p]["wall_s"])
    assert hot[0] == "successor_gen"
    assert doc["labels"], "per-label attribution must be populated"


def _strip_timing(doc):
    """Everything in a profile artifact except the wall-clock readings."""
    return {
        "schema": doc["schema"],
        "spec": doc["spec"],
        "engine": doc["engine"],
        "workers": doc["workers"],
        "options": doc["options"],
        "phases": {name: entry["calls"]
                   for name, entry in doc["phases"].items()},
        "labels": {name: (entry["expansions"], entry["successors"])
                   for name, entry in doc["labels"].items()},
        "counts": doc["counts"],
    }


def test_double_run_determinism_of_non_timing_fields():
    first = _serial("controller", profile=True).stats["profile"]
    second = _serial("controller", profile=True).stats["profile"]
    assert _strip_timing(first) == _strip_timing(second)
    # Phase call counts cover the whole taxonomy.
    assert set(first["phases"]) == set(PHASES)


def test_double_run_determinism_of_non_timing_fields_compiled():
    first = _serial("controller", compiled=True, profile=True)
    second = _serial("controller", compiled=True, profile=True)
    assert (_strip_timing(first.stats["profile"])
            == _strip_timing(second.stats["profile"]))
    assert first.stats["compiled"] == second.stats["compiled"]
    # The compiled engine attributes expansions to the same labels, the
    # same number of times, as the interpreter it replaces.
    interpreted = _serial("controller", profile=True).stats["profile"]
    assert (_strip_timing(first.stats["profile"])["labels"]
            == _strip_timing(interpreted)["labels"])


#: The three configurations BENCHMARK.json measures, by workload name.
BENCHED = {
    "check-interp": {},
    "check-incfp": {"fingerprint_mode": "incremental"},
    "check-compiled": {"compiled": True},
}
#: Phases each benchmarked engine must report work in (calls > 0); the
#: rest of the taxonomy must stay at zero for it.
ACTIVE_PHASES = {
    "check-interp": {"successor_gen", "por_ample", "canonicalize", "dedup",
                     "property_eval", "liveness"},
    "check-incfp": {"successor_gen", "por_ample", "canonicalize",
                    "fingerprint", "dedup", "property_eval", "liveness"},
    "check-compiled": {"successor_gen", "compile", "dedup", "property_eval",
                       "liveness"},
}


@pytest.mark.parametrize("workload", BENCHED)
def test_unprofiled_run_never_enters_the_profiler(workload, monkeypatch):
    """``profile=False`` builds no :class:`CheckProfiler`, so the
    disabled path costs ``is not None`` tests and nothing else — the
    guarantee the retired bare-vs-instrumented timing gate estimated."""
    def entered(*_args, **_kwargs):
        raise AssertionError("profiler code ran in an unprofiled check")

    for method in ("__init__", "mark", "lap", "lap_label", "add",
                   "add_label", "artifact"):
        monkeypatch.setattr(CheckProfiler, method, entered)
    result = _serial("controller", **BENCHED[workload])
    assert "profile" not in result.stats


@pytest.mark.parametrize("workload", BENCHED)
def test_stats_contract_the_benchmark_reads(workload):
    """Exactly what ``bench/run.py::checker_layers`` dereferences from a
    profiled ``stop_at_first_violation=False`` run of each benchmarked
    configuration (``bench/`` is a fixed instrument: a key renamed here
    would only fail there, outside tier-1)."""
    stats = _serial("controller", profile=True, **BENCHED[workload]).stats
    profile = stats["profile"]
    assert isinstance(profile["coverage"], float) and profile["coverage"] > 0
    for phase in ("successor_gen", "por_ample", "canonicalize", "fingerprint",
                  "dedup", "property_eval", "liveness", "compile"):
        entry = profile["phases"][phase]
        assert isinstance(entry["wall_s"], float) and entry["wall_s"] >= 0
        assert isinstance(entry["calls"], int)
        assert (entry["calls"] > 0) == (phase in ACTIVE_PHASES[workload]), phase
    if "fingerprint_mode" in BENCHED[workload]:
        assert isinstance(stats["fp_slots_digested"], int)
        assert stats["fp_slots_digested"] > 0
    else:
        assert "fp_slots_digested" not in stats
    if BENCHED[workload].get("compiled"):
        compiled = stats["compiled"]
        # bench/run.py reads labels_codegen / labels_interp through
        # .get(..., 0); the engine no longer has those tiers to report.
        for key in ("probes", "label_fills", "labels_memo"):
            assert isinstance(compiled[key], int), key
        assert 0 < compiled["label_fills"] <= compiled["probes"]
        assert compiled["labels_memo"] == compiled["labels"] > 0
    else:
        assert "compiled" not in stats


def test_artifact_schema_roundtrip(tmp_path):
    doc = _serial("te-app", profile=True).stats["profile"]
    path = tmp_path / "te-app.prof.json"
    dump_prof(doc, str(path))
    loaded = json.loads(path.read_text())
    assert loaded == doc
    assert loaded["schema"] == PROF_SCHEMA
    assert validate_prof_artifact(loaded) == []


def test_trace_out_worker_spans_nest_per_round(tmp_path):
    """End-to-end in a spawned interpreter: `check --trace-out` emits
    one track per worker whose explore/serialize/relay/idle spans nest
    inside that worker's per-round span."""
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "te-app", "--workers", "2",
         "--trace-out", str(trace)],
        capture_output=True, text=True, env=env, cwd=os.path.join(
            os.path.dirname(__file__), "..", ".."))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    tracks = {e["tid"]: e["args"]["name"] for e in events
              if e.get("ph") == "M" and e["name"] == "thread_name"}
    worker_tids = {tid for tid, name in tracks.items()
                   if name.startswith("worker")}
    assert len(worker_tids) == 2
    for tid in worker_tids:
        spans = [e for e in events
                 if e.get("ph") == "X" and e["tid"] == tid]
        rounds = {e["args"]["round"]: e for e in spans
                  if e["name"].startswith("round ")}
        assert rounds, "each worker track carries per-round spans"
        inner = [e for e in spans if not e["name"].startswith("round ")]
        assert {"relay", "explore", "serialize", "idle"} <= {
            e["name"] for e in inner}
        for e in inner:
            outer = rounds[e["args"]["round"]]
            assert e["ts"] >= outer["ts"] - 1e-3
            assert e["ts"] + e["dur"] <= outer["ts"] + outer["dur"] + 1e-3
    counters = {e["name"] for e in events if e.get("ph") == "C"}
    assert {"frontier depth", "dedup"} <= counters

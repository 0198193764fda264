"""Tests of the benchmark itself, at smoke sizes.

Run with ``python -m pytest bench/tests -q`` from the repo root (the root
``conftest.py`` puts ``src/`` on the path; ``testpaths`` keeps this
directory out of the tier-1 suite).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.obs.validate import validate_chrome_trace  # noqa: E402

SPEC = bench.benchmark_spec()
NAMES = list(workloads.WORKLOADS)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def smoke(name, seed=0, trace=False, expected=None):
    return bench.run_workload(name, seed, 0.0, trace, "smoke",
                              {} if expected is None else expected)


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in SPEC["workloads"])
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    every = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [item["name"] for item in every]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert all(UNIT_RE.fullmatch(m["unit"]) and m["better"] in
               ("higher", "lower")
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_printed_with_its_unit(name, trace, capsys):
    code = bench.main(["--workload", name, "--smoke", "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    printed = {}
    for line in lines[:-1]:
        match = re.fullmatch(r"(\S+) = (\S+) (\S+)", line)
        if match:
            assert NAME_RE.fullmatch(match.group(1))
            float(match.group(2))
            printed[match.group(1)] = match.group(3)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in declared:
        assert printed[metric["name"]] == metric["unit"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
    if not trace:
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_outcome_and_program_untouched(name):
    patched = [(owner, attr, owner.__dict__[attr])
               for owner, attr, _ in tracing._METHODS]
    patched += [(module, attr, getattr(module, attr))
                for module, attr, _ in tracing._FUNCTIONS]
    patched += [(tracing.SimSwitch, "is_healthy",
                 tracing.SimSwitch.__dict__["is_healthy"]),
                (tracing.Environment, "run",
                 tracing.Environment.__dict__["run"]),
                (tracing.Nib, "bulk_update",
                 tracing.Nib.__dict__["bulk_update"]),
                (bench.workloads.common, "dag_installed_in_dataplane",
                 bench.workloads.common.dag_installed_in_dataplane)]
    workload = workloads.WORKLOADS[name]("smoke")
    plain = bench.timed_rep(workload, 0)
    with tracing.Instrumentation() as instrumentation:
        assert tracing.NibTable.__dict__["put"] is not patched[0][2]
        traced = bench.timed_rep(workload, 0, instrumentation)
    # Identical simulated statistics / CheckResult.to_json().
    assert traced.outcome.signature == plain.outcome.signature
    assert traced.outcome.stats == plain.outcome.stats
    # Wrappers fully removed.
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert tracing.obs.default_tracer() is None


def test_traced_run_separates_the_layers_and_writes_a_valid_trace():
    metrics = {m: v["value"] for m, v in
               smoke("sim-install-pr", trace=True)["metrics"].items()}
    assert metrics["baselines.reconcile_cycles"] >= 1
    assert metrics["baselines.reconciler_s"] > 0
    assert metrics["nib.bulk_updates"] >= 1
    assert metrics["core.view_matches_calls"] == 0
    assert metrics["compile.probes"] == 0
    assert 0 < metrics["harness.attributed_frac"] <= 1
    assert metrics["sim.probe_events_per_s"] > 0
    trace = bench.load_json(
        os.path.join(bench.OUT_DIR, "trace-sim-install-pr.json"))
    assert validate_chrome_trace(trace) == []
    spans = {event["name"] for event in trace["traceEvents"]}
    assert {"setup", "rep", "dag 0", "reconcile cycle 1"} <= spans
    assert any(row["name"] == "nib.write" and row["calls"] > 0
               for row in trace["otherData"]["aggregated_spans"])
    assert trace["otherData"]["unattributed_processes"] == []

    zenith = smoke("sim-install-zenith", trace=True)["metrics"]
    assert zenith["baselines.reconciler_s"]["value"] == 0
    incfp = smoke("check-incfp", trace=True)["metrics"]
    assert incfp["fingerprint.fingerprint_calls"]["value"] > 0
    assert incfp["compile.probes"]["value"] == 0
    compiled = smoke("check-compiled", trace=True)["metrics"]
    assert compiled["compile.probes"]["value"] > 0
    assert compiled["fingerprint.fingerprint_calls"]["value"] == 0


def test_seed_changes_sim_inputs_and_leaves_check_untouched():
    for name, cls in workloads.WORKLOADS.items():
        workload = cls("smoke")
        first, second = (workload.run(workload.setup(seed)).signature
                         for seed in (0, 1))
        assert (first != second) == workload.seeded, name
        assert workload.run(workload.setup(0)).signature == first


def test_short_deadline_fails_operations_but_a_wrong_pin_only_flips_match(
        monkeypatch):
    good = smoke("sim-install-zenith", trace=True)
    assert good["failed"] == 0
    assert good["matches"]["harness.stats_match"] == 1

    pin = {"sim-install-zenith": {"0": good["stats"]}}
    assert smoke("sim-install-zenith", trace=True,
                 expected=pin)["matches"]["harness.stats_match"] == 1
    pin["sim-install-zenith"]["0"] = {**good["stats"], "dags": 1}
    drifted = smoke("sim-install-zenith", trace=True, expected=pin)
    assert drifted["metrics"]["harness.stats_match"]["value"] == 0
    assert drifted["metrics"]["checker.counts_match"]["value"] == 1
    assert drifted["failed"] == 0 and drifted["correct"] is True

    wrong = {"check-interp": {**smoke("check-interp")["stats"], "states": 1}}
    check = smoke("check-interp", trace=True, expected=wrong)
    assert check["metrics"]["checker.counts_match"]["value"] == 0
    assert check["metrics"]["harness.stats_match"]["value"] == 1
    assert check["failed"] == 0

    # Shorter than one flow-mod, so no DAG can be certified in time.  (A
    # literal 0 never lets the simulated clock advance.)
    monkeypatch.setattr(workloads.SimInstallZenith, "dag_deadline", 0.1)
    late = smoke("sim-install-zenith")
    assert late["failed"] > 0 and late["correct"] is False
    assert late["failed"] <= late["attempted"]


def test_replica_disagreement_counts_every_operation_as_failed():
    workload = workloads.WORKLOADS["chaos-search"]("smoke")
    reps = [bench.timed_rep(workload, 0) for _ in range(2)]
    assert bench.tally(reps) == (2 * reps[0].outcome.attempted, 0)
    reps[1].outcome.signature = "different"
    assert bench.tally(reps) == (2 * reps[0].outcome.attempted,
                                 reps[0].outcome.attempted)


def _result_file(path, wall, failed=0, reps=None):
    metrics = {"setup_s": 1.0, "wall_s": wall, "cpu_s": wall,
               "peak_rss_mb": 100.0}
    reps = reps or [wall, wall, wall]
    document = {"provenance": {}, "workloads": [{
        "workload": "check-interp", "attempted": 3, "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        "reps": [{"setup_s": 0.5, "wall_s": r, "cpu_s": r} for r in reps]}]}
    path.write_text(json.dumps(document))
    return str(path)


def test_compare_flags_regressions_beyond_the_bound(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json", 10.0)
    same = _result_file(tmp_path / "b.json", 10.4)
    slow = _result_file(tmp_path / "c.json", 13.0)
    fast = _result_file(tmp_path / "d.json", 7.0)
    failing = _result_file(tmp_path / "e.json", 10.0, failed=1)
    noisy = _result_file(tmp_path / "f.json", 13.0, reps=[9.0, 13.0, 17.0])
    assert bench.main(["--compare", base, same]) == 0
    assert bench.main(["--compare", same, base]) == 0
    assert bench.main(["--compare", base, fast]) == 0
    assert "better" in capsys.readouterr().out
    assert bench.main(["--compare", base, slow]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert bench.main(["--compare", base, failing]) == 1
    assert bench.main(["--compare", base, noisy]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_out_file_carries_provenance(tmp_path, capsys):
    out = tmp_path / "result.json"
    assert bench.main(["--workload", "check-compiled", "--smoke",
                       "--seconds", "0", "--seed", "7",
                       "--out", str(out)]) == 0
    capsys.readouterr()
    document = json.loads(out.read_text())
    provenance = document["provenance"]
    assert provenance["host"]["cpus"] >= 1
    assert {"python", "platform"} <= set(provenance["host"])
    assert len(provenance["src_repro_sha256"]) == 64
    assert provenance["seed"] == 7 and provenance["size"] == "smoke"
    assert provenance["min_reps"] == 3
    assert isinstance(provenance["noisy"], bool)
    assert "git_rev" in provenance and "load_1min_at_start" in provenance
    (result,) = document["workloads"]
    assert len(result["reps"]) >= 3 and result["seeded"] is False


def test_without_the_program_it_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check-interp",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert child.stdout == ""

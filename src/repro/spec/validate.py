"""Artifact schema validation (CI gate for ``BENCH_checker.json``).

Usage::

    python -m repro.spec.validate BENCH_checker.json

Checks structure, types and cross-references for the ``repro.spec/v1``
checker-scaling artifact emitted by ``benchmarks/checker_scale.py``:
every benched spec is a registered bundled spec, the parallel run
matched the serial state count, and the speedup gate section is
coherent (enforced only on hosts with enough cores, pass/fail recorded
whenever enforced).  Exits non-zero with one line per problem,
mirroring ``repro.campaign.validate``.
"""

from __future__ import annotations

import json
import sys
from typing import Any

__all__ = ["ARTIFACT_SCHEMA", "validate_artifact", "main"]

ARTIFACT_SCHEMA = "repro.spec/v1"

_RUN_FIELDS = (
    ("ok", bool),
    ("states", int),
    ("transitions", int),
    ("diameter", int),
    ("elapsed_s", (int, float)),
    ("states_per_s", (int, float)),
)
_PARALLEL_EXTRA = (
    ("workers", int),
    ("spawn_s", (int, float)),
    ("explore_s", (int, float)),
    ("speedup", (int, float)),
    ("store_bytes", int),
    ("match", bool),
)
_FP_EXTRA = (("match", bool),)
_FP_INCREMENTAL_EXTRA = _FP_EXTRA + (("speedup_vs_full", (int, float)),)
_COMPILED_EXTRA = (
    ("interpreted_elapsed_s", (int, float)),
    ("repeat", int),
    ("speedup_vs_interpreted", (int, float)),
    ("coverage", (int, float)),
    ("labels_codegen", int),
    ("labels_memo", int),
    ("labels_interp", int),
    ("match", bool),
    ("byte_identical", bool),
)


def _check_run(run: Any, where: str, fields, problems: list[str]) -> None:
    if not isinstance(run, dict):
        problems.append(f"{where}: must be an object")
        return
    for key, kind in fields:
        value = run.get(key)
        if not isinstance(value, kind) or isinstance(value, bool) != (
                kind is bool):
            want = kind.__name__ if isinstance(kind, type) else "number"
            problems.append(f"{where}.{key} must be {want}")


def validate_artifact(artifact: Any) -> list[str]:
    """Schema problems found ([] when the artifact is valid)."""
    problems: list[str] = []
    if not isinstance(artifact, dict):
        return [f"artifact must be an object, got {type(artifact).__name__}"]
    if artifact.get("schema") != ARTIFACT_SCHEMA:
        problems.append(
            f"schema is {artifact.get('schema')!r}, want {ARTIFACT_SCHEMA!r}")
    host = artifact.get("host")
    if not isinstance(host, dict):
        problems.append("missing host section")
        host = {}
    if not isinstance(host.get("cpus"), int) or host.get("cpus", 0) < 1:
        problems.append("host.cpus must be a positive int")
    if not isinstance(host.get("python"), str):
        problems.append("host.python must be a string")

    try:
        from .specs import SPEC_SOURCES
    except ImportError:  # pragma: no cover
        SPEC_SOURCES = None
    specs = artifact.get("specs")
    if not isinstance(specs, dict) or not specs:
        problems.append("specs section must be a non-empty object")
        specs = {}
    for name, entry in specs.items():
        where = f"specs.{name}"
        if SPEC_SOURCES is not None and name not in SPEC_SOURCES:
            problems.append(f"{where}: not a bundled spec")
        if not isinstance(entry, dict):
            problems.append(f"{where}: must be an object")
            continue
        _check_run(entry.get("serial"), f"{where}.serial",
                   _RUN_FIELDS, problems)
        _check_run(entry.get("parallel"), f"{where}.parallel",
                   _RUN_FIELDS + _PARALLEL_EXTRA, problems)
        serial, parallel = entry.get("serial"), entry.get("parallel")
        if isinstance(serial, dict) and isinstance(parallel, dict):
            if parallel.get("match") is not True:
                problems.append(
                    f"{where}.parallel.match must be true (parallel and "
                    "serial disagreed on the state space)")
            for key in ("states", "transitions", "diameter", "ok"):
                if (key in serial and key in parallel
                        and serial[key] != parallel[key]):
                    problems.append(
                        f"{where}: serial.{key}={serial[key]!r} != "
                        f"parallel.{key}={parallel[key]!r}")
        serial_fp = entry.get("serial_fp")
        if not isinstance(serial_fp, dict):
            problems.append(f"{where}.serial_fp section must be an object")
            serial_fp = {}
        _check_run(serial_fp.get("full"), f"{where}.serial_fp.full",
                   _RUN_FIELDS + _FP_EXTRA, problems)
        _check_run(serial_fp.get("incremental"),
                   f"{where}.serial_fp.incremental",
                   _RUN_FIELDS + _FP_INCREMENTAL_EXTRA, problems)
        for mode in ("full", "incremental"):
            run = serial_fp.get(mode)
            if isinstance(run, dict) and run.get("match") is not True:
                problems.append(
                    f"{where}.serial_fp.{mode}.match must be true "
                    "(fingerprint-dedup run disagreed with the default "
                    "serial engine)")
        compiled = entry.get("compiled")
        _check_run(compiled, f"{where}.compiled",
                   _RUN_FIELDS + _COMPILED_EXTRA, problems)
        if isinstance(compiled, dict):
            if compiled.get("match") is not True:
                problems.append(
                    f"{where}.compiled.match must be true (compiled run "
                    "disagreed with the serial engine on the state space)")
            if compiled.get("byte_identical") is not True:
                problems.append(
                    f"{where}.compiled.byte_identical must be true "
                    "(compiled canonical output must not differ from the "
                    "interpreted engine by a single byte)")
        profile = entry.get("profile")
        if profile is None:
            problems.append(f"{where}.profile section missing (run a "
                            "profiled serial pass)")
        else:
            from ..obs.validate import validate_prof_artifact

            problems.extend(f"{where}.profile: {problem}"
                            for problem in validate_prof_artifact(profile))
        if entry.get("profile_match") is not True:
            problems.append(f"{where}.profile_match must be true (profiled "
                            "run disagreed with the unprofiled serial "
                            "engine)")

    bound = artifact.get("collision_bound")
    if not isinstance(bound, dict):
        problems.append("missing collision_bound section")
        bound = {}
    if bound.get("bits") != 64:
        problems.append("collision_bound.bits must be 64")
    if not isinstance(bound.get("p_any_collision"), float):
        problems.append("collision_bound.p_any_collision must be a float")

    gate = artifact.get("gate")
    if not isinstance(gate, dict):
        problems.append("missing gate section")
        gate = {}
    if not isinstance(gate.get("min_speedup"), (int, float)):
        problems.append("gate.min_speedup must be a number")
    enforced = gate.get("enforced")
    if not isinstance(enforced, bool):
        problems.append("gate.enforced must be a bool")
    if isinstance(gate.get("spec"), str) and specs \
            and gate["spec"] not in specs:
        problems.append(f"gate.spec {gate['spec']!r} not among benched specs")
    if enforced is True and not isinstance(gate.get("passed"), bool):
        problems.append("gate.passed must be a bool when the gate is "
                        "enforced")
    if enforced is False and gate.get("passed") is not None:
        problems.append("gate.passed must be null when the gate is not "
                        "enforced (too few cores to measure a speedup)")

    fp_gate = artifact.get("fp_gate")
    if not isinstance(fp_gate, dict):
        problems.append("missing fp_gate section")
        fp_gate = {}
    if not isinstance(fp_gate.get("min_speedup"), (int, float)):
        problems.append("fp_gate.min_speedup must be a number")
    if fp_gate.get("enforced") is not True:
        problems.append("fp_gate.enforced must be true (fingerprint-mode "
                        "runs are serial; one core measures them)")
    if not isinstance(fp_gate.get("passed"), bool):
        problems.append("fp_gate.passed must be a bool")
    if isinstance(fp_gate.get("spec"), str) and specs \
            and fp_gate["spec"] not in specs:
        problems.append(
            f"fp_gate.spec {fp_gate['spec']!r} not among benched specs")

    compiled_gate = artifact.get("compiled_gate")
    if not isinstance(compiled_gate, dict):
        problems.append("missing compiled_gate section")
        compiled_gate = {}
    for key in ("min_speedup", "target_speedup", "speedup"):
        if not isinstance(compiled_gate.get(key), (int, float)) \
                or isinstance(compiled_gate.get(key), bool):
            problems.append(f"compiled_gate.{key} must be a number")
    if compiled_gate.get("enforced") is not True:
        problems.append("compiled_gate.enforced must be true (compiled "
                        "and interpreted runs are both serial; one core "
                        "measures the ratio)")
    for key in ("passed", "target_met"):
        if not isinstance(compiled_gate.get(key), bool):
            problems.append(f"compiled_gate.{key} must be a bool")
    if (isinstance(compiled_gate.get("speedup"), (int, float))
            and isinstance(compiled_gate.get("target_speedup"), (int, float))
            and isinstance(compiled_gate.get("target_met"), bool)
            and compiled_gate["target_met"] != (
                compiled_gate["speedup"]
                >= compiled_gate["target_speedup"])):
        problems.append("compiled_gate.target_met is inconsistent with "
                        "its measured speedup and target")
    if isinstance(compiled_gate.get("spec"), str) and specs \
            and compiled_gate["spec"] not in specs:
        problems.append(f"compiled_gate.spec {compiled_gate['spec']!r} "
                        "not among benched specs")

    prof_gate = artifact.get("prof_gate")
    if not isinstance(prof_gate, dict):
        problems.append("missing prof_gate section")
        prof_gate = {}
    # Artifacts written before the bare-vs-instrumented timing gate was
    # retired also carry max_overhead/overhead; they are not judged.
    for key in ("min_coverage", "coverage"):
        if not isinstance(prof_gate.get(key), (int, float)) \
                or isinstance(prof_gate.get(key), bool):
            problems.append(f"prof_gate.{key} must be a number")
    if prof_gate.get("enforced") is not True:
        problems.append("prof_gate.enforced must be true (profiled runs "
                        "are serial; one core measures them)")
    if not isinstance(prof_gate.get("passed"), bool):
        problems.append("prof_gate.passed must be a bool")
    elif (isinstance(prof_gate.get("coverage"), (int, float))
          and isinstance(prof_gate.get("min_coverage"), (int, float))
          and prof_gate["passed"] != (
              prof_gate["coverage"] >= prof_gate["min_coverage"])):
        problems.append("prof_gate.passed is inconsistent with its "
                        "coverage threshold")
    if isinstance(prof_gate.get("spec"), str) and specs \
            and prof_gate["spec"] not in specs:
        problems.append(
            f"prof_gate.spec {prof_gate['spec']!r} not among benched specs")
    return problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.spec.validate <artifact.json>",
              file=sys.stderr)
        return 2
    try:
        artifact = json.loads(open(argv[0]).read())
    except (OSError, ValueError) as exc:
        print(f"cannot read artifact: {exc}", file=sys.stderr)
        return 1
    problems = validate_artifact(artifact)
    for problem in problems:
        print(f"INVALID: {problem}")
    if not problems:
        specs = artifact.get("specs", {})
        gate = artifact.get("gate", {})
        fp_gate = artifact.get("fp_gate", {})
        prof_gate = artifact.get("prof_gate", {})
        state = ("PASSED" if gate.get("passed")
                 else "failed" if gate.get("enforced")
                 else "not enforced (host too small)")
        fp_state = "PASSED" if fp_gate.get("passed") else "failed"
        prof_state = "PASSED" if prof_gate.get("passed") else "failed"
        compiled_gate = artifact.get("compiled_gate", {})
        compiled_state = "PASSED" if compiled_gate.get("passed") else "failed"
        target = (f" ({compiled_gate.get('speedup')}x vs "
                  f"{compiled_gate.get('target_speedup')}x target"
                  f"{'' if compiled_gate.get('target_met') else ' — unmet'})")
        print(f"ok: {len(specs)} specs benched, "
              f">= {gate.get('min_speedup')}x gate {state}, "
              f">= {fp_gate.get('min_speedup')}x fp gate {fp_state}, "
              f">= {compiled_gate.get('min_speedup')}x compiled gate "
              f"{compiled_state}{target}, "
              f">= {prof_gate.get('min_coverage')} coverage prof gate "
              f"{prof_state}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

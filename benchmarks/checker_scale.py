"""Benchmark: serial vs parallel model checking (``BENCH_checker.json``).

Runs each benched spec six ways — in-process serial, ``--workers N``
parallel, the two serial fingerprint-dedup modes (``full`` and
``incremental``), the *compiled-step* engine (measured interleaved
against interpreted, min-of-N) and a *profiled* serial run — and emits the
``repro.spec/v1`` artifact recording state counts, states/sec (on
exploration time, excluding the one-off worker spawn cost, which is
reported separately), the speedups, and each spec's ``repro.prof/v1``
phase/label breakdown.  The parallel ``>= min-speedup`` gate is only
*enforced* on hosts with at least ``--gate-cpus`` cores: on a 1-core
CI runner the workers timeshare one core and a speedup is physically
unmeasurable, so the artifact records ``gate.enforced = false`` and
the exit code stays 0.  The incremental-fingerprint gate (``fp_gate``,
``>= --min-fp-speedup`` incremental vs full re-encoding, judged on the
largest benched spec) is always enforced — both runs are serial, so
one core measures it fine.  The profiling gate (``prof_gate``) is also
always enforced: the largest benched spec's phase breakdown must cover
``>= --min-coverage`` of exploration wall time.  (What an unprofiled run
pays for the hooks is pinned structurally, not timed: tier-1 asserts a
``profile=False`` run never enters :class:`CheckProfiler`.)

Usage::

    PYTHONPATH=src python benchmarks/checker_scale.py --out BENCH_checker.json
"""

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _bench_serial(source):
    from repro.spec import ModelChecker

    checker = ModelChecker(source.build(), stop_at_first_violation=False)
    start = time.perf_counter()
    result = checker.run()
    elapsed = time.perf_counter() - start
    return result, {
        "ok": result.ok,
        "states": result.distinct_states,
        "transitions": result.transitions,
        "diameter": result.diameter,
        "elapsed_s": round(elapsed, 3),
        "states_per_s": round(result.distinct_states / elapsed, 1)
        if elapsed > 0 else 0.0,
    }


def _match(result, serial_result):
    return (result.ok == serial_result.ok
            and result.distinct_states == serial_result.distinct_states
            and result.transitions == serial_result.transitions
            and result.diameter == serial_result.diameter)


def _bench_serial_fp(source, mode, serial_result):
    from repro.spec import ModelChecker

    checker = ModelChecker(source.build(), stop_at_first_violation=False,
                           fingerprint_mode=mode)
    start = time.perf_counter()
    result = checker.run()
    elapsed = time.perf_counter() - start
    return {
        "ok": result.ok,
        "states": result.distinct_states,
        "transitions": result.transitions,
        "diameter": result.diameter,
        "elapsed_s": round(elapsed, 3),
        "states_per_s": round(result.distinct_states / elapsed, 1)
        if elapsed > 0 else 0.0,
        "match": _match(result, serial_result),
    }


def _bench_parallel(source, workers, serial_result):
    from repro.spec import ModelChecker

    checker = ModelChecker(source.build(), workers=workers,
                           spec_source=source,
                           stop_at_first_violation=False)
    result = checker.run()
    stats = result.stats
    match = _match(result, serial_result)
    return {
        "ok": result.ok,
        "states": result.distinct_states,
        "transitions": result.transitions,
        "diameter": result.diameter,
        "workers": workers,
        "elapsed_s": round(result.elapsed, 3),
        "spawn_s": stats["spawn_s"],
        "explore_s": stats["explore_s"],
        "states_per_s": stats.get("states_per_s", 0.0),
        "store_bytes": stats.get("store_bytes", 0),
        "match": match,
    }


def _bench_compiled(source, serial_result, repeat):
    """Compiled vs interpreted serial, interleaved min-of-N.

    Alternating the two engines within each repetition (instead of N
    compiled runs then N interpreted) means slow drift — thermal,
    page-cache, GC arena growth — lands on both sides equally; the
    minimum of each side is the least-noise estimate.  The compiled
    run's canonical output must match the interpreted run *byte for
    byte*, not just on counts — that is the engine's whole contract.
    """
    from repro.spec import ModelChecker

    best = {"compiled": None, "interpreted": None}
    for _ in range(repeat):
        for mode in ("compiled", "interpreted"):
            checker = ModelChecker(source.build(),
                                   stop_at_first_violation=False,
                                   compiled=(mode == "compiled"))
            start = time.perf_counter()
            result = checker.run()
            elapsed = time.perf_counter() - start
            if best[mode] is None or elapsed < best[mode][0]:
                best[mode] = (elapsed, result)
    compiled_s, compiled_result = best["compiled"]
    interp_s, interp_result = best["interpreted"]
    coverage = compiled_result.stats["compiled"]
    return {
        "ok": compiled_result.ok,
        "states": compiled_result.distinct_states,
        "transitions": compiled_result.transitions,
        "diameter": compiled_result.diameter,
        "elapsed_s": round(compiled_s, 3),
        "states_per_s": round(compiled_result.distinct_states / compiled_s, 1)
        if compiled_s > 0 else 0.0,
        "interpreted_elapsed_s": round(interp_s, 3),
        "repeat": repeat,
        "speedup_vs_interpreted": round(interp_s / compiled_s, 3)
        if compiled_s > 0 else 0.0,
        "coverage": coverage["covered_fraction"],
        "labels_codegen": coverage["labels_codegen"],
        "labels_memo": coverage["labels_memo"],
        "labels_interp": coverage["labels_interp"],
        "match": _match(compiled_result, serial_result),
        "byte_identical":
            compiled_result.to_json() == interp_result.to_json(),
    }


def _bench_profiled(source, serial_result):
    """One profiled serial run; returns its repro.prof/v1 artifact.

    The profile rides in ``stats`` (excluded from ``to_json``), so the
    canonical outcome is still comparable against the plain serial run
    — ``match`` below is the same cross-engine check the other modes
    get.
    """
    from repro.spec import ModelChecker

    checker = ModelChecker(source.build(), stop_at_first_violation=False,
                           profile=True)
    result = checker.run()
    doc = result.stats["profile"]
    return doc, _match(result, serial_result)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="serial vs parallel checker scaling benchmark")
    parser.add_argument("--out", default="BENCH_checker.json")
    parser.add_argument("--specs",
                        default="controller-large,drain-app-full-core",
                        help="comma-separated bundled spec names (default: "
                             "the two largest bundled state spaces)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--gate-cpus", type=int, default=4,
                        help="enforce the speedup gate only when the host "
                             "has at least this many cores")
    parser.add_argument("--min-compiled-speedup", type=float, default=4.0,
                        help="required compiled-vs-interpreted speedup on "
                             "the compiled-gate spec (always enforced: "
                             "both runs are serial, one core measures it)")
    parser.add_argument("--compiled-gate-spec", default="controller-large",
                        help="spec the compiled gate judges (the ROADMAP "
                             "speed target is phrased against this spec); "
                             "falls back to the largest benched spec when "
                             "absent from --specs")
    parser.add_argument("--target-compiled-speedup", type=float,
                        default=10.0,
                        help="the ROADMAP aspiration, recorded alongside "
                             "the measurement (not enforced; the artifact "
                             "says honestly whether it was reached)")
    parser.add_argument("--compiled-repeat", type=int, default=3,
                        help="interleaved runs per engine for the "
                             "compiled-vs-interpreted measurement "
                             "(minimum of each is compared)")
    parser.add_argument("--min-fp-speedup", type=float, default=1.5,
                        help="required incremental-vs-full fingerprinting "
                             "speedup on the largest benched spec "
                             "(always enforced: both runs are serial)")
    parser.add_argument("--min-coverage", type=float, default=0.9,
                        help="required phase-breakdown coverage of "
                             "exploration wall time on the largest "
                             "benched spec")
    args = parser.parse_args(argv)

    from repro.spec.specs import SPEC_SOURCES
    from repro.spec.validate import ARTIFACT_SCHEMA, validate_artifact

    names = [name.strip() for name in args.specs.split(",") if name.strip()]
    for name in names:
        if name not in SPEC_SOURCES:
            print(f"unknown spec {name!r}; try: "
                  f"{', '.join(sorted(SPEC_SOURCES))}", file=sys.stderr)
            return 2

    cpus = os.cpu_count() or 1
    specs = {}
    max_states = 0
    for name in names:
        source = SPEC_SOURCES[name]
        print(f"{name}: serial ...", flush=True)
        serial_result, serial = _bench_serial(source)
        print(f"{name}: serial {serial['states']} states "
              f"@ {serial['states_per_s']}/s; "
              f"{args.workers} workers ...", flush=True)
        parallel = _bench_parallel(source, args.workers, serial_result)
        parallel["speedup"] = round(
            parallel["states_per_s"] / serial["states_per_s"], 3) \
            if serial["states_per_s"] else 0.0
        print(f"{name}: parallel {parallel['states']} states "
              f"@ {parallel['states_per_s']}/s  "
              f"speedup={parallel['speedup']}x  match={parallel['match']}",
              flush=True)
        print(f"{name}: fingerprint modes ...", flush=True)
        fp_full = _bench_serial_fp(source, "full", serial_result)
        fp_incremental = _bench_serial_fp(source, "incremental",
                                          serial_result)
        fp_incremental["speedup_vs_full"] = round(
            fp_incremental["states_per_s"] / fp_full["states_per_s"], 3) \
            if fp_full["states_per_s"] else 0.0
        print(f"{name}: fp full @ {fp_full['states_per_s']}/s, "
              f"incremental @ {fp_incremental['states_per_s']}/s  "
              f"speedup={fp_incremental['speedup_vs_full']}x  "
              f"match={fp_full['match'] and fp_incremental['match']}",
              flush=True)
        print(f"{name}: compiled vs interpreted "
              f"({args.compiled_repeat} interleaved runs each) ...",
              flush=True)
        compiled = _bench_compiled(source, serial_result,
                                   args.compiled_repeat)
        print(f"{name}: compiled @ {compiled['states_per_s']}/s  "
              f"speedup={compiled['speedup_vs_interpreted']}x  "
              f"coverage={compiled['coverage']}  "
              f"byte_identical={compiled['byte_identical']}", flush=True)
        print(f"{name}: profiled serial ...", flush=True)
        profile_doc, profile_match = _bench_profiled(source, serial_result)
        top = sorted(profile_doc["phases"].items(),
                     key=lambda item: -item[1]["wall_s"])[:3]
        print(f"{name}: coverage={profile_doc['coverage']}  "
              f"hot={', '.join(phase for phase, _ in top)}  "
              f"match={profile_match}", flush=True)
        specs[name] = {"serial": serial, "parallel": parallel,
                       "serial_fp": {"full": fp_full,
                                     "incremental": fp_incremental},
                       "compiled": compiled,
                       "profile": profile_doc,
                       "profile_match": profile_match}
        max_states = max(max_states, serial["states"])

    # The gate judges the largest benched state space: small specs are
    # dominated by the fixed per-round barrier cost.
    gate_spec = max(names, key=lambda n: specs[n]["serial"]["states"])
    enforced = cpus >= args.gate_cpus
    passed = (specs[gate_spec]["parallel"]["speedup"] >= args.min_speedup
              if enforced else None)
    fp_speedup = specs[gate_spec]["serial_fp"]["incremental"][
        "speedup_vs_full"]
    compiled_gate_spec = (args.compiled_gate_spec
                          if args.compiled_gate_spec in specs else gate_spec)
    compiled_speedup = (
        specs[compiled_gate_spec]["compiled"]["speedup_vs_interpreted"])
    gate_coverage = specs[gate_spec]["profile"]["coverage"]
    artifact = {
        "schema": ARTIFACT_SCHEMA,
        "host": {"cpus": cpus, "python": platform.python_version()},
        "collision_bound": {
            "bits": 64,
            "max_states": max_states,
            # Birthday bound over the largest benched run.
            "p_any_collision": max_states * (max_states - 1) / 2.0 ** 65,
        },
        "specs": specs,
        "gate": {
            "min_speedup": args.min_speedup,
            "spec": gate_spec,
            "enforced": enforced,
            "passed": passed,
        },
        "fp_gate": {
            "min_speedup": args.min_fp_speedup,
            "spec": gate_spec,
            "enforced": True,
            "passed": fp_speedup >= args.min_fp_speedup,
        },
        "compiled_gate": {
            "min_speedup": args.min_compiled_speedup,
            "target_speedup": args.target_compiled_speedup,
            "speedup": compiled_speedup,
            "target_met": compiled_speedup >= args.target_compiled_speedup,
            "spec": compiled_gate_spec,
            "enforced": True,
            "passed": compiled_speedup >= args.min_compiled_speedup,
        },
        "prof_gate": {
            "min_coverage": args.min_coverage,
            "coverage": gate_coverage,
            "spec": gate_spec,
            "enforced": True,
            "passed": gate_coverage >= args.min_coverage,
        },
    }
    problems = validate_artifact(artifact)
    for problem in problems:
        print(f"INVALID ARTIFACT: {problem}", file=sys.stderr)
    with open(args.out, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    if problems:
        return 1
    if any(not entry["parallel"]["match"] for entry in specs.values()):
        print("FAIL: parallel disagreed with serial", file=sys.stderr)
        return 1
    if any(not mode["match"]
           for entry in specs.values()
           for mode in entry["serial_fp"].values()):
        print("FAIL: a fingerprint mode disagreed with the default serial "
              "engine", file=sys.stderr)
        return 1
    if enforced and not passed:
        print(f"FAIL: {gate_spec} speedup "
              f"{specs[gate_spec]['parallel']['speedup']}x < "
              f"{args.min_speedup}x on a {cpus}-core host", file=sys.stderr)
        return 1
    if not enforced:
        print(f"speedup gate not enforced ({cpus} cores < "
              f"{args.gate_cpus})")
    if not artifact["fp_gate"]["passed"]:
        print(f"FAIL: {gate_spec} incremental-fingerprint speedup "
              f"{fp_speedup}x < {args.min_fp_speedup}x", file=sys.stderr)
        return 1
    if any(not entry["compiled"]["match"]
           or not entry["compiled"]["byte_identical"]
           for entry in specs.values()):
        print("FAIL: the compiled engine broke byte-identity with the "
              "interpreted serial engine", file=sys.stderr)
        return 1
    if not artifact["compiled_gate"]["passed"]:
        print(f"FAIL: {compiled_gate_spec} compiled-engine speedup "
              f"{compiled_speedup}x < {args.min_compiled_speedup}x",
              file=sys.stderr)
        return 1
    if not artifact["compiled_gate"]["target_met"]:
        print(f"note: compiled speedup {compiled_speedup}x is below the "
              f"{args.target_compiled_speedup}x ROADMAP target "
              "(recorded, not enforced)")
    if any(not entry["profile_match"] for entry in specs.values()):
        print("FAIL: a profiled run disagreed with the unprofiled serial "
              "engine", file=sys.stderr)
        return 1
    if not artifact["prof_gate"]["passed"]:
        print(f"FAIL: prof_gate — coverage {gate_coverage} "
              f"(need >= {args.min_coverage})", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

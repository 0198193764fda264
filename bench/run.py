#!/usr/bin/env python3
"""The repo benchmark: seven verification / simulation workloads.

    python bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE] [--smoke]
    python bench/run.py --compare A.json B.json

One workload runs in this process; several (or none named: all seven)
each run in a fresh child process, one at a time.  Every metric is
printed by name with its unit, outputs are checked, and the exit code is
non-zero if any operation failed.  The last line of standard output of a
single-workload run is the result object the benchmark driver reads.

Method: one discarded warm-up, then timed repetitions — at least three,
and more while another still fits in ``--seconds``.  Each end-to-end
metric is the median over the repetitions.  ``--trace 1`` instead runs
one untraced and one instrumented repetition plus the layer probes, and
reports the per-layer metrics; end-to-end metrics always come from
untraced repetitions.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MIN_REPS = 3

sys.path.insert(0, SRC)
_import_started = perf_counter()
try:
    import probes
    import tracing
    import workloads
    from repro.metrics.percentiles import percentile
except ImportError as error:
    raise SystemExit(f"bench: cannot import the program from {SRC}: {error}")
#: Part of every workload's set-up: importing the program.
IMPORT_S = perf_counter() - _import_started


def load_json(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def benchmark_spec() -> dict:
    """BENCHMARK.json: the metric names, units and bounds."""
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


@dataclass
class Rep:
    """One timed repetition."""

    setup_s: float
    wall_s: float
    cpu_s: float
    started: float
    outcome: workloads.Outcome


def _cpu_s() -> float:
    """User + system CPU of this process and its waited-for children."""
    return sum(usage.ru_utime + usage.ru_stime for usage in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def timed_rep(workload, seed: int, instrumentation=None) -> Rep:
    """Fresh inputs from the seed, then the timed section."""
    gc.collect()
    started = perf_counter()
    inputs = workload.setup(seed)
    setup_s = perf_counter() - started
    traced = instrumentation is not None
    if traced:
        instrumentation.tracer.start()
    cpu_before = _cpu_s()
    start = perf_counter()
    outcome = workload.run(inputs, traced=traced)
    wall_s = perf_counter() - start
    cpu_s = _cpu_s() - cpu_before
    if traced:
        instrumentation.tracer.stop()
    return Rep(setup_s, wall_s, cpu_s, started, outcome)


def tally(reps: list) -> tuple[int, int]:
    """(attempted, failed) over replicas of one seed.

    Replicas must agree: every operation of a repetition whose outcome
    differs from the first one's counts as failed.
    """
    attempted = sum(rep.outcome.attempted for rep in reps)
    failed = 0
    for rep in reps:
        if rep.outcome.signature != reps[0].outcome.signature:
            failed += rep.outcome.attempted
        else:
            failed += rep.outcome.failed
    return attempted, failed


def pinned(expected: dict, workload, seed: int):
    """The known answer for this workload and seed, or None."""
    entry = expected.get(workload.name)
    if entry is not None and workload.seeded:
        entry = entry.get(str(seed))
    return entry


def match_metrics(workload, expected: dict, seed: int, stats: dict) -> dict:
    """``*_match``: 1 unless the outcome drifted from its pinned answer."""
    matches = {"checker.counts_match": 1, "harness.stats_match": 1}
    pin = pinned(expected, workload, seed)
    if pin is not None and pin != stats:
        print(f"WARNING: {workload.name} seed {seed} drifted from its "
              f"pinned answer: got {stats}, pinned {pin}", file=sys.stderr)
        matches[workload.match_metric] = 0
    return matches


def measure(workload, seed: int, seconds: float) -> tuple[list, dict]:
    """The untraced set: repetitions and the end-to-end metrics."""
    reps = []
    while True:
        reps.append(timed_rep(workload, seed))
        walls = [rep.wall_s for rep in reps]
        if (len(reps) >= MIN_REPS
                and sum(walls) + statistics.median(walls) > seconds):
            break
    metrics = {
        "setup_s": IMPORT_S + statistics.median(r.setup_s for r in reps),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(rep.cpu_s for rep in reps),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return reps, metrics


def measure_traced(workload, seed: int) -> tuple[list, dict]:
    """One untraced and one instrumented repetition, plus the probes."""
    plain = timed_rep(workload, seed)
    with tracing.Instrumentation() as instrumentation:
        traced = timed_rep(workload, seed, instrumentation)
    spans, tracer = instrumentation.spans, instrumentation.tracer
    outcome = traced.outcome
    metrics = dict(outcome.counts)
    metrics["harness.trace_overhead"] = traced.wall_s / plain.wall_s - 1
    metrics["workloads.preload_s"] = spans.seconds("workloads.preload")
    metrics["net.topology_s"] = spans.seconds("net.topology")
    if isinstance(workload, workloads.CheckWorkload):
        metrics.update(checker_layers(outcome, plain.wall_s))
    else:
        metrics.update(sim_layers(instrumentation, traced.wall_s))
        metrics["sim.events_per_s"] = tracer.events_fired / plain.wall_s
        metrics.update(harness_layers(workload, plain))
    metrics.update(probes.run_all())
    write_trace(workload, seed, traced, instrumentation)
    return [plain, traced], metrics


def write_trace(workload, seed: int, traced: Rep, instrumentation) -> None:
    """bench/out/trace-<workload>.json: coarse spans whole, the rest summed."""
    spans, tracer = instrumentation.spans, instrumentation.tracer
    outcome = traced.outcome
    origin = traced.started
    start = origin + traced.setup_s
    spans.add("setup", origin, start)
    spans.add("rep", start, start + traced.wall_s)
    for index, (begin, end) in enumerate(outcome.op_spans):
        spans.add(f"{workload.op_name} {index}", begin, end, parent="rep")
    profile = outcome.checker_stats.get("profile")
    if profile is not None:
        # The checker reports phase totals, not intervals: lay them end
        # to end under the rep and say so.
        for phase, totals in profile["phases"].items():
            spans.add(f"checker.{phase}", start, start + totals["wall_s"],
                      parent="rep", aggregated=True, calls=totals["calls"])
            start += totals["wall_s"]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracing.write_chrome_trace(
        os.path.join(OUT_DIR, f"trace-{workload.name}.json"), spans, origin,
        {"workload": workload.name, "seed": seed,
         "layer_s": tracer.layer_s,
         "unattributed_processes": sorted(tracer.unattributed_names)})


def checker_layers(outcome, plain_wall_s: float) -> dict:
    """Per-layer metrics from the checker's own profile."""
    stats = outcome.checker_stats
    profile, compiled = stats["profile"], stats.get("compiled", {})
    phases = profile["phases"]
    states = outcome.counts["checker.states"]
    probes_made = compiled.get("probes", 0)
    fills = compiled.get("label_fills", 0)
    metrics = {
        "checker.states_per_s": states / plain_wall_s,
        "checker.new_state_ratio":
            states / outcome.counts["checker.transitions"],
        "checker.profile_coverage": profile["coverage"],
        "checker.dedup_calls": phases["dedup"]["calls"],
        "lang.successor_gen_s": phases["successor_gen"]["wall_s"],
        "lang.successor_gen_calls": phases["successor_gen"]["calls"],
        "fingerprint.fingerprint_s": phases["fingerprint"]["wall_s"],
        "fingerprint.fingerprint_calls": phases["fingerprint"]["calls"],
        "fingerprint.slots_digested": stats.get("fp_slots_digested", 0),
        "compile.compile_s": phases["compile"]["wall_s"],
        "compile.label_fills": fills,
        "compile.probes": probes_made,
        "compile.memo_hit_ratio":
            1 - fills / probes_made if probes_made else 0,
    }
    for phase in ("por_ample", "canonicalize", "dedup", "property_eval",
                  "liveness"):
        metrics[f"checker.{phase}_s"] = phases[phase]["wall_s"]
    for tier in ("labels_codegen", "labels_memo", "labels_interp"):
        metrics[f"compile.{tier}"] = compiled.get(tier, 0)
    return metrics


def sim_layers(instrumentation, traced_wall_s: float) -> dict:
    """Per-layer metrics from the wall tracer and the wrappers."""
    spans, tracer = instrumentation.spans, instrumentation.tracer
    layer_s = tracer.layer_s
    metrics = {layer: layer_s.get(layer, 0.0)
               for layer in (*tracing.PROCESS_LAYERS, tracing.KERNEL,
                             tracing.DRIVER)}
    bare_harness = layer_s.get(tracing.DRIVER, 0.0) - spans.covered_s
    unnamed = bare_harness + layer_s.get(tracing.UNATTRIBUTED, 0.0)
    cycles = tracer.reconcile_cycles
    metrics.update({
        "sim.events_fired": tracer.events_fired,
        "sim.events_scheduled": tracer.events_scheduled,
        "core.ops_done": tracer.ops_done,
        "baselines.reconcile_cycles": cycles,
        "baselines.reconcile_cycle_ms":
            metrics["baselines.reconciler_s"] / cycles * 1e3 if cycles else 0,
        "harness.attributed_frac": 1 - unnamed / traced_wall_s,
        "nib.writes": spans.calls("nib.write"),
        "nib.write_s": spans.seconds("nib.write"),
        "nib.bulk_updates": spans.calls("nib.bulk_update"),
        "nib.bulk_update_s": spans.seconds("nib.bulk_update"),
        "core.view_snapshot_calls": spans.calls("core.view_snapshot"),
        "core.view_snapshot_s": spans.seconds("core.view_snapshot"),
        "core.view_of_switch_s": spans.seconds("core.view_of_switch"),
        "core.view_matches_calls": spans.calls("core.view_matches"),
        "core.view_matches_s": spans.seconds("core.view_matches"),
        "net.requests_sent": spans.calls("net.send"),
        "net.is_healthy_calls": instrumentation.is_healthy_calls,
        "net.routing_state_s": spans.seconds("net.routing_state"),
        "baselines.fix_switch_calls": spans.calls("baselines.fix_switch"),
        "baselines.fix_switch_s": spans.seconds("baselines.fix_switch"),
        "metrics.dag_installed_calls": spans.calls("metrics.dag_installed"),
        "metrics.dag_installed_s": spans.seconds("metrics.dag_installed"),
        "experiments.build_system_s":
            spans.seconds("experiments.build_system"),
    })
    return metrics


#: Per kind of operation: throughput metric, wall-time metric prefix and
#: the tail percentile reported beside the median.
_OP_METRICS = {"dag": ("harness.dags_per_s", "harness.dag_wall_ms", 99),
               "trial": ("chaos.trials_per_s", "chaos.trial_ms", 90)}


def harness_layers(workload, plain: Rep) -> dict:
    """Throughput and per-operation wall time of the untraced repetition."""
    samples = [(end - begin) * 1e3 for begin, end in plain.outcome.op_spans]
    if not samples:
        return {}
    rate, prefix, tail = _OP_METRICS[workload.op_name]
    metrics = {rate: len(samples) / plain.wall_s,
               f"{prefix}_p50": percentile(samples, 50)}
    # A percentile is reported only with ten samples beyond it.
    if len(samples) * (100 - tail) >= 1000:
        metrics[f"{prefix}_p{tail}"] = percentile(samples, tail)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", expected=None) -> dict:
    """Measure one workload in this process; returns its result document."""
    spec = benchmark_spec()
    if expected is None:
        expected = (load_json(os.path.join(BENCH_DIR, "expected.json"))
                    if size == "full" else {})
    workload = workloads.WORKLOADS[name](size)
    workload.warmup(seed)
    if trace:
        reps, values = measure_traced(workload, seed)
        declared = spec["per_layer"]
    else:
        reps, values = measure(workload, seed, seconds)
        declared = spec["end_to_end"]
    stats = reps[0].outcome.stats
    matches = match_metrics(workload, expected, seed, stats)
    if trace:
        values.update(matches)
    unknown = sorted(set(values) - {metric["name"] for metric in declared})
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    attempted, failed = tally(reps)
    # A layer that does no work on this workload reports 0.
    metrics = {metric["name"]: {"value": values.get(metric["name"], 0),
                                "unit": metric["unit"]}
               for metric in declared}
    return {
        "workload": name, "seed": seed, "seeded": workload.seeded,
        "size": size, "traced": trace,
        "reps": [{"setup_s": IMPORT_S + rep.setup_s, "wall_s": rep.wall_s,
                  "cpu_s": rep.cpu_s} for rep in reps],
        "attempted": attempted, "failed": failed, "correct": failed == 0,
        "stats": stats, "counts": reps[0].outcome.counts,
        "matches": matches, "metrics": metrics,
    }


def print_result(result: dict) -> None:
    """Every metric by name with its unit, then the checks."""
    seed_note = "" if result["seeded"] else \
        " (seed-independent: the spec is the input)"
    print(f"== {result['workload']}  seed {result['seed']}{seed_note}  "
          f"size {result['size']}  "
          f"{'traced' if result['traced'] else 'untraced'}  "
          f"n = {len(result['reps'])} reps ==")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {metric['unit']}")
    if not result["traced"]:
        for key in ("wall_s", "cpu_s", "setup_s"):
            values = " ".join(f"{rep[key]:.4f}" for rep in result["reps"])
            print(f"  {key} per rep: {values}")
        for name, value in result["counts"].items():
            print(f"{name} = {value} count")
    print(f"stats: {json.dumps(result['stats'], sort_keys=True)}")
    print(f"failed {result['failed']} of {result['attempted']} attempted; "
          f"correct = {result['correct']}")


def driver_line(result: dict) -> str:
    """The one-line result object the benchmark driver parses."""
    return json.dumps({key: result[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def provenance(args, load_at_start: float) -> dict:
    """Where, on what and how a result file was measured."""
    from repro.campaign.runner import source_digest

    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=False)
    cpus = os.cpu_count() or 1
    return {
        "host": {"cpus": cpus, "platform": platform.platform(),
                 "python": platform.python_version()},
        "git_rev": git.stdout.strip() if git.returncode == 0 else None,
        "src_repro_sha256": source_digest(),
        "seed": args.seed, "seconds": args.seconds,
        "min_reps": MIN_REPS, "size": "smoke" if args.smoke else "full",
        "traced": bool(args.trace),
        "load_1min_at_start": load_at_start,
        # Another busy process on this host makes every time suspect.
        "noisy": load_at_start > cpus,
    }


def run_children(args, names: list) -> list:
    """Each workload in its own fresh child process, one at a time."""
    os.makedirs(OUT_DIR, exist_ok=True)
    results = []
    for name in names:
        part = os.path.join(OUT_DIR, f".part-{name}.json")
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", part]
        if args.smoke:
            command.append("--smoke")
        child = subprocess.run(command, check=False)
        if child.returncode not in (0, 1) or not os.path.exists(part):
            raise SystemExit(f"bench: workload {name} did not finish "
                             f"(exit code {child.returncode})")
        results.append(load_json(part)["workloads"][0])
        os.remove(part)
    return results


def spread(values: list) -> float:
    """(max - min) / median of one set's own repetitions."""
    return (max(values) - min(values)) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """B against A per (workload, end-to-end metric); 1 if any is worse."""
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark_spec()["end_to_end"]}
    set_a = {r["workload"]: r for r in load_json(path_a)["workloads"]}
    set_b = {r["workload"]: r for r in load_json(path_b)["workloads"]}
    worse = 0
    print(f"{'workload':<20}" + "".join(f"{name:>24}" for name in bounds)
          + f"{'failed A -> B':>16}")
    for name in set_a:
        if name not in set_b:
            print(f"{name:<20}(absent from {path_b})")
            continue
        a, b = set_a[name], set_b[name]
        row = f"{name:<20}"
        for metric, bound in bounds.items():
            base = a["metrics"][metric]["value"]
            change = b["metrics"][metric]["value"] / base - 1
            # Only times have per-rep values; memory is one reading.
            own = max((spread([rep[metric] for rep in side["reps"]])
                       for side in (a, b) if metric in side["reps"][0]),
                      default=0.0)
            if own > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "WORSE"
                worse += 1
            else:
                verdict = "better" if change < -bound else "ok"
            row += f"{change:>+12.1%} {verdict:<11}"
        if b["failed"] * a["attempted"] > a["failed"] * b["attempted"]:
            worse += 1
            row += " MORE FAILED"
        print(row + f"{a['failed']:>6} -> {b['failed']}")
    print("bounds: " + ", ".join(f"{name} {bound:.0%}"
                                 for name, bound in bounds.items())
          + "; unresolved = a set's own rep spread exceeds the bound")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the result document here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for bench/tests")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    load_at_start = os.getloadavg()[0]
    names = args.workload or list(workloads.WORKLOADS)
    if len(names) == 1:
        result = run_workload(names[0], args.seed, args.seconds,
                              bool(args.trace),
                              "smoke" if args.smoke else "full")
        print_result(result)
        results = [result]
    else:
        results = run_children(args, names)
        args.out = args.out or os.path.join(
            OUT_DIR, "result-traced.json" if args.trace else "result.json")
    if args.out:
        document = {"provenance": provenance(args, load_at_start),
                    "workloads": results}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if len(names) == 1:
        print(driver_line(results[0]))
    else:
        print(f"wrote {args.out}")
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

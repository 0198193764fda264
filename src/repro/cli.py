"""Command-line interface.

``python -m repro list``            — list experiments
``python -m repro quickstart``      — the sixty-second demo
``python -m repro fig10``           — run one experiment (quick mode)
``python -m repro fig11 --full``    — full-scale parameters
``python -m repro run fig12 --trace out.json --metrics``
                                    — run with telemetry (trace loads in
                                      https://ui.perfetto.dev)
``python -m repro all``             — run every experiment (quick mode)
``python -m repro check <spec>``    — model-check a named specification
``python -m repro check controller-large --workers 4``
                                    — TLC-style parallel exploration
                                      (sharded fingerprint store, one
                                      process per worker)
``python -m repro check controller-large --compiled``
                                    — compiled-step engine (per-label
                                      closures; byte-identical output)
``python -m repro check controller-large --workers 2 --store-dir /tmp/fp``
                                    — spill fingerprint shards to mmap
                                      files under a memory budget
``python -m repro swarm controller-large --workers 4 --seed 7``
                                    — seeded randomized-DFS swarm
                                      bug-finding (workers share only
                                      the fingerprint store)
``python -m repro lint [target]``   — static analysis of specs/programs
``python -m repro sweep campaigns/quick.toml -j4``
                                    — expand a campaign over a worker
                                      pool into BENCH_campaign.json
``python -m repro render-docs --check``
                                    — regenerate (or verify) the
                                      measured blocks of EXPERIMENTS.md
``python -m repro chaos --seed 0 --out chaos.json``
                                    — search seeded fault schedules for
                                      consistency violations and shrink
                                      the first PR-only failure
``python -m repro chaos --replay examples/chaos_pr_violation.json``
                                    — re-run a committed shrunk
                                      schedule and verify its verdicts
``python -m repro ablate campaigns/ablation.toml``
                                    — sweep the component-ablation
                                      registry into BENCH_ablation.json
                                      (importance ranking, harmful-
                                      component flags)

Every parser is exposed through a ``build_*_parser()`` function so the
documentation tests can assert that each flag DESIGN.md documents
actually exists (and vice versa) without invoking a command.
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = [
    "build_ablate_parser",
    "build_chaos_parser",
    "build_main_parser",
    "build_render_docs_parser",
    "build_swarm_parser",
    "build_sweep_parser",
    "main",
]

def _spec_factories() -> dict:
    """name → zero-arg spec factory, from the bundled-spec registry."""
    from .spec.specs import SPEC_SOURCES

    return {name: source.build for name, source in SPEC_SOURCES.items()}


def _nadir_programs() -> dict:
    from .nadir.programs import drain_app_program, worker_pool_program

    return {
        "nadir-drain-app": drain_app_program,
        "nadir-worker-pool": worker_pool_program,
    }


#: Default effect-inference budget for `lint`.  Large enough that every
#: bundled spec's inference runs to completion (the two biggest need
#: ~100k raw states), so footprints are sound and the incomplete-effects
#: warning only fires on genuinely truncated runs.
LINT_MAX_STATES = 200_000


def _run_lint(target, as_json: bool, strict: bool, deps: bool = False,
              max_states: int = LINT_MAX_STATES) -> int:
    """`lint`: run speclint over specs and NADIR programs."""
    from . import analysis
    from .nadir.ast_nodes import Program

    targets = _spec_factories()
    targets.update(_nadir_programs())
    if target is not None:
        if target not in targets:
            print(f"unknown lint target {target!r}; try: "
                  f"{', '.join(sorted(targets))}", file=sys.stderr)
            return 2
        targets = {target: targets[target]}

    results = []
    for _name, factory in targets.items():
        artifact = factory()
        if isinstance(artifact, Program):
            results.append(analysis.analyze_program(artifact, deps=deps))
        else:
            results.append(analysis.analyze_spec(
                artifact, max_states=max_states, deps=deps))

    if as_json:
        print(analysis.render_json(results))
    else:
        print(analysis.render_text(results))
    if any(result.errors for result in results):
        return 1
    if strict and any(result.findings for result in results):
        return 1
    return 0


def _run_experiment(name: str, quick: bool, seed: int,
                    trace: str = None, metrics: bool = False) -> int:
    from .experiments import EXPERIMENTS

    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; try: "
              f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2

    tracer = registry = None
    if trace or metrics:
        from . import obs

        tracer = obs.RecordingTracer() if trace else None
        registry = obs.MetricsRegistry() if metrics else None

    started = time.perf_counter()
    if tracer is not None or registry is not None:
        from . import obs

        with obs.observe(tracer=tracer, metrics=registry):
            result = EXPERIMENTS[name](quick=quick, seed=seed)
    else:
        result = EXPERIMENTS[name](quick=quick, seed=seed)
    elapsed = time.perf_counter() - started
    print(result.render())
    if tracer is not None:
        tracer.write(trace)
        spans = len(tracer.complete_op_ids())
        print(f"\ntrace: {trace}  ({len(tracer.chrome_events())} events, "
              f"{spans} complete OP spans) — load in https://ui.perfetto.dev")
    if registry is not None:
        print()
        print(registry.render(limit=40))
    failures = result.check_shape()
    if failures:
        print(f"\nPAPER-SHAPE REGRESSIONS: {failures}", file=sys.stderr)
        return 1
    print(f"\nshape checks passed  [{elapsed:.1f}s]")
    return 0


def build_sweep_parser() -> argparse.ArgumentParser:
    """The `sweep` subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="expand a campaign TOML into tasks and execute them")
    parser.add_argument("campaign", help="path to the campaign TOML file")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--serial", action="store_true",
                        help="force serial in-process execution")
    parser.add_argument("--out", default="BENCH_campaign.json",
                        help="artifact output path")
    parser.add_argument("--cache-dir", default=".campaign-cache",
                        help="per-task result cache directory")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the cache")
    parser.add_argument("--mp-context", default="spawn",
                        choices=("spawn", "fork", "forkserver"),
                        help="multiprocessing start method")
    parser.add_argument("--metrics", action="store_true",
                        help="print the campaign metrics registry")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the per-task progress lines")
    return parser


def _run_sweep(argv) -> int:
    """`sweep`: run a campaign file across a worker pool."""
    args = build_sweep_parser().parse_args(argv)

    from .campaign import (load_campaign, run_campaign, validate_artifact,
                           write_artifact)

    try:
        spec = load_campaign(args.campaign)
    except (OSError, ValueError) as exc:
        print(f"cannot load campaign: {exc}", file=sys.stderr)
        return 2
    registry = None
    if args.metrics:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    jobs = 1 if args.serial else max(1, args.jobs)

    def stderr_progress(line: str) -> None:
        # Progress is a heartbeat, not output: stderr only, so piping
        # stdout stays clean and `--quiet` can drop it entirely.
        print(line, file=sys.stderr)

    artifact = run_campaign(
        spec, jobs=jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        registry=registry, mp_context=args.mp_context,
        progress=None if args.quiet else stderr_progress)
    problems = validate_artifact(artifact)
    for problem in problems:
        print(f"INVALID ARTIFACT: {problem}", file=sys.stderr)
    write_artifact(artifact, args.out)
    rows = sum(len(e["rows"]) for e in artifact["experiments"].values())
    print(f"wrote {args.out}: {len(artifact['experiments'])} experiments, "
          f"{len(artifact['tasks'])} tasks, {rows} rows")
    if registry is not None:
        print()
        print(registry.render(limit=40))
    shape_failures = {exp_id: entry["shape_failures"]
                      for exp_id, entry in artifact["experiments"].items()
                      if entry["shape_failures"]}
    if shape_failures:
        print(f"\nPAPER-SHAPE REGRESSIONS: {shape_failures}",
              file=sys.stderr)
        return 1
    return 1 if problems else 0


def build_render_docs_parser() -> argparse.ArgumentParser:
    """The `render-docs` subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="repro render-docs",
        description="regenerate the campaign- and ablation-marked "
                    "blocks of EXPERIMENTS.md from their artifacts")
    parser.add_argument("--artifact", default="BENCH_campaign.json")
    parser.add_argument("--ablation-artifact", default="BENCH_ablation.json",
                        help="repro.ablation/v1 artifact feeding the "
                             "ablation: blocks (skipped when absent)")
    parser.add_argument("--docs", default="EXPERIMENTS.md")
    parser.add_argument("--check", action="store_true",
                        help="fail on drift instead of rewriting")
    return parser


def _run_render_docs(argv) -> int:
    """`render-docs`: regenerate (or verify) the measured doc blocks."""
    args = build_render_docs_parser().parse_args(argv)

    import json as _json
    import os as _os

    from .campaign import render_docs

    try:
        artifact = _json.loads(open(args.artifact).read())
    except (OSError, ValueError) as exc:
        print(f"cannot read artifact: {exc}", file=sys.stderr)
        return 2
    ablation = None
    if _os.path.exists(args.ablation_artifact):
        try:
            ablation = _json.loads(open(args.ablation_artifact).read())
        except (OSError, ValueError) as exc:
            print(f"cannot read ablation artifact: {exc}", file=sys.stderr)
            return 2
    try:
        text = open(args.docs).read()
    except OSError as exc:
        print(f"cannot read docs: {exc}", file=sys.stderr)
        return 2
    new_text, changed = render_docs(text, artifact, ablation=ablation)
    if args.check:
        if changed:
            print(f"{args.docs} is stale for: {', '.join(changed)} "
                  f"(regenerate with `python -m repro render-docs`)",
                  file=sys.stderr)
            return 1
        print(f"{args.docs} matches {args.artifact}")
        return 0
    if changed:
        open(args.docs, "w").write(new_text)
        print(f"updated {args.docs}: {', '.join(changed)}")
    else:
        print(f"{args.docs} already up to date")
    return 0


def build_chaos_parser() -> argparse.ArgumentParser:
    """The `chaos` subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="sample seeded fault schedules, hunt consistency "
                    "violations the reference controller survives, and "
                    "shrink the first one to a minimal replayable repro")
    parser.add_argument("--seed", type=int, default=0,
                        help="search seed (same seed ⇒ byte-identical "
                             "artifact)")
    parser.add_argument("--trials", type=int, default=5,
                        help="schedules to sample (default: 5)")
    parser.add_argument("--target", default=None,
                        help="controller hunted for violations "
                             "(default: pr; update campaign: naive)")
    parser.add_argument("--reference", default=None,
                        help="controller that must stay clean "
                             "(default: zenith; update campaign: "
                             "consistent)")
    parser.add_argument("--campaign", choices=("update",), default=None,
                        help="named scenario preset: 'update' hunts "
                             "update-window violations (naive vs "
                             "consistent scheduler on the update-gadget "
                             "topology)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the repro.chaos/v1 artifact to PATH")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of interesting trials")
    parser.add_argument("--quick", action="store_true",
                        help="shorter event window + fewer channel "
                             "faults (the CI chaos-smoke preset)")
    parser.add_argument("--replay", metavar="ARTIFACT",
                        help="re-run ARTIFACT's shrunk schedule and "
                             "verify the recorded verdicts")
    parser.add_argument("--progress", action="store_true",
                        help="stderr heartbeat after every trial "
                             "(interesting count, ETA)")
    return parser


def _run_chaos(argv) -> int:
    """`chaos`: adversarial search-and-shrink, or artifact replay."""
    args = build_chaos_parser().parse_args(argv)

    from .chaos import dump_artifact, load_artifact, replay, search
    from .chaos.validate import validate_artifact

    if args.replay:
        try:
            artifact = load_artifact(args.replay)
        except (OSError, ValueError) as exc:
            print(f"cannot load artifact: {exc}", file=sys.stderr)
            return 2
        try:
            outcome = replay(artifact)
        except ValueError as exc:
            print(f"cannot replay: {exc}", file=sys.stderr)
            return 2
        for name, verdict in sorted(outcome["verdicts"].items()):
            first = verdict["first_violation_at"]
            state = (f"VIOLATED at t={first}" if verdict["violated"]
                     else "clean")
            print(f"{name:>8}: {state}")
        if outcome["ok"]:
            print("replay OK: recorded verdicts reproduced exactly")
            return 0
        for mismatch in outcome["mismatches"]:
            print(f"REPLAY MISMATCH: {mismatch}", file=sys.stderr)
        return 1

    scenario = "update" if args.campaign == "update" else "classic"
    target = args.target or ("naive" if scenario == "update" else "pr")
    reference = args.reference or (
        "consistent" if scenario == "update" else "zenith")
    sampler_kwargs = {}
    if args.quick:
        if scenario == "update":
            sampler_kwargs.update(active=8.0, cooldown=10.0)
        else:
            sampler_kwargs.update(active=8.0, cooldown=12.0, n_channel=2,
                                  n_triggers=0)
    progress_cb = None
    if args.progress:
        from .obs.prof import Progress

        heartbeat = Progress(label=f"chaos seed={args.seed}")
        trial_t0 = time.perf_counter()

        def progress_cb(done: int, total: int, interesting: int) -> None:
            elapsed = time.perf_counter() - trial_t0
            eta = (elapsed / done) * (total - done) if done else None
            heartbeat.update(force=(done == total), eta_s=eta,
                             trials=f"{done}/{total}",
                             interesting=interesting)

    started = time.perf_counter()
    artifact = search(args.seed, trials=args.trials, target=target,
                      reference=reference, shrink=not args.no_shrink,
                      progress=progress_cb, scenario=scenario,
                      **sampler_kwargs)
    elapsed = time.perf_counter() - started
    for run in artifact["runs"]:
        flags = []
        for name, verdict in sorted(run["verdicts"].items()):
            first = verdict["first_violation_at"]
            flags.append(f"{name}={'t=%.3f' % first if verdict['violated'] else 'clean'}")
        marker = "  <-- interesting" if run["interesting"] else ""
        print(f"trial {run['trial']}: {'  '.join(flags)}{marker}")
    shrunk = artifact["shrunk"]
    if shrunk is not None:
        print(f"\nshrunk trial {shrunk['from_trial']}: "
              f"{shrunk['events_before']} -> {shrunk['events_after']} "
              f"events in {shrunk['tests_run']} probes")
        from .chaos.schedule import ChaosEvent

        for event in shrunk["schedule"]["events"]:
            print(f"  {ChaosEvent.from_json_obj(event).describe()}")
        for name, verdict in sorted(shrunk["verdicts"].items()):
            first = verdict["first_violation_at"]
            state = (f"VIOLATED at t={first}" if verdict["violated"]
                     else "clean")
            print(f"  {name:>8}: {state}")
    elif artifact["interesting_trials"]:
        print("\n(shrink skipped)")
    else:
        print(f"\nno {target}-only violations in "
              f"{args.trials} trials")
    problems = validate_artifact(artifact)
    for problem in problems:
        print(f"INVALID ARTIFACT: {problem}", file=sys.stderr)
    if args.out:
        dump_artifact(artifact, args.out)
        print(f"\nwrote {args.out}")
    print(f"[{elapsed:.1f}s]")
    return 1 if problems else 0


def build_ablate_parser() -> argparse.ArgumentParser:
    """The `ablate` subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="repro ablate",
        description="sweep the component-ablation registry "
                    "(baseline plus one-off per component) into a "
                    "repro.ablation/v1 importance-ranking artifact")
    parser.add_argument("plan", nargs="?", default="campaigns/ablation.toml",
                        help="ablation plan TOML "
                             "(default: campaigns/ablation.toml)")
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--out", default="BENCH_ablation.json",
                        help="artifact output path")
    parser.add_argument("--cache-dir", default=".campaign-cache",
                        help="per-task result cache directory (shared "
                             "with sweep)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write the cache")
    parser.add_argument("--mp-context", default="spawn",
                        choices=("spawn", "fork", "forkserver"),
                        help="multiprocessing start method")
    parser.add_argument("--list", action="store_true", dest="list_runs",
                        help="print the expanded run set and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the per-run progress lines")
    return parser


def _run_ablate(argv) -> int:
    """`ablate`: registry sweep → importance-ranked artifact."""
    args = build_ablate_parser().parse_args(argv)

    from .ablation import load_plan, run_ablation, validate_artifact
    from .campaign import write_artifact

    try:
        plan = load_plan(args.plan)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot load plan: {exc}", file=sys.stderr)
        return 2

    if args.list_runs:
        from .ablation import expand_runs

        for run in expand_runs(plan):
            off = ",".join(run.off) or "(baseline)"
            print(f"{run.run_id}  {run.workload:<8} seed={run.seed}  "
                  f"off={off}")
        return 0

    def stderr_progress(line: str) -> None:
        print(line, file=sys.stderr)

    artifact, run_meta = run_ablation(
        plan, jobs=max(1, args.jobs),
        cache_dir=None if args.no_cache else args.cache_dir,
        mp_context=args.mp_context,
        progress=None if args.quiet else stderr_progress)
    problems = validate_artifact(artifact)
    for problem in problems:
        print(f"INVALID ARTIFACT: {problem}", file=sys.stderr)
    write_artifact(artifact, args.out)
    cached = sum(1 for meta in run_meta if meta["cached"])
    print(f"wrote {args.out}: {len(artifact['runs'])} runs "
          f"({cached} cached), {len(artifact['components'])} components "
          f"ranked")
    for cid in artifact["ranking"]:
        entry = artifact["components"][cid]
        flags = []
        if entry["harmful"]:
            flags.append("HARMFUL")
        if entry["verdict_changed"]:
            flags.append("verdict flips")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"  {entry['rank']:2d}. {cid:<22} importance="
              f"{entry['importance']:<10g} ({entry['layer']}/"
              f"{entry['workload']}){suffix}")
    return 1 if problems else 0


def _print_experiment_lines() -> None:
    from .experiments import EXPERIMENTS, describe

    width = max(len(name) for name in EXPERIMENTS)
    for name in sorted(EXPERIMENTS):
        print(f"{name:<{width}}  {describe(name)}")


def main(argv=None) -> int:
    """CLI dispatcher; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # Subcommands with their own flag namespaces dispatch before the
    # main parser sees them.
    if argv and argv[0] == "sweep":
        return _run_sweep(argv[1:])
    if argv and argv[0] == "render-docs":
        return _run_render_docs(argv[1:])
    if argv and argv[0] == "chaos":
        return _run_chaos(argv[1:])
    if argv and argv[0] == "ablate":
        return _run_ablate(argv[1:])
    if argv and argv[0] == "swarm":
        return _run_swarm_cmd(argv[1:])

    return _dispatch_main(argv)


def build_swarm_parser() -> argparse.ArgumentParser:
    """`swarm`: seeded randomized-DFS bug-finding over a bundled spec."""
    parser = argparse.ArgumentParser(
        prog="repro swarm",
        description="Swarm bug-finding: N seeded randomized-DFS workers "
                    "sharing only the fingerprint store; --seed "
                    "reproduces every worker's walk exactly")
    parser.add_argument("spec", help="bundled specification name")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="randomized-DFS worker processes (default 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="swarm seed; worker w shuffles successors "
                             "with Random(f'{seed}:{w}') (default 0)")
    parser.add_argument("--max-steps", type=int, default=None, metavar="N",
                        help="per-worker expansion budget (default: "
                             "unbounded — every worker's DFS runs to "
                             "exhaustion, matching the serial verdict "
                             "and state/transition counts)")
    parser.add_argument("--store-dir", metavar="DIR",
                        help="spill shared-store fingerprint shards to "
                             "mmap files under DIR when a shard exceeds "
                             "its memory budget (REPRO_FP_SPILL)")
    parser.add_argument("--compiled", action="store_true",
                        help="workers step through compiled per-label "
                             "closures instead of the interpreter")
    parser.add_argument("--keep-going", action="store_true",
                        help="collect every violation instead of "
                             "stopping each worker at its first")
    return parser


def _run_swarm_cmd(argv) -> int:
    args = build_swarm_parser().parse_args(argv)
    from .spec.specs import SPEC_SOURCES

    if args.spec not in SPEC_SOURCES:
        print(f"unknown spec {args.spec!r}; try: "
              f"{', '.join(sorted(SPEC_SOURCES))}", file=sys.stderr)
        return 2
    from .spec.swarm import swarm_check

    try:
        result = swarm_check(
            SPEC_SOURCES[args.spec], workers=args.workers, seed=args.seed,
            max_steps=args.max_steps, store_dir=args.store_dir,
            compiled=args.compiled,
            stop_at_first_violation=not args.keep_going)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    print(result.summary())
    swarm = result.stats["swarm"]
    mode = "exhaustive" if swarm["exhaustive"] else \
        f"budget {swarm['max_steps']} steps/worker"
    print(f"engine=swarm workers={swarm['workers']} seed={swarm['seed']} "
          f"({mode}) steps={swarm['steps']} "
          f"store_bytes={swarm['store_bytes']} spilled={swarm['spilled']}")
    for worker in swarm["per_worker"]:
        print(f"  worker {worker['worker']}: {worker['states']} states, "
              f"depth {worker['max_depth']}, "
              f"digest {worker['trace_digest']}")
    for violation in result.violations:
        print(violation.describe())
    return 0 if result.ok else 1


def build_main_parser() -> argparse.ArgumentParser:
    """The main (non-subcommand) parser: experiments, check, lint."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZENITH (SIGCOMM 2025) reproduction toolkit")
    parser.add_argument("command",
                        help="experiment id (fig3..figA6, table4, ...), "
                             "'run', 'list', 'all', 'quickstart', 'check' "
                             "or 'lint'")
    parser.add_argument("spec", nargs="?",
                        help="specification name (for 'check'/'lint') or "
                             "experiment id (for 'run')")
    parser.add_argument("--full", action="store_true",
                        help="full-scale parameters (slow)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="machine-readable lint output")
    parser.add_argument("--strict", action="store_true",
                        help="lint: fail on warnings too, not just errors")
    parser.add_argument("--deps", action="store_true",
                        help="lint: also run the footprint-based "
                             "cross-process race detector")
    parser.add_argument("--max-states", type=int, default=None, metavar="N",
                        help="lint: effect-inference state budget "
                             f"(default: {LINT_MAX_STATES})")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a sim-time trace to PATH (Chrome "
                             "trace-event JSON; .jsonl suffix for JSONL)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect and print the metrics registry")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="check: shard the seen-set over N worker "
                             "processes (capacity, not speed; default: "
                             "in-process serial)")
    parser.add_argument("--exact", action="store_true",
                        help="check: keep canonical state bytes alongside "
                             "fingerprints and fail loudly on any 64-bit "
                             "hash collision")
    parser.add_argument("--por-deps", action="store_true",
                        help="check: derive POR ample sets from static+"
                             "dynamic footprint independence instead of "
                             "only Step.local hints")
    parser.add_argument("--compiled", action="store_true",
                        help="check: compiled-step engine — per-label "
                             "closures specialized over the flat slot "
                             "vector (byte-identical canonical output)")
    parser.add_argument("--store-dir", metavar="DIR",
                        help="check: with --workers, spill fingerprint "
                             "shards to open-addressed mmap files under "
                             "DIR once a shard's in-memory set exceeds "
                             "the REPRO_FP_SPILL budget")
    parser.add_argument("--incremental-fp", action="store_true",
                        help="check: serial fingerprint-dedup engine with "
                             "incremental per-slot digests (re-encodes "
                             "only each step's write footprint)")
    parser.add_argument("--profile", metavar="PATH",
                        help="check: write a repro.prof/v1 phase/label "
                             "profile artifact to PATH (timing rides in "
                             "stats; canonical output stays byte-identical)")
    parser.add_argument("--profile-report", action="store_true",
                        help="check: print the phase breakdown and top "
                             "hot labels after the run (implies profiling)")
    parser.add_argument("--progress", action="store_true",
                        help="check: stderr heartbeat per BFS round "
                             "(states/s, frontier depth, dedup rate, ETA)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="check: write a Chrome trace of worker "
                             "utilization (explore/serialize/relay/idle "
                             "spans; .jsonl suffix for JSONL)")
    parser.add_argument("--list", action="store_true", dest="list_entries",
                        help="with 'run'/'list': one line per experiment")
    return parser


def _dispatch_main(argv) -> int:
    args = build_main_parser().parse_args(argv)

    if args.command == "quickstart":
        from . import quickstart

        quickstart()
        return 0

    if args.command == "list":
        from .experiments import EXPERIMENTS

        if args.list_entries:
            _print_experiment_lines()
            return 0
        specs = _spec_factories()
        print("experiments:", ", ".join(sorted(EXPERIMENTS)))
        print("specs:      ", ", ".join(sorted(specs)))
        print("lintable:   ", ", ".join(sorted(
            list(specs) + list(_nadir_programs()))))
        return 0

    if args.command == "lint":
        return _run_lint(args.spec, as_json=args.json, strict=args.strict,
                         deps=args.deps,
                         max_states=(LINT_MAX_STATES if args.max_states
                                     is None else args.max_states))

    if args.command == "check":
        from .spec.specs import SPEC_SOURCES

        if args.spec not in SPEC_SOURCES:
            print(f"unknown spec {args.spec!r}; try: "
                  f"{', '.join(sorted(SPEC_SOURCES))}", file=sys.stderr)
            return 2
        from .spec import ModelChecker

        registry = None
        if args.metrics:
            from .obs import MetricsRegistry

            registry = MetricsRegistry()
        source = SPEC_SOURCES[args.spec]
        profile = bool(args.profile or args.profile_report)
        try:
            checker = ModelChecker(
                source.build(), workers=args.workers, spec_source=source,
                exact_fingerprints=args.exact, registry=registry,
                por_deps=args.por_deps,
                fingerprint_mode="incremental" if args.incremental_fp
                                 else None,
                compiled=args.compiled, store_dir=args.store_dir,
                profile=profile, progress=args.progress,
                trace_out=args.trace_out)
        except ValueError as error:
            # Incompatible option combinations (e.g. --workers N with
            # --incremental-fp, or --exact with --incremental-fp) are
            # user errors, not tracebacks.
            print(error, file=sys.stderr)
            return 2
        result = checker.run()
        print(result.summary())
        stats = dict(result.stats)
        if stats.get("engine") == "parallel":
            print(f"engine=parallel workers={stats['workers']} "
                  f"spawn={stats['spawn_s']}s explore={stats['explore_s']}s "
                  f"{stats.get('states_per_s', 0.0)} states/s "
                  f"dedup_hits={stats['dedup_hits']}")
        elif stats.get("fingerprint_mode"):
            print(f"engine=serial fingerprint_mode={stats['fingerprint_mode']}")
        compiled = stats.get("compiled")
        if isinstance(compiled, dict):
            print(f"engine=compiled labels={compiled['labels']} "
                  f"fills={compiled['label_fills']} "
                  f"probes={compiled['probes']}")
        if stats.get("store_dir"):
            print(f"store_dir={stats['store_dir']} "
                  f"store_bytes={stats.get('store_bytes')} "
                  f"spilled={stats.get('spilled')} "
                  f"spills={stats.get('spills')}")
        for violation in result.violations:
            print(violation.describe())
        if profile:
            from .obs.prof import dump_prof, render_report

            doc = result.stats.get("profile")
            if doc is None:
                print("no profile collected (engine returned no stats)",
                      file=sys.stderr)
            else:
                if args.profile:
                    dump_prof(doc, args.profile)
                    print(f"profile: {args.profile}  "
                          f"(repro.prof/v1, coverage {doc['coverage']})")
                if args.profile_report:
                    print()
                    print(render_report(doc))
        if args.trace_out:
            print(f"trace: {args.trace_out} — load in "
                  f"https://ui.perfetto.dev")
        if registry is not None:
            print()
            print(registry.render(limit=40))
        return 0 if result.ok else 1

    if args.command == "all":
        from .experiments import EXPERIMENTS

        status = 0
        for name in sorted(EXPERIMENTS):
            print(f"\n################ {name} ################")
            status |= _run_experiment(name, quick=not args.full,
                                      seed=args.seed, trace=args.trace,
                                      metrics=args.metrics)
        return status

    if args.command == "run":
        if args.list_entries:
            _print_experiment_lines()
            return 0
        if not args.spec:
            print("usage: run <experiment> [--trace PATH] [--metrics] "
                  "| run --list", file=sys.stderr)
            return 2
        return _run_experiment(args.spec, quick=not args.full,
                               seed=args.seed, trace=args.trace,
                               metrics=args.metrics)

    return _run_experiment(args.command, quick=not args.full,
                           seed=args.seed, trace=args.trace,
                           metrics=args.metrics)


if __name__ == "__main__":
    sys.exit(main())

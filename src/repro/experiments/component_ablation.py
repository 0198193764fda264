"""Component-ablation harness: one registry-resolved run per task.

The ablation driver (``repro.ablation``) expands the component
registry into baseline and one-off runs; each run lands here as a
campaign task with ``params = {workload, off}``.  This harness
resolves the run's effective kwargs from the registry (so the task
identity stays small and the registry stays the single source of
truth), executes the workload, and reports *deterministic* metrics —
states, transitions, verdicts, digest work, modeled store bytes,
finding counts — never wall-clock time, which keeps serial and
parallel ablation sweeps byte-identical.

Two modeled metrics deserve a note:

* ``fp_slots`` — slot digests consumed by the fingerprint engine
  (:class:`repro.spec.fingerprint.IncrementalFingerprinter` counts
  them; the full-vector engine pays ``(transitions + 1) × slots``).
  This is the deterministic stand-in for fingerprint *time*.
* ``store_bytes`` — the modeled seen-set footprint: 8 bytes per state
  for fingerprint engines, one full canonical encoding per state for
  the exact store.  The deterministic stand-in for checker *memory*.
"""

from __future__ import annotations

import importlib
import os
import tempfile

from ..ablation.registry import resolve_config, workload as get_workload

__all__ = ["run", "param_grid", "SEED_SENSITIVE"]

#: The chaos workload resamples schedules per seed; check/lint runs are
#: seed-pure but ride the same experiment id.
SEED_SENSITIVE = True

#: Bytes per seen-set entry when states are stored as fingerprints.
_FP_ENTRY_BYTES = 8


def _load_factory(ref: str):
    module_name, _, attr = ref.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def _build_spec(config: dict):
    spec_kwargs = dict(config["scopes"].get("spec", {}))
    if config["factory"]:
        return _load_factory(config["factory"])(**spec_kwargs)
    if spec_kwargs:
        raise ValueError(
            f"workload {config['workload']!r} uses a bundled spec; "
            f"spec-scope overrides need a factory")
    from ..spec.specs import build_spec

    return build_spec(config["spec"])


def _run_check(config: dict) -> dict:
    from ..spec.checker import check
    from ..spec.fingerprint import canonical_bytes

    spec = _build_spec(config)
    checker_kwargs = dict(config["scopes"].get("checker", {}))
    # "trace" is the registry's synthetic toggle for exploration
    # tracing: route the stream to a throwaway sink — the metrics must
    # only prove tracing does not perturb the search.
    trace = checker_kwargs.pop("trace", False)
    trace_path = None
    try:
        if trace:
            fd, trace_path = tempfile.mkstemp(suffix=".trace.jsonl")
            os.close(fd)
            checker_kwargs["trace_out"] = trace_path
        result = check(spec, **checker_kwargs)
    finally:
        if trace_path is not None and os.path.exists(trace_path):
            os.unlink(trace_path)
    fp_mode = checker_kwargs.get("fingerprint_mode")
    entry_bytes = (_FP_ENTRY_BYTES if fp_mode in ("full", "incremental")
                   else len(canonical_bytes(spec.initial_state())))
    compiled = result.stats.get("compiled") or {}
    return {
        "states": result.distinct_states,
        "transitions": result.transitions,
        "diameter": result.diameter,
        "ok": result.ok,
        "violations": len(result.violations),
        "fp_slots": result.stats.get("fp_slots_digested"),
        "store_bytes": result.distinct_states * entry_bytes,
        # Engine-identity counter: labels with a compiled memo table.
        # Deterministic — a pure function of the spec — and zero under
        # the interpreted engine.
        "compiled_labels": compiled.get("labels_memo", 0),
    }


def _run_lint(config: dict) -> dict:
    from ..analysis import ERROR, analyze_spec

    spec = _build_spec(config)
    lint_kwargs = dict(config["scopes"].get("lint", {}))
    lint_kwargs["skip"] = tuple(lint_kwargs.get("skip", ()))
    result = analyze_spec(spec, **lint_kwargs)
    errors = sum(1 for f in result.findings if f.severity == ERROR)
    return {
        "findings": len(result.findings),
        "errors": errors,
        "warnings": len(result.findings) - errors,
        "complete": result.complete,
    }


def _run_chaos(config: dict, quick: bool, seed: int) -> dict:
    from ..chaos.driver import search

    chaos_kwargs = dict(config["scopes"].get("chaos", {}))
    trials = chaos_kwargs.pop("trials", 3 if quick else 6)
    artifact = search(seed=seed, trials=trials, **chaos_kwargs)
    return {
        "trials": artifact["trials"],
        "interesting": len(artifact["interesting_trials"]),
    }


class ComponentAblationResult:
    """One registry run's deterministic metrics."""

    def __init__(self, config: dict, seed: int, metrics: dict):
        self.config = config
        self.seed = seed
        self.metrics = metrics

    def rows(self) -> list[dict]:
        return [{
            "workload": self.config["workload"],
            "off": list(self.config["off"]),
            **self.metrics,
        }]

    def check_shape(self) -> list[str]:
        failures = []
        if self.config["kind"] == "check":
            if self.metrics["states"] <= 0:
                failures.append(
                    f"{self.config['workload']}: explored no states")
            if not self.config["off"] and not self.metrics["ok"]:
                failures.append(
                    f"{self.config['workload']}: baseline (all "
                    f"components on) must verify clean")
        return failures

    def render(self) -> str:
        off = ",".join(self.config["off"]) or "(baseline)"
        cells = "  ".join(f"{k}={v}" for k, v in self.metrics.items())
        return f"{self.config['workload']} off={off}: {cells}"


def run(quick: bool = True, seed: int = 0, workload: str = "table4",
        off=()) -> ComponentAblationResult:
    """Execute one ablation run: ``workload`` with ``off`` disabled."""
    config = resolve_config(workload, tuple(off), quick=quick)
    if config["kind"] == "check":
        metrics = _run_check(config)
    elif config["kind"] == "lint":
        metrics = _run_lint(config)
    else:
        metrics = _run_chaos(config, quick, seed)
    return ComponentAblationResult(config, seed, metrics)


def param_grid(quick: bool = True) -> list[dict]:
    """Baseline + one-off grid over every workload with participants."""
    from ..ablation.registry import WORKLOADS, components_for

    grid: list[dict] = []
    for wl in WORKLOADS:
        comps = components_for(wl.id, quick=quick)
        if not comps:
            continue
        grid.append({"workload": wl.id, "off": ()})
        grid.extend({"workload": wl.id, "off": (c.id,)} for c in comps)
    return grid


def main() -> None:
    for params in param_grid(quick=True):
        print(run(quick=True, **params).render())


if __name__ == "__main__":
    main()

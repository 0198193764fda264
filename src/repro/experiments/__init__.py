"""Experiment harnesses: one module per paper figure/table.

Every module exposes ``run(quick=True, seed=0)`` returning a result
object with ``render()`` (prints the same rows/series the paper
reports) and ``check_shape()`` (asserts the paper's qualitative claims,
returning a list of failures — empty when the shape reproduces).
``EXPERIMENTS`` maps experiment ids to their run functions.

For the campaign runner (``repro.campaign``) each module additionally
exposes:

* ``param_grid(quick) -> list[dict]`` — run() kwarg dicts splitting the
  figure into independently runnable tasks;
* ``SEED_SENSITIVE`` — False for deterministic analyses whose output
  ignores the seed (a seed sweep collapses to one task);
* ``rows()`` on the result — deterministic scalar-valued dicts, pure in
  (params, seed): simulated time is fine, wall-clock time is not.
"""

import importlib
from collections.abc import Mapping

from .common import (
    ExperimentTable,
    build_system,
    run_failure_workload,
    run_install_workload,
    run_trace_replay,
    wait_for_stability,
)

#: Experiment id → module name, imported on first use: most importers
#: (benchmark, chaos driver, CLI) only want :mod:`.common`.
_MODULES = {
    "fig3": "fig03_reconciliation_period",
    "fig4": "fig04_reconciliation_cost",
    "fig10": "fig10_trace_replay",
    "fig11": "fig11_topology_scaling",
    "fig12": "fig12_switch_failures",
    "fig13": "fig13_component_failures",
    "fig14": "fig14_te_throughput",
    "fig15": "fig15_failover",
    "fig16": "fig16_drain",
    "table4": "table4_model_checking",
    "sec6.3": "sec63_app_verification",
    "figA2": "figa2_odl",
    "figA3": "figa3_complexity",
    "figA6": "figa6_trace_lengths",
    "tableA1": "tablea1_spec_size",
    "ablation": "ablation",
    "chaos": "chaos_nemesis",
    "checkerScale": "checker_scale",
    "componentAblation": "component_ablation",
    "update": "update_chaos",
}


def experiment_module(exp_id: str):
    """The module backing a registered experiment id (imported here)."""
    return importlib.import_module(f".{_MODULES[exp_id]}", __name__)


class _Registry(Mapping):
    """Experiment id → ``run`` function, importing the module on lookup."""

    def __getitem__(self, exp_id: str):
        return experiment_module(exp_id).run

    def __contains__(self, exp_id) -> bool:
        return exp_id in _MODULES

    def __iter__(self):
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


EXPERIMENTS = _Registry()


def __getattr__(name: str):
    if name in _MODULES.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def describe(exp_id: str) -> str:
    """One-line summary of an experiment (its module docstring's head)."""
    doc = experiment_module(exp_id).__doc__ or ""
    return doc.strip().splitlines()[0] if doc.strip() else ""


__all__ = [
    "EXPERIMENTS",
    "describe",
    "experiment_module",
    "ExperimentTable",
    "build_system",
    "run_failure_workload",
    "run_install_workload",
    "run_trace_replay",
    "wait_for_stability",
]

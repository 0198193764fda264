"""Checker-scale sweep — parallel exploration vs the serial engine.

Not a paper figure: this is the repo's own guarantee that the parallel
model checker (``repro.spec.parallel``) is *exactly* the serial checker
with more processes.  For each swept spec the serial run and parallel
runs at increasing worker counts must agree on distinct states,
transitions, diameter and verdict; any divergence is a shape failure.
Wall-clock speed deliberately stays out of the rows (campaign rows must
be machine-independent) — the ``check-*`` workloads of ``bench/run.py``
time the serial engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spec.checker import ModelChecker
from ..spec.specs import SPEC_SOURCES

__all__ = ["run", "param_grid", "CheckerScaleResult"]

#: Exhaustive model checking: the state space does not depend on the seed.
SEED_SENSITIVE = False

_QUICK_SPECS = ("workerpool-initial", "controller", "drain-app")
_FULL_SPECS = _QUICK_SPECS + ("controller-large",)


def param_grid(quick: bool = True) -> list[dict]:
    """Campaign tasks: one independently checkable spec per task."""
    return [{"spec_name": name}
            for name in (_QUICK_SPECS if quick else _FULL_SPECS)]


@dataclass
class CheckerScaleResult:
    """Per-(spec, engine) checking outcomes."""

    #: (spec, workers, ok, states, transitions, diameter); workers == 0
    #: denotes the serial engine.
    entries: list = field(default_factory=list)

    def check_shape(self) -> list[str]:
        failures = []
        serial = {row[0]: row for row in self.entries if row[1] == 0}
        for spec, workers, ok, states, transitions, diameter in self.entries:
            if workers == 0:
                continue
            base = serial.get(spec)
            if base is None:
                failures.append(f"{spec}: no serial baseline")
                continue
            if (ok, states, transitions, diameter) != base[2:]:
                failures.append(
                    f"{spec}@{workers}w diverged from serial: "
                    f"{(ok, states, transitions, diameter)} != {base[2:]}")
        return failures

    def rows(self) -> list[dict]:
        return [{"spec": spec, "workers": workers, "ok": ok,
                 "states": states, "transitions": transitions,
                 "diameter": diameter}
                for spec, workers, ok, states, transitions, diameter
                in self.entries]

    def render(self) -> str:
        lines = ["== checker scale: parallel vs serial exploration ==",
                 f"{'Spec':>24s} {'Engine':>9s} {'OK':>3s} {'#States':>8s} "
                 f"{'#Trans':>8s} {'Diam':>5s}"]
        for spec, workers, ok, states, transitions, diameter in self.entries:
            engine = "serial" if workers == 0 else f"{workers}w"
            lines.append(f"{spec:>24s} {engine:>9s} "
                         f"{'y' if ok else 'N':>3s} {states:8d} "
                         f"{transitions:8d} {diameter:5d}")
        return "\n".join(lines)


def run(quick: bool = True, seed: int = 0,
        spec_name: str = None) -> CheckerScaleResult:
    """Sweep one spec (or the whole quick/full set) across engines."""
    names = ([spec_name] if spec_name is not None
             else list(_QUICK_SPECS if quick else _FULL_SPECS))
    worker_counts = (1, 2) if quick else (1, 2, 4)
    result = CheckerScaleResult()
    for name in names:
        source = SPEC_SOURCES[name]
        serial = ModelChecker(source.build(),
                              stop_at_first_violation=False).run()
        result.entries.append(
            (name, 0, serial.ok, serial.distinct_states,
             serial.transitions, serial.diameter))
        for workers in worker_counts:
            outcome = ModelChecker(
                source.build(), workers=workers, spec_source=source,
                stop_at_first_violation=False).run()
            result.entries.append(
                (name, workers, outcome.ok, outcome.distinct_states,
                 outcome.transitions, outcome.diameter))
    return result

"""Table A.1 — specification sizes: ZENITH vs prior industrial specs.

The paper compares its TLA+/PlusCal line counts against the AWS specs
reported by Newcombe et al. [44]: S3 (804 PlusCal), DynamoDB (939
TLA+), EBS (102 PlusCal), internal lock manager (223 PlusCal + 318
TLA+); ZENITH is 1.8K PlusCal + 4.9K TLA+ without failover and 2.1K +
6.5K with.  We count the lines of this repository's specification layer
(the spec DSL, the bundled specs and the NADIR programs and types) and
report them against the same reference numbers.  The model checker that
explores those specs is not specification — the paper's table counts
PlusCal/TLA+, not TLC — so ``spec/checker.py`` and the engines beside
it are left out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["run", "param_grid", "TableA1Result", "PRIOR_SYSTEMS"]

#: Line counting: nothing here depends on the seed.
SEED_SENSITIVE = False


def param_grid(quick: bool = True) -> list[dict]:
    """Campaign tasks: a single cheap line-count pass."""
    return [{}]

#: Line counts quoted by the paper from Newcombe et al. [44].
PRIOR_SYSTEMS = {
    "S3": 804,
    "DynamoDB": 939,
    "EBS": 102,
    "AWS lock manager": 223 + 318,
}


def _spec_root() -> Path:
    import repro.spec

    return Path(repro.spec.__file__).parent


def _nadir_root() -> Path:
    import repro.nadir

    return Path(repro.nadir.__file__).parent


def _count_lines(paths) -> dict[str, int]:
    counts = {}
    for path in paths:
        counts[path.name] = sum(1 for _ in path.open())
    return counts


@dataclass
class TableA1Result:
    """Our spec-layer line counts vs the prior systems."""

    ours: dict = field(default_factory=dict)
    prior: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.ours.values())

    def check_shape(self) -> list[str]:
        failures = []
        if self.total <= max(self.prior.values()):
            failures.append(
                f"our spec layer ({self.total} lines) not larger than "
                f"the largest prior spec")
        return failures

    def rows(self) -> list[dict]:
        """Deterministic per-spec line-count rows."""
        out = [{"spec": name, "lines": count, "source": "prior [44]"}
               for name, count in self.prior.items()]
        out += [{"spec": f"zenith-repro/{name}", "lines": count,
                 "source": "ours"}
                for name, count in sorted(self.ours.items())]
        out.append({"spec": "zenith-repro total", "lines": self.total,
                    "source": "ours"})
        return out

    def render(self) -> str:
        lines = ["== Table A.1: specification sizes =="]
        for name, count in self.prior.items():
            lines.append(f"  {name:28s} {count:6d} lines (from [44])")
        for name, count in sorted(self.ours.items()):
            lines.append(f"  zenith-repro/{name:15s} {count:6d} lines")
        lines.append(f"  {'zenith-repro total':28s} {self.total:6d} lines")
        return "\n".join(lines)


def run(quick: bool = True, seed: int = 0) -> TableA1Result:
    """Count this repository's specification-layer lines."""
    result = TableA1Result(prior=dict(PRIOR_SYSTEMS))
    spec_root, nadir_root = _spec_root(), _nadir_root()
    result.ours = _count_lines(
        [spec_root / "lang.py", *sorted((spec_root / "specs").glob("*.py")),
         nadir_root / "programs.py", nadir_root / "types.py"])
    return result

"""Differential suite: footprint-derived POR vs hint-based POR.

``por_deps=True`` replaces the ample-set test "the step is hinted
local" with "the step's (process, label) is in the footprint-derived
ample key set ∪ the hinted keys" — so every comparison here holds the
engine fixed and varies only the ample-set source, requiring
byte-identical :meth:`CheckResult.to_json` outcomes.  The two
~100k-state specs run only under ``REPRO_CHECKER_FULL=1`` (the CI
checker-smoke job), mirroring the parallel differential suite;
``benchmarks/deps_differential.py`` is the always-on CI gate covering
all specs.
"""

import os

import pytest

from repro.spec import ModelChecker
from repro.spec.specs import SPEC_SOURCES

LARGE = ("controller-large", "drain-app-full-core")
SMALL = [name for name in SPEC_SOURCES if name not in LARGE]
_FULL = os.environ.get("REPRO_CHECKER_FULL") == "1"


def _run(name, por_deps, workers=None, **kwargs):
    source = SPEC_SOURCES[name]
    return ModelChecker(source.build(), stop_at_first_violation=False,
                        workers=workers,
                        spec_source=source if workers else None,
                        por_deps=por_deps, **kwargs).run()


@pytest.mark.parametrize("name", SMALL)
def test_deps_por_byte_identical_serial(name):
    assert _run(name, True).to_json() == _run(name, False).to_json()


@pytest.mark.skipif(not _FULL, reason="set REPRO_CHECKER_FULL=1 "
                    "(CI checker-smoke) for the ~100k-state specs")
@pytest.mark.parametrize("name", LARGE)
def test_deps_por_byte_identical_serial_large(name):
    assert _run(name, True).to_json() == _run(name, False).to_json()


@pytest.mark.parametrize("name", ("controller", "drain-app",
                                  "workerpool-initial",
                                  "core-with-app-naive"))
def test_deps_por_byte_identical_two_workers(name):
    """Worker processes derive the same ample set from the rebuilt spec."""
    hinted = _run(name, False, workers=2)
    derived = _run(name, True, workers=2)
    assert derived.to_json() == hinted.to_json()


def test_deps_por_reduces_at_least_as_much_as_hints():
    """deps ample keys ⊇ hinted keys, so never more states."""
    for name in SMALL:
        hinted = _run(name, False)
        derived = _run(name, True)
        assert derived.distinct_states <= hinted.distinct_states, name


def test_deps_ample_contains_hints_and_is_cached():
    spec = SPEC_SOURCES["controller"].build()
    checker = ModelChecker(spec, por_deps=True)
    hinted = {(p.name, s.label) for p in spec.processes
              for s in p.steps if s.local}
    ample = checker._deps_ample()
    assert hinted <= ample
    assert checker._deps_ample() is ample  # computed once


# -- the workers option ---------------------------------------------------------------
def test_explicit_workers_leave_stats_unannotated():
    result = ModelChecker(SPEC_SOURCES["te-app"].build()).run()
    assert "workers_requested" not in result.stats


def test_non_integer_workers_rejected():
    spec = SPEC_SOURCES["te-app"].build()
    for word in ("four", "auto"):
        with pytest.raises(ValueError,
                           match="workers must be >= 1, or None for serial"):
            ModelChecker(spec, workers=word)
    with pytest.raises(ValueError, match="workers"):
        ModelChecker(spec, workers=True)

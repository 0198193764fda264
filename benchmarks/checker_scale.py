"""Speed floors for the two serial checker optimizations (CI gate).

Two ratios that nothing else guards — ``bench/run.py`` times each
``check-*`` engine on its own, never one against another (``FLOORS``):

* the compiled engine is at least 4x faster than the interpreted one on
  ``controller-large`` (measured 4.6x);
* incremental fingerprinting is at least 1.5x faster than re-encoding
  the full state (``fingerprint_mode="full"``) on
  ``drain-app-full-core``, the largest bundled state space (measured
  1.7x).

Each pair runs ``REPEAT`` times, alternating the two engines so slow
drift (thermal, page cache, heap growth) lands on both sides, and the
minimum of each side is compared.  Both sides must produce the same
``CheckResult.to_json()`` bytes.  Both runs of a pair are serial, so one
core measures them fine.  Prints the measured ratios, writes nothing,
exits 1 when a floor or byte-identity fails.

Usage::

    PYTHONPATH=src python benchmarks/checker_scale.py
"""

import sys
import time

REPEAT = 3

#: (what, spec, slow engine options, fast engine options, floor)
FLOORS = (
    ("compiled vs interpreted", "controller-large",
     {}, {"compiled": True}, 4.0),
    ("incremental vs full fingerprinting", "drain-app-full-core",
     {"fingerprint_mode": "full"}, {"fingerprint_mode": "incremental"}, 1.5),
)


def _speedup(source, slow, fast):
    """(min slow wall / min fast wall, outputs byte-identical)."""
    from repro.spec import ModelChecker

    best = {}
    outputs = set()
    for _ in range(REPEAT):
        for side, options in (("fast", fast), ("slow", slow)):
            checker = ModelChecker(source.build(),
                                   stop_at_first_violation=False, **options)
            start = time.perf_counter()
            result = checker.run()
            elapsed = time.perf_counter() - start
            best[side] = min(elapsed, best.get(side, elapsed))
            outputs.add(result.to_json())
    return best["slow"] / best["fast"], len(outputs) == 1


def main():
    from repro.spec.specs import SPEC_SOURCES

    failed = False
    for what, spec, slow, fast, floor in FLOORS:
        ratio, identical = _speedup(SPEC_SOURCES[spec], slow, fast)
        print(f"{spec}: {what} {ratio:.2f}x (floor {floor}x, min of "
              f"{REPEAT} interleaved runs), byte_identical={identical}",
              flush=True)
        if not identical:
            print(f"FAIL: {spec}: the two engines disagree on to_json()",
                  file=sys.stderr)
            failed = True
        if ratio < floor:
            print(f"FAIL: {spec}: {what} {ratio:.2f}x < {floor}x",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

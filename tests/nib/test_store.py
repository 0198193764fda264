"""Unit tests for the NIB store, watchers and write lock."""

import pytest

from repro.nib import Nib
from repro.sim import Environment


def test_table_put_get_delete():
    env = Environment()
    nib = Nib(env)
    table = nib.table("switch_health")
    table.put("s0", "up")
    assert table.get("s0") == "up"
    assert "s0" in table
    table.delete("s0")
    assert table.get("s0") is None
    assert len(table) == 0


def test_table_returns_same_instance():
    env = Environment()
    nib = Nib(env)
    assert nib.table("x") is nib.table("x")
    assert nib.fifo("q") is nib.fifo("q")
    assert nib.ack_queue("a") is nib.ack_queue("a")


def test_watchers_see_writes():
    env = Environment()
    nib = Nib(env)
    table = nib.table("ops")
    seen = []
    table.watch(lambda write: seen.append((write.key, write.old, write.new)))
    table.put("op1", "scheduled")
    table.put("op1", "done")
    table.delete("op1")
    assert seen == [
        ("op1", None, "scheduled"),
        ("op1", "scheduled", "done"),
        ("op1", "done", None),
    ]


def test_unwatch_stops_notifications():
    env = Environment()
    nib = Nib(env)
    table = nib.table("ops")
    seen = []
    watcher = lambda write: seen.append(write.key)  # noqa: E731
    table.watch(watcher)
    table.put("a", 1)
    table.unwatch(watcher)
    table.put("b", 2)
    assert seen == ["a"]


def test_delete_missing_key_is_silent():
    env = Environment()
    nib = Nib(env)
    table = nib.table("t")
    seen = []
    table.watch(lambda write: seen.append(write))
    table.delete("ghost")
    assert seen == []


def test_write_lock_serializes():
    env = Environment()
    nib = Nib(env)
    order = []

    def holder():
        yield nib.acquire_write_lock("holder")
        order.append(("acquired", env.now))
        yield env.timeout(5)
        nib.release_write_lock()

    def waiter():
        yield env.timeout(1)
        yield nib.acquire_write_lock("waiter")
        order.append(("waiter", env.now))
        nib.release_write_lock()

    env.process(holder())
    env.process(waiter())
    env.run()
    assert order == [("acquired", 0.0), ("waiter", 5.0)]


def test_release_unheld_lock_raises():
    env = Environment()
    nib = Nib(env)
    with pytest.raises(RuntimeError):
        nib.release_write_lock()


def test_bulk_update_cost_scales_with_entries():
    env = Environment()
    nib = Nib(env)
    nib.bulk_update_cost_per_entry = 0.01
    finished = []

    def updater():
        writes = [("routing", f"e{i}", "installed") for i in range(100)]
        yield from nib.bulk_update(writes, owner="reconciler")
        finished.append(env.now)

    env.process(updater())
    env.run()
    assert finished == [pytest.approx(1.0)]
    assert nib.table("routing").get("e5") == "installed"


def test_bulk_update_blocks_other_writers():
    """Reconciliation holding the lock delays event processing (Fig. 4b)."""
    env = Environment()
    nib = Nib(env)
    nib.bulk_update_cost_per_entry = 0.001
    timeline = []

    def reconciler():
        writes = [("routing", f"e{i}", "x") for i in range(1000)]
        yield from nib.bulk_update(writes, owner="reconciler")
        timeline.append(("reconciler-done", env.now))

    def event_handler():
        yield env.timeout(0.1)
        yield nib.acquire_write_lock("handler")
        nib.table("ops").put("op1", "done")
        nib.release_write_lock()
        timeline.append(("event-processed", env.now))

    env.process(reconciler())
    env.process(event_handler())
    env.run()
    assert timeline[0][0] == "reconciler-done"
    assert timeline[1] == ("event-processed", pytest.approx(1.0))


def test_bulk_update_none_value_deletes():
    env = Environment()
    nib = Nib(env)
    nib.table("t").put("k", "v")

    def updater():
        yield from nib.bulk_update([("t", "k", None)])

    env.process(updater())
    env.run()
    assert "k" not in nib.table("t")


def test_snapshot_is_independent_copy():
    env = Environment()
    nib = Nib(env)
    table = nib.table("t")
    table.put("a", 1)
    snap = table.snapshot()
    table.put("a", 2)
    assert snap == {"a": 1}


# -- unwatched fast path vs. watched path ---------------------------------------

_SCRIPT = [("put", "a", 1), ("put", "b", 2), ("put", "a", 3), ("delete", "b"),
           ("delete", "ghost"), ("put", "c", 4), ("clear",), ("put", "d", 5),
           ("put", "e", 6), ("delete", "d")]


def _apply(table, script):
    for name, *args in script:
        getattr(table, name)(*args)


def _count_nib_writes(monkeypatch):
    """How many NibWrite records the store builds from here on."""
    from repro.nib import store

    built = []

    class CountedWrite(store.NibWrite):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(store, "NibWrite", CountedWrite)
    return built


def test_unwatched_and_watched_tables_end_with_identical_contents(monkeypatch):
    built = _count_nib_writes(monkeypatch)
    nib = Nib(Environment())
    plain, watched = nib.table("plain"), nib.table("watched")
    seen = []
    watched.watch(seen.append)
    for length in range(len(_SCRIPT) + 1):
        plain.clear()
        watched.clear()
        _apply(plain, _SCRIPT[:length])
        _apply(watched, _SCRIPT[:length])
        assert list(plain.items()) == list(watched.items())
    # Only the watched table ever paid for a notification record.
    assert built and all(args[0] == "watched" for args in built)
    assert len(seen) == len(built)


def test_watcher_added_mid_run_sees_every_later_write():
    table = Nib(Environment()).table("t")
    _apply(table, _SCRIPT[:3])
    seen = []
    table.watch(lambda w: seen.append((w.key, w.old, w.new)))
    _apply(table, _SCRIPT[3:])
    assert seen == [
        ("b", 2, None),                       # delete b ("ghost" is silent)
        ("c", None, 4),
        ("a", 3, None), ("c", 4, None),       # clear(): one per key
        ("d", None, 5), ("e", None, 6), ("d", 5, None),
    ]
    assert table.snapshot() == {"e": 6}


def test_clear_on_watched_table_notifies_per_key():
    table = Nib(Environment()).table("t")
    for key in range(5):
        table.put(key, key * key)
    seen = []
    table.watch(lambda w: seen.append((w.table, w.key, w.old, w.new)))
    table.clear()
    assert seen == [("t", key, key * key, None) for key in range(5)]
    assert len(table) == 0


def test_unwatch_returns_table_to_fast_path(monkeypatch):
    table = Nib(Environment()).table("t")
    seen = []
    table.watch(seen.append)
    table.put("a", 1)
    table.unwatch(seen.append)   # a different bound method object, same callback
    built = _count_nib_writes(monkeypatch)
    _apply(table, _SCRIPT)
    assert built == [] and len(seen) == 1
    assert table.snapshot() == {"e": 6}


def test_watcher_may_unwatch_itself_during_notification():
    table = Nib(Environment()).table("t")
    seen = []

    def once(write):
        seen.append(("once", write.key))
        table.unwatch(once)

    table.watch(once)
    table.watch(lambda w: seen.append(("always", w.key)))
    table.put("a", 1)
    table.put("b", 2)
    assert seen == [("once", "a"), ("always", "a"), ("always", "b")]


def test_bulk_update_spanning_tables_applies_in_order():
    env = Environment()
    nib = Nib(env)
    seen = []
    nib.table("y").watch(lambda w: seen.append((w.table, w.key, w.new)))
    writes = (w for w in [("x", 1, "a"), ("x", 2, "b"), ("y", 1, "c"),
                          ("x", 1, None), ("y", 2, "d"), ("y", 1, None)])

    def proc():
        yield from nib.bulk_update(writes, owner="r")

    env.process(proc())
    env.run()
    assert nib.table("x").snapshot() == {2: "b"}
    assert nib.table("y").snapshot() == {2: "d"}
    assert seen == [("y", 1, "c"), ("y", 2, "d"), ("y", 1, None)]
    assert env.now == pytest.approx(6 * nib.bulk_update_cost_per_entry)

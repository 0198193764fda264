"""Network Information Base (NIB).

The NIB is ZENITH's logically centralized in-memory database (paper
Table 1): it stores network state, shares it between components, and is
the central point of communication between microservices.  Assumption
A2 of the paper's proof says NIB operations are atomic and consistent
and the NIB never fails; we model it accordingly — a plain in-process
store whose updates happen within one atomic simulation step.

What *is* modeled with costs is the serialization of bulk updates:
periodic reconciliation must push every retrieved flow entry through
the NIB, and the paper measures this as the scaling bottleneck
(Fig. 4b).  :class:`Lock` plus :meth:`Nib.bulk_update` reproduce that
behaviour: while a reconciliation batch holds the lock, routine event
processing (and hence DAG installation) queues behind it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Iterator, Optional

from ..sim import AckQueue, Environment, Event, FifoQueue

__all__ = ["Nib", "NibTable", "NibWrite", "Lock"]


class NibWrite:
    """A change notification delivered to table watchers.

    One is built per write to a watched table, so it is a bare
    ``__slots__`` record; watchers treat it as read-only.
    """

    __slots__ = ("table", "key", "old", "new")

    def __init__(self, table: str, key: Any, old: Any, new: Any):
        self.table = table
        self.key = key
        self.old = old
        self.new = new

    def __repr__(self) -> str:
        return (f"NibWrite(table={self.table!r}, key={self.key!r}, "
                f"old={self.old!r}, new={self.new!r})")


class NibTable:
    """A watchable key-value table inside the NIB."""

    def __init__(self, nib: "Nib", name: str):
        self.nib = nib
        self.name = name
        self._data: dict[Any, Any] = {}
        # A tuple, replaced on watch/unwatch: a notification iterates the
        # watchers registered when it started, without copying them.
        self._watchers: tuple[Callable[[NibWrite], None], ...] = ()

    # -- dict-like access ----------------------------------------------------
    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def get(self, key: Any, default: Any = None) -> Any:
        """Read a value (atomic, free)."""
        return self._data.get(key, default)

    def __getitem__(self, key: Any) -> Any:
        return self._data[key]

    def keys(self):
        """Live view of keys."""
        return self._data.keys()

    def values(self):
        """Live view of values."""
        return self._data.values()

    def items(self):
        """Live view of items."""
        return self._data.items()

    def snapshot(self) -> dict:
        """Shallow copy of the table contents."""
        return dict(self._data)

    # -- mutation -------------------------------------------------------------
    def put(self, key: Any, value: Any) -> None:
        """Write a value and notify watchers."""
        watchers = self._watchers
        if not watchers:
            self._data[key] = value
            return
        old = self._data.get(key)
        self._data[key] = value
        write = NibWrite(self.name, key, old, value)
        for watcher in watchers:
            watcher(write)

    def delete(self, key: Any) -> None:
        """Remove a key if present and notify watchers."""
        watchers = self._watchers
        if not watchers:
            self._data.pop(key, None)
            return
        if key not in self._data:
            return
        write = NibWrite(self.name, key, self._data.pop(key), None)
        for watcher in watchers:
            watcher(write)

    def clear(self) -> None:
        """Remove everything (one notification per key, if watched)."""
        if not self._watchers:
            self._data.clear()
            return
        for key in list(self._data):
            self.delete(key)

    # -- watching ----------------------------------------------------------------
    def watch(self, callback: Callable[[NibWrite], None]) -> None:
        """Invoke ``callback`` synchronously on every write."""
        self._watchers += (callback,)

    def unwatch(self, callback: Callable[[NibWrite], None]) -> None:
        """Remove a previously registered watcher."""
        watchers = list(self._watchers)
        try:
            watchers.remove(callback)
        except ValueError:
            return
        self._watchers = tuple(watchers)


class Lock:
    """FIFO mutex; bulk NIB updates hold it, serializing other writers."""

    def __init__(self, env: Environment, name: str = "lock"):
        self.env = env
        self.name = name
        self._holder: Optional[Any] = None
        self._waiters: deque[tuple[Any, Event]] = deque()
        #: Total time the lock has been held (for utilisation metrics).
        self.held_time = 0.0
        self._acquired_at = 0.0

    @property
    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._holder is not None

    def acquire(self, owner: Any = None) -> Event:
        """Event that fires once the caller holds the lock."""
        event = Event(self.env)
        if self._holder is None:
            self._holder = owner if owner is not None else event
            self._acquired_at = self.env.now
            event.succeed()
        else:
            self._waiters.append((owner, event))
            event._cancel_hook = lambda: self._cancel(event)
        return event

    def _cancel(self, event: Event) -> None:
        self._waiters = deque(
            (owner, pending) for owner, pending in self._waiters
            if pending is not event)

    def release(self) -> None:
        """Release the lock, waking the oldest waiter."""
        if self._holder is None:
            raise RuntimeError(f"release of unheld lock {self.name!r}")
        self.held_time += self.env.now - self._acquired_at
        self._holder = None
        while self._waiters:
            owner, event = self._waiters.popleft()
            if event.triggered:
                continue
            self._holder = owner if owner is not None else event
            self._acquired_at = self.env.now
            event.succeed()
            return


class Nib:
    """The Network Information Base: tables, queues and the write lock."""

    def __init__(self, env: Environment):
        self.env = env
        self._tables: dict[str, NibTable] = {}
        self._fifo_queues: dict[str, FifoQueue] = {}
        self._ack_queues: dict[str, AckQueue] = {}
        #: Serializes bulk writes (reconciliation) against event handling.
        self.write_lock = Lock(env, "nib-write")
        #: Cost applied per entry in a bulk update, seconds (Fig. 4b fit).
        self.bulk_update_cost_per_entry = 21e-6

    # -- tables ---------------------------------------------------------------
    def table(self, name: str) -> NibTable:
        """Get (creating on first use) the named table."""
        if name not in self._tables:
            self._tables[name] = NibTable(self, name)
        return self._tables[name]

    @property
    def tables(self) -> dict[str, NibTable]:
        """All materialised tables by name."""
        return dict(self._tables)

    # -- queues ---------------------------------------------------------------
    def fifo(self, name: str) -> FifoQueue:
        """Get (creating on first use) a named FIFO queue."""
        if name not in self._fifo_queues:
            self._fifo_queues[name] = FifoQueue(self.env, name)
        return self._fifo_queues[name]

    def ack_queue(self, name: str) -> AckQueue:
        """Get (creating on first use) a named peek/pop queue."""
        if name not in self._ack_queues:
            self._ack_queues[name] = AckQueue(self.env, name)
        return self._ack_queues[name]

    # -- bulk updates -----------------------------------------------------------
    def bulk_update(self, writes: Iterable[tuple[str, Any, Any]],
                    owner: Any = None):
        """Apply many writes while holding the write lock.

        A generator to be driven by a simulation process.  Holding the
        lock for ``cost_per_entry × len(writes)`` models the NIB-update
        bottleneck that makes reconciliation scale poorly (Fig. 4b).
        """
        writes = list(writes)
        yield self.acquire_write_lock(owner)
        try:
            cost = self.bulk_update_cost_per_entry * len(writes)
            if cost > 0:
                yield self.env.timeout(cost)
            table_name = table = None
            for name, key, value in writes:
                if name != table_name:
                    table_name, table = name, self.table(name)
                if value is None:
                    table.delete(key)
                else:
                    table.put(key, value)
        finally:
            self.release_write_lock()

    def acquire_write_lock(self, owner: Any = None) -> Event:
        """Acquire the global write lock (event)."""
        return self.write_lock.acquire(owner)

    def release_write_lock(self) -> None:
        """Release the global write lock."""
        self.write_lock.release()

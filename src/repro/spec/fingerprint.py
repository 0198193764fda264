"""Stable 64-bit state fingerprints and the sharded fingerprint store.

TLC scales past in-memory state sets by storing *fingerprints* — fixed
width hashes of canonicalized states — instead of the states
themselves.  This module provides the same mechanism for
:class:`repro.spec.lang.State`:

* :func:`canonical_bytes` — a deterministic byte encoding of a state
  that is **equality-faithful** (two states compare equal under Python
  ``==`` iff they encode to the same bytes) and **stable across
  interpreter invocations** (no use of ``hash()``, whose string hashing
  is randomized per process by ``PYTHONHASHSEED``);
* :func:`fingerprint_state` / :func:`fingerprint_bytes` — the encoding
  folded through BLAKE2b to a 64-bit integer;
* :class:`FingerprintStore` — a seen-set of fingerprints sharded by
  fingerprint prefix, with an optional *exact mode* that keeps the
  canonical bytes alongside each fingerprint and turns any hash
  collision into a loud :class:`FingerprintCollisionError` instead of a
  silently pruned state.

Collision probability
---------------------

With an ideal 64-bit hash, a run visiting ``n`` distinct states misses
a state (treats it as seen) only if two distinct canonical encodings
collide; by the birthday bound the probability of *any* collision is at
most ``n * (n - 1) / 2**65``.  At the scale this checker reaches in
Python — 10**7 states — that is under ``3e-6`` per run; at TLC-like
10**9 states it would be ~3%, which is why exact mode exists as a
fallback for small specs.

Equality faithfulness requires the same value identifications Python's
``==`` makes inside states: ``True == 1``, ``1 == 1.0``.  Numbers are
therefore canonicalized (bools to ints, integral floats to ints) before
encoding, so states that a ``dict``-based seen-set would merge also
share a fingerprint.

Encoding scheme
---------------

A pure-Python byte encoder costs ~37us per controller state — more
than generating the state's successors — so the encoder instead
*normalizes* the value tree in Python (cheap: most nodes pass through
untouched) and lets C-level ``marshal`` produce the bytes (~2us).
Normalization maps every state value onto the marshal-canonical subset
{None, int, non-integral float, str, bytes, tuple, Ellipsis}:

* ``bool`` -> ``int``, integral ``float`` -> ``int`` (``==`` faithful);
* ``frozenset``/``set`` -> ``(Ellipsis, "fs", sorted elements)``
  (insertion order must not leak into the encoding);
* ``FrozenRecord``/``dict`` -> ``(Ellipsis, "d", items sorted by key)``;
* a literal ``Ellipsis`` leaf -> ``(Ellipsis, "e")`` so the tags above
  can never collide with user data.

Marshal version 0 is the reference-free format: equal-but-distinct
strings encode identically (later versions emit id-based back
references, which would break canonicality).
"""

from __future__ import annotations

import hashlib
import marshal
import mmap
import os
import struct
from typing import Iterable, Optional

from .lang import State, changed_slots

__all__ = [
    "FingerprintCollisionError",
    "FingerprintStore",
    "IncrementalFingerprinter",
    "ShardFileError",
    "canonical_bytes",
    "fingerprint_bytes",
    "fingerprint_state",
    "shard_of",
    "spill_threshold_from_env",
]

#: Global shard count = 2**_SHARD_BITS; shards are dealt to workers
#: round-robin so any worker count divides the space evenly.
_SHARD_BITS = 6
SHARDS = 1 << _SHARD_BITS


class FingerprintCollisionError(Exception):
    """Two distinct canonical states hashed to the same fingerprint.

    Only detectable (and raised) in exact mode; a hash-only store would
    silently prune one of the states.
    """


class ShardFileError(Exception):
    """A spill shard file is corrupt (bad magic, truncated, bad size).

    Raised loudly on open/probe instead of treating a damaged file as
    an empty seen-set, which would silently re-admit visited states and
    corrupt dedup counts.
    """


#: Spill shard file layout: a 32-byte header followed by ``capacity``
#: fixed-width 8-byte little-endian slots, open-addressed by the
#: fingerprint's low bits with linear probing.  Slot value 0 means
#: empty (a real fingerprint of 0 stays in the in-memory tier forever).
_SPILL_MAGIC = b"ZFPS1\0"
_SPILL_HEADER = struct.Struct("<6s2xQQ8x")  # magic, capacity, count
_SPILL_HEADER_SIZE = 32
assert _SPILL_HEADER.size == _SPILL_HEADER_SIZE

#: Default in-memory entries per shard before spilling to disk.
_SPILL_THRESHOLD = 1 << 16
#: Initial slot count of a fresh shard file (grows by doubling).
_SPILL_INITIAL_CAPACITY = 1 << 15
#: Load factor that triggers a rehash into a doubled file.
_SPILL_MAX_LOAD = 0.6


def spill_threshold_from_env(default: int = _SPILL_THRESHOLD) -> int:
    """The per-shard spill threshold, overridable via REPRO_FP_SPILL.

    CI uses a tiny value to force the spill path on small specs without
    burning 10⁷ states; the variable holds the entry count per shard.
    """
    raw = os.environ.get("REPRO_FP_SPILL")
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"REPRO_FP_SPILL must be an integer entry count, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"REPRO_FP_SPILL must be >= 1, got {value}")
    return value


class _SpillShard:
    """One shard's on-disk open-addressed fingerprint table (mmap'd).

    The file is probed in place; growth rewrites into a sibling file
    and atomically replaces (``os.replace``), so a crash leaves either
    the old or the new complete table, never a half-written one.  The
    header ``count`` is updated per insert, making truncation and
    header/size mismatches detectable on reopen.
    """

    __slots__ = ("path", "_file", "_mm", "capacity", "count")

    def __init__(self, path: str, capacity: int = _SPILL_INITIAL_CAPACITY):
        self.path = path
        if os.path.exists(path):
            self._open_existing()
        else:
            self._create(capacity)

    def _create(self, capacity: int) -> None:
        size = _SPILL_HEADER_SIZE + capacity * 8
        with open(self.path, "wb") as handle:
            handle.write(_SPILL_HEADER.pack(_SPILL_MAGIC, capacity, 0))
            handle.truncate(size)
        self._map(capacity, 0)

    def _open_existing(self) -> None:
        size = os.path.getsize(self.path)
        if size < _SPILL_HEADER_SIZE:
            raise ShardFileError(
                f"spill shard {self.path}: {size} bytes is smaller than "
                f"the {_SPILL_HEADER_SIZE}-byte header (truncated?)")
        with open(self.path, "rb") as handle:
            header = handle.read(_SPILL_HEADER_SIZE)
        magic, capacity, count = _SPILL_HEADER.unpack(header)
        if magic != _SPILL_MAGIC:
            raise ShardFileError(
                f"spill shard {self.path}: bad magic {magic!r} "
                f"(not a {_SPILL_MAGIC!r} shard file)")
        expected = _SPILL_HEADER_SIZE + capacity * 8
        if size != expected:
            raise ShardFileError(
                f"spill shard {self.path}: file is {size} bytes but the "
                f"header claims capacity {capacity} ({expected} bytes) — "
                "truncated or partially written; delete the store "
                "directory to restart from an empty seen-set")
        if count > capacity:
            raise ShardFileError(
                f"spill shard {self.path}: header count {count} exceeds "
                f"capacity {capacity}")
        self._map(capacity, count)

    def _map(self, capacity: int, count: int) -> None:
        self.capacity = capacity
        self.count = count
        self._file = open(self.path, "r+b")
        self._mm = mmap.mmap(self._file.fileno(), 0)

    def __contains__(self, fp: int) -> bool:
        mm = self._mm
        mask = self.capacity - 1
        index = fp & mask
        while True:
            offset = _SPILL_HEADER_SIZE + index * 8
            slot = int.from_bytes(mm[offset:offset + 8], "little")
            if slot == 0:
                return False
            if slot == fp:
                return True
            index = (index + 1) & mask

    def insert(self, fp: int) -> bool:
        """Add ``fp``; True iff it was new.  ``fp`` must be nonzero."""
        if self.count + 1 > self.capacity * _SPILL_MAX_LOAD:
            self._grow()
        mm = self._mm
        mask = self.capacity - 1
        index = fp & mask
        while True:
            offset = _SPILL_HEADER_SIZE + index * 8
            slot = int.from_bytes(mm[offset:offset + 8], "little")
            if slot == 0:
                mm[offset:offset + 8] = fp.to_bytes(8, "little")
                self.count += 1
                _SPILL_HEADER.pack_into(mm, 0, _SPILL_MAGIC, self.capacity,
                                        self.count)
                return True
            if slot == fp:
                return False
            index = (index + 1) & mask

    def _grow(self) -> None:
        old_mm = self._mm
        old_capacity = self.capacity
        capacity = old_capacity * 2
        size = _SPILL_HEADER_SIZE + capacity * 8
        tmp_path = self.path + ".rehash"
        with open(tmp_path, "wb") as handle:
            handle.write(_SPILL_HEADER.pack(_SPILL_MAGIC, capacity,
                                            self.count))
            handle.truncate(size)
        with open(tmp_path, "r+b") as handle:
            new_mm = mmap.mmap(handle.fileno(), 0)
            mask = capacity - 1
            for old_index in range(old_capacity):
                offset = _SPILL_HEADER_SIZE + old_index * 8
                raw = old_mm[offset:offset + 8]
                if raw == b"\0" * 8:
                    continue
                fp = int.from_bytes(raw, "little")
                index = fp & mask
                while True:
                    dst = _SPILL_HEADER_SIZE + index * 8
                    if new_mm[dst:dst + 8] == b"\0" * 8:
                        new_mm[dst:dst + 8] = raw
                        break
                    index = (index + 1) & mask
            new_mm.flush()
            new_mm.close()
        self.close()
        os.replace(tmp_path, self.path)
        self._map(capacity, self.count)

    def file_bytes(self) -> int:
        return _SPILL_HEADER_SIZE + self.capacity * 8

    def close(self) -> None:
        self._mm.flush()
        self._mm.close()
        self._file.close()


def _marshal_key(value):
    # Total order over heterogeneous normalized values, for sorting set
    # elements / dict items whose natural comparison raises TypeError.
    return marshal.dumps(value, 0)


#: Normalized forms of frozensets seen so far.  ``_norm`` is a pure
#: function, so caching is transparent; frozensets recur heavily across
#: states (switch tables, installed-rule sets) and their normalization
#: is the expensive path (sort + rebuild).  Process-local: the cache
#: key uses in-process ``hash()``, the cached *value* does not.
_FS_CACHE: dict = {}


def _norm(value):
    cls = value.__class__
    # Fast path: already marshal-canonical, returned untouched (no
    # allocation) — the overwhelmingly common case inside states.
    if cls is int or cls is str:
        return value
    if value is None or cls is bytes:
        return value
    if cls is bool:
        return int(value)  # True == 1 inside states
    if cls is float:
        # 1.0 == 1 inside states; -0.0 lands on 0 via the same rule.
        return int(value) if value.is_integer() else value
    if cls is tuple:
        # Rebuild only if some element changed.
        normed = None
        for index, item in enumerate(value):
            fixed = _norm(item)
            if normed is None:
                if fixed is item:
                    continue
                normed = list(value[:index])
            normed.append(fixed)
        return value if normed is None else tuple(normed)
    if cls is frozenset or cls is set or isinstance(value, (frozenset, set)):
        if cls is frozenset:
            cached = _FS_CACHE.get(value)
            if cached is not None:
                return cached
        elems = [_norm(item) for item in value]
        try:
            elems.sort()
        except TypeError:
            elems.sort(key=_marshal_key)
        normed = (Ellipsis, "fs", tuple(elems))
        if cls is frozenset:
            _FS_CACHE[value] = normed
        return normed
    if isinstance(value, dict):  # FrozenRecord subclasses dict
        items = [(_norm(key), _norm(item)) for key, item in value.items()]
        try:
            items.sort()
        except TypeError:
            items.sort(key=_marshal_key)
        return (Ellipsis, "d", tuple(items))
    if isinstance(value, tuple):  # tuple subclass (== a plain tuple)
        return tuple(_norm(item) for item in value)
    if isinstance(value, int):  # bool/int subclasses
        return int(value)
    if value is Ellipsis:
        return (Ellipsis, "e")  # keep the structural tags collision-free
    raise TypeError(
        f"cannot fingerprint a {type(value).__name__} leaf; states may "
        "only contain None/bool/int/float/str/bytes, tuples, "
        "(frozen)sets and FrozenRecords")


def canonical_bytes(state: State) -> bytes:
    """The equality-faithful, cross-interpreter-stable encoding."""
    return marshal.dumps((_norm(state.globals_), _norm(state.procs)), 0)


def fingerprint_bytes(payload: bytes) -> int:
    """Fold an encoding to a 64-bit fingerprint (BLAKE2b, fixed key)."""
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big")


def fingerprint_state(state: State) -> int:
    """The 64-bit fingerprint of ``state``."""
    return fingerprint_bytes(canonical_bytes(state))


def shard_of(fp: int) -> int:
    """The global shard (by fingerprint prefix) owning ``fp``."""
    return fp >> (64 - _SHARD_BITS)


class IncrementalFingerprinter:
    """Fingerprints via per-slot digests, updated along transitions.

    Re-encoding a whole state per successor costs ~20us on controller
    states; a step typically writes one or two slots.  This fingerprint
    represents a state as the concatenation of one 8-byte BLAKE2b
    digest per *slot* (each global variable, then each process's
    (pc, locals) pair) and hashes that fixed-width **vector** to the
    64-bit fingerprint.  A successor's vector is the parent's with only
    the transition's written slots re-digested — the dirty set comes
    from :func:`repro.spec.lang.changed_slots`, the slot-identity diff
    that is exact for the step's write footprint.

    Equality faithfulness: slot digests go through the same ``_norm``
    canonicalization as :func:`canonical_bytes`, so two states equal
    under Python ``==`` (slot-wise, by construction of ``State``)
    produce identical vectors; distinct states produce distinct vectors
    up to 64-bit digest collisions — the same collision model as full
    fingerprints, property-tested against them in the spec suite.  The
    incremental fingerprint *value* differs from ``fingerprint_state``
    (different encoding); only equality structure is shared, which is
    all a seen-set needs.

    Slot values recur massively across states (a queue tail, a settled
    switch table), so digests are memoized by value up to
    ``cache_limit`` entries; past the limit the fingerprinter keeps
    working, just without new memo entries.
    """

    _DIGEST_SIZE = 8

    def __init__(self, spec, cache_limit: int = 1 << 17):
        self.nglobals = len(spec.global_names)
        self.nprocs = len(spec.processes)
        self.cache_limit = cache_limit
        self._cache: dict = {}
        #: Slot digests consulted (fresh or memoized) — a deterministic
        #: work counter the ablation harness compares against the
        #: full-encoding engine's ``transitions × slot_count``.
        self.slots_digested = 0

    def _digest(self, value) -> bytes:
        cache = self._cache
        digest = cache.get(value)
        if digest is None:
            digest = hashlib.blake2b(
                marshal.dumps(_norm(value), 0),
                digest_size=self._DIGEST_SIZE).digest()
            if len(cache) < self.cache_limit:
                cache[value] = digest
        return digest

    def vector(self, state: State) -> bytes:
        """The full per-slot digest vector of ``state`` (from scratch)."""
        digest = self._digest
        self.slots_digested += self.nglobals + self.nprocs
        parts = [digest(value) for value in state.globals_]
        parts.extend(digest(slot) for slot in state.procs)
        return b"".join(parts)

    def update(self, parent_vector: bytes, parent: State,
               successor: State) -> bytes:
        """``successor``'s vector from its parent's, re-digesting only
        the transition's written slots.  ``successor`` must be the raw
        successor produced from ``parent`` (see ``changed_slots``)."""
        dirty_globals, dirty_procs = changed_slots(parent, successor)
        if not dirty_globals and not dirty_procs:
            return parent_vector
        self.slots_digested += len(dirty_globals) + len(dirty_procs)
        size = self._DIGEST_SIZE
        vec = bytearray(parent_vector)
        for index in dirty_globals:
            vec[index * size:(index + 1) * size] = \
                self._digest(successor.globals_[index])
        base = self.nglobals
        for index in dirty_procs:
            offset = (base + index) * size
            vec[offset:offset + size] = self._digest(successor.procs[index])
        return bytes(vec)

    def fingerprint(self, vector: bytes) -> int:
        """Fold a digest vector to the 64-bit fingerprint."""
        return fingerprint_bytes(vector)

    def fingerprint_state(self, state: State) -> int:
        """Convenience: the incremental-scheme fingerprint of a state."""
        return self.fingerprint(self.vector(state))


class FingerprintStore:
    """A seen-set of 64-bit fingerprints, sharded by prefix.

    ``owned`` restricts the store to a subset of the global shards (a
    parallel worker owns ``shard % nworkers == worker_id``); adding a
    fingerprint outside the owned shards is a programming error and
    raises.  In *exact mode* the canonical bytes ride along and any
    collision raises :class:`FingerprintCollisionError`.
    """

    def __init__(self, owned: Optional[Iterable[int]] = None,
                 exact: bool = False,
                 spill_dir: Optional[str] = None,
                 spill_threshold: Optional[int] = None):
        self.exact = exact
        self._owned = (frozenset(owned) if owned is not None
                       else frozenset(range(SHARDS)))
        self._shards: dict[int, set[int]] = {s: set() for s in self._owned}
        self._payloads: dict[int, bytes] = {} if exact else None
        self.hits = 0    #: dedup hits (fingerprint already present)
        self.adds = 0    #: fingerprints accepted as new
        self.spills = 0  #: shard flushes into the mmap tier
        if exact and spill_dir is not None:
            raise ValueError(
                "exact mode keeps full canonical payloads, which do not "
                "fit the fixed-width spill slots; drop exact or spill_dir")
        self.spill_dir = spill_dir
        self.spill_threshold = (spill_threshold if spill_threshold is not None
                                else spill_threshold_from_env())
        self._spill: dict[int, _SpillShard] = {}
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            # Reopen any existing shard files up front: membership must
            # survive a close/reopen cycle (crash-resume, swarm rounds),
            # and a corrupt file must fail loudly now, not mid-run.
            for shard in self._owned:
                path = self._spill_path(shard)
                if os.path.exists(path):
                    self._spill[shard] = _SpillShard(path)

    def _spill_path(self, shard: int) -> str:
        return os.path.join(self.spill_dir, f"shard-{shard:02d}.zfp")

    def _spill_shard(self, shard: int) -> None:
        """Flush a shard's in-memory tier into its mmap file."""
        tier = self._spill.get(shard)
        if tier is None:
            tier = self._spill[shard] = _SpillShard(self._spill_path(shard))
        bucket = self._shards[shard]
        keep_zero = 0 in bucket
        for fp in bucket:
            if fp:
                tier.insert(fp)
        bucket.clear()
        if keep_zero:
            # 0 is the empty-slot sentinel on disk; a real fingerprint
            # of 0 lives in memory forever (one int, once per run).
            bucket.add(0)
        self.spills += 1

    def add(self, fp: int, payload: Optional[bytes] = None) -> bool:
        """Record ``fp``; True iff it was new.

        ``payload`` (the canonical bytes) is required in exact mode and
        ignored otherwise.
        """
        shard = shard_of(fp)
        bucket = self._shards.get(shard)
        if bucket is None:
            raise ValueError(
                f"fingerprint {fp:#018x} belongs to shard {shard}, "
                f"not owned by this store")
        if fp in bucket:
            if self.exact and payload is not None \
                    and self._payloads[fp] != payload:
                raise FingerprintCollisionError(
                    f"fingerprint {fp:#018x} shared by two distinct "
                    "canonical states; rerun with more bits or a "
                    "smaller model")
            self.hits += 1
            return False
        tier = self._spill.get(shard)
        if tier is not None and fp in tier:
            self.hits += 1
            return False
        if self.exact:
            if payload is None:
                raise ValueError("exact mode requires the canonical bytes")
            self._payloads[fp] = payload
        bucket.add(fp)
        self.adds += 1
        if (self.spill_dir is not None
                and len(bucket) >= self.spill_threshold):
            self._spill_shard(shard)
        return True

    def __contains__(self, fp: int) -> bool:
        shard = shard_of(fp)
        bucket = self._shards.get(shard)
        if bucket is None:
            return False
        if fp in bucket:
            return True
        tier = self._spill.get(shard)
        return tier is not None and fp in tier

    def __len__(self) -> int:
        return (sum(len(bucket) for bucket in self._shards.values())
                + sum(tier.count for tier in self._spill.values()))

    def shard_sizes(self) -> dict[int, int]:
        """Occupancy per owned shard (for balance diagnostics)."""
        return {shard: len(bucket) + (self._spill[shard].count
                                      if shard in self._spill else 0)
                for shard, bucket in sorted(self._shards.items())}

    def hit_rate(self) -> float:
        """Fraction of ``add`` calls that were duplicates."""
        total = self.hits + self.adds
        return self.hits / total if total else 0.0

    def store_bytes(self) -> int:
        """Measured seen-set footprint: spill file bytes plus a nominal
        8 bytes per in-memory fingerprint (the ablation metric the
        modeled figure approximates)."""
        return (sum(tier.file_bytes() for tier in self._spill.values())
                + sum(len(bucket) for bucket in self._shards.values()) * 8)

    def spilled(self) -> int:
        """Fingerprints currently held by the mmap tier."""
        return sum(tier.count for tier in self._spill.values())

    def close(self) -> None:
        """Flush and close spill shard files (memory tiers remain)."""
        for tier in self._spill.values():
            tier.close()
        self._spill.clear()

"""Pooled struct-of-arrays storage for every node's ads cache.

At paper scale (10k peers) the object-backed :class:`~repro.asap.repository.
AdsRepository` is fine; two orders of magnitude up it is the memory wall:
one :class:`~repro.asap.repository.CacheEntry` costs ~270 bytes (instance +
``__dict__`` + boxed float + dict slot), and a warmed-up 100k-peer cell
holds tens of millions of (peer, source) cache pairs.  The arena keeps the
per-pair *state* in flat numpy arrays -- version, interned topic-set code,
last-refresh timestamp and the ``behind`` flag, 17 bytes per pair --
indexed by rows handed out from a compact free-list.  One
:class:`PairTable` maps every ``(peer, source)`` pair to its row, so the
protocol's receiver merges resolve whole delivery arrays in a few numpy
passes.  Each repository keeps an insertion-ordered ``(source, row)``
mirror of its own pairs -- exactly the order of the entry dict it
replaces -- so every ordering the protocol depends on (LRU tie-breaks,
lookup iteration, digest set arithmetic) is preserved bit-for-bit.

Topic sets are interned: ads re-use a small population of frozensets (the
semantic classes of each source's content), so one ``int32`` code per pair
replaces a pointer to a frozenset.  Timestamps stay ``float64`` -- they take
part in LRU comparisons and must round-trip exactly.

:class:`ArenaRepository` implements the complete ``AdsRepository`` contract
(``accept``/``accept_snapshot``/``lookup``/eviction/``entries`` mapping
view), so the object-backed class remains available as a differential
oracle: constructing :class:`~repro.asap.protocol.AsapSearch` under
:func:`repro.sim.kernels.reference_mode` selects the object backend, and
the run fingerprints of both backends are asserted bit-equal in
``tests/test_soa_differential.py``.

:class:`CacherIndex` is the matching inverse index: ``cachers[source]`` as
a packed per-source bitset over nodes (n/8 bytes) instead of a Python set
(~60 bytes per member), with the set-like surface the protocol uses.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.repository import CacheEntry
from repro.asap.store import SourceFilterStore

__all__ = [
    "AdsArena",
    "ArenaRepository",
    "CacherIndex",
    "CacherSet",
    "PairTable",
    "SOURCE_MASK",
    "pair_key",
]

#: Low 32 bits of a pair key: the source.
SOURCE_MASK = 0xFFFFFFFF

_EMPTY = -1  # never-used slot: ends every probe chain
_TOMBSTONE = -2  # deleted slot: probes continue past it; rebuilds purge it
_HASH_MUL = 0x9E3779B97F4A7C15  # Fibonacci hashing: 2^64 / golden ratio
_U64 = 0xFFFFFFFFFFFFFFFF
_HASH_MUL_I64 = np.int64(_HASH_MUL - (1 << 64))  # same bits, as int64
#: Keys still probing below which scalar probes beat another numpy pass.
_VECTOR_MIN = 16
_REBUILD_CHUNK = 1 << 16


def pair_key(peer, source):
    """The :class:`PairTable` key of ``(peer, source)``: ``peer << 32 | source``.

    Works on Python ints and on int64 arrays alike.
    """
    return (peer << 32) | source


class PairTable:
    """Open-addressing hash table from int64 pair keys to int32 arena rows.

    Linear probing over power-of-two slot arrays with Fibonacci hashing.
    Deletes leave tombstones, which probes walk past; inserts fill empty
    slots only.  Once live entries plus tombstones would pass half the
    slots, the table is rebuilt at the smallest power of two above three
    times the live count (growth doubles it; a tombstone purge may also
    shrink it).  The bulk methods resolve a whole key array in a few
    vectorized passes, one per probe distance, and finish the last few
    keys with scalar probes; the scalar methods serve the cold paths.
    Keys must be non-negative.
    """

    __slots__ = ("keys", "rows", "_bits", "_live", "_used")

    def __init__(self, capacity: int = 16) -> None:
        bits = 4
        while (1 << bits) < capacity:
            bits += 1
        self._reset(bits)

    def _reset(self, bits: int) -> None:
        self.keys = np.full(1 << bits, _EMPTY, dtype=np.int64)
        self.rows = np.zeros(1 << bits, dtype=np.int32)
        self._bits = bits
        self._live = 0
        self._used = 0  # live + tombstones

    def __len__(self) -> int:
        return self._live

    @property
    def nbytes(self) -> int:
        return int(self.keys.nbytes + self.rows.nbytes)

    # ------------------------------------------------------------- hashing
    def _home(self, keys: np.ndarray) -> np.ndarray:
        # Wrapping int64 product; the arithmetic shift's sign fill is
        # masked off, leaving the product's top ``_bits`` bits.
        return ((keys * _HASH_MUL_I64) >> (64 - self._bits)) & (len(self.keys) - 1)

    def _home1(self, key: int) -> int:
        return ((key * _HASH_MUL) & _U64) >> (64 - self._bits)

    def _probe(self, key: int, pos: int) -> int:
        """Slot of ``key``, probing on from slot ``pos``.

        An absent key gives ``~end``, where ``end`` is the empty slot that
        ended the probe: the slot an insert of that key may fill.
        """
        table = self.keys
        mask = len(table) - 1
        while True:
            k = table[pos]
            if k == key:
                return pos
            if k == _EMPTY:
                return ~pos
            pos = (pos + 1) & mask

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`_probe` for each key, from its home slot."""
        keys = np.asarray(keys, dtype=np.int64)
        table = self.keys
        mask = len(table) - 1
        pos = self._home(keys)
        k = table[pos]
        hit = k == keys
        out = np.where(hit, pos, ~pos)
        idx = np.flatnonzero(~hit & (k != _EMPTY))
        pos, keys = pos[idx], keys[idx]
        while idx.size > _VECTOR_MIN:
            pos = (pos + 1) & mask
            k = table[pos]
            hit = k == keys
            out[idx] = np.where(hit, pos, ~pos)
            go = np.flatnonzero(~hit & (k != _EMPTY))
            idx, pos, keys = idx[go], pos[go], keys[go]
        for i, key, p in zip(idx.tolist(), keys.tolist(), pos.tolist()):
            out[i] = self._probe(key, (p + 1) & mask)
        return out

    # ---------------------------------------------------------------- bulk
    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Row of each key, ``-1`` where absent."""
        pos = self._find(keys)
        return np.where(pos >= 0, self.rows[pos], -1)

    def lookup_or_insert(
        self, keys: np.ndarray, alloc: Callable[[int], np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Rows of distinct ``keys``, inserting the absent ones.

        The absent keys get the rows of one ``alloc(count)`` call, in key
        order.  Returns ``(rows, inserted)``, ``inserted`` indexing the
        keys that were absent.  One probe serves both halves: an absent key
        goes to the empty slot that ended its probe, unless another absent
        key claims that slot first.
        """
        keys = np.asarray(keys, dtype=np.int64)
        pos = self._find(keys)
        rows = self.rows[pos].astype(np.int64)
        inserted = np.flatnonzero(pos < 0)
        rows[inserted] = new = alloc(inserted.size)
        if 2 * (self._used + inserted.size) > len(self.keys):
            self._rebuild(self._live + inserted.size)
            self._place(keys[inserted], new)
        else:
            self._place(keys[inserted], new, ~pos[inserted])
        return rows, inserted

    def insert_many(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Insert ``keys -> rows``; the keys must be distinct and absent."""
        keys = np.asarray(keys, dtype=np.int64)
        if 2 * (self._used + keys.size) > len(self.keys):
            self._rebuild(self._live + keys.size)
        self._place(keys, np.asarray(rows))

    def _place(
        self, keys: np.ndarray, rows: np.ndarray, pos: Optional[np.ndarray] = None
    ) -> None:
        """Store absent keys, probing from ``pos`` (default: home slots)."""
        table = self.keys
        mask = len(table) - 1
        if pos is None:
            pos = self._home(keys)
        self._live += keys.size
        self._used += keys.size
        while keys.size > _VECTOR_MIN:
            free = table[pos] == _EMPTY
            # Keys racing for one empty slot: one write lands, and exactly
            # that key claims the slot (keys are distinct).
            table[pos[free]] = keys[free]
            won = table[pos] == keys
            self.rows[pos[won]] = rows[won]
            go = ~won
            keys, rows, pos = keys[go], rows[go], (pos[go] + 1) & mask
        for key, row, p in zip(keys.tolist(), rows.tolist(), pos.tolist()):
            end = ~self._probe(key, p)
            table[end] = key
            self.rows[end] = row

    def delete_many(self, keys: np.ndarray) -> np.ndarray:
        """Delete distinct keys; returns their rows (``-1`` where absent)."""
        pos = self._find(keys)
        found = pos >= 0
        out = np.where(found, self.rows[pos], -1)
        self.keys[pos[found]] = _TOMBSTONE
        self._live -= int(np.count_nonzero(found))
        return out

    def items(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, rows)`` of every live entry, in slot order."""
        live = self.keys >= 0
        return self.keys[live], self.rows[live]

    def _rebuild(self, live_after: int) -> None:
        keys, rows = self.items()
        bits = 4
        while (1 << bits) <= 3 * live_after:
            bits += 1
        self._reset(bits)
        # Chunked, so the probe temporaries stay small next to the table.
        for i in range(0, keys.size, _REBUILD_CHUNK):
            self._place(keys[i : i + _REBUILD_CHUNK], rows[i : i + _REBUILD_CHUNK])

    # -------------------------------------------------------------- scalar
    def get(self, key: int) -> int:
        """Row of ``key``, ``-1`` if absent."""
        pos = self._probe(key, self._home1(key))
        return int(self.rows[pos]) if pos >= 0 else -1

    def insert(self, key: int, row: int) -> None:
        """Map ``key`` to ``row``, replacing any existing mapping."""
        if 2 * (self._used + 1) > len(self.keys):
            self._rebuild(self._live + 1)
        pos = self._probe(key, self._home1(key))
        if pos < 0:
            pos = ~pos
            self.keys[pos] = key
            self._live += 1
            self._used += 1
        self.rows[pos] = row

    def delete(self, key: int) -> int:
        """Delete ``key``; returns its row, ``-1`` if absent."""
        pos = self._probe(key, self._home1(key))
        if pos < 0:
            return -1
        self.keys[pos] = _TOMBSTONE
        self._live -= 1
        return int(self.rows[pos])


class MirrorPool:
    """Every repository's insertion-ordered ``(source, row)`` list, pooled.

    List ``i`` (the repository of owner ``i``) is the segment
    ``[start[i], start[i] + size[i])`` of two shared int32 arrays, with room
    for ``cap[i]`` entries.  A full segment moves to the pool's free end
    with twice the room; when the end runs out, every segment is packed
    into a fresh pool, doubled while the reserved room would pass three
    quarters of it.  Appending one entry to each of many lists -- a full
    ad's new holders -- is then a few vector operations.
    """

    __slots__ = ("src", "row", "start", "size", "cap", "_top")

    def __init__(self, capacity: int = 1024) -> None:
        self.src = np.zeros(capacity, dtype=np.int32)
        self.row = np.zeros(capacity, dtype=np.int32)
        self.start = np.zeros(0, dtype=np.int64)
        self.size = np.zeros(0, dtype=np.int64)
        self.cap = np.zeros(0, dtype=np.int64)
        self._top = 0  # pool's free end

    @property
    def nbytes(self) -> int:
        return int(
            self.src.nbytes + self.row.nbytes
            + self.start.nbytes + self.size.nbytes + self.cap.nbytes
        )

    def register(self, owner: int) -> None:
        """Give list ``owner`` (and every lower id) an empty segment."""
        n = len(self.start)
        if owner < n:
            return
        m = max(owner + 1, 2 * n)
        for name in ("start", "size", "cap"):
            out = np.zeros(m, dtype=np.int64)
            out[:n] = getattr(self, name)
            setattr(self, name, out)

    def pairs(self, owner: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of list ``owner``: ``(sources, rows)`` in insertion order."""
        s = self.start[owner]
        n = self.size[owner]
        return self.src[s : s + n], self.row[s : s + n]

    def append_many(self, owners: np.ndarray, source: int, rows: np.ndarray) -> None:
        """Append ``(source, rows[j])`` to list ``owners[j]``; owners distinct."""
        for owner in owners[self.size[owners] == self.cap[owners]].tolist():
            self._move(owner, 0)
        at = self.start[owners] + self.size[owners]
        self.src[at] = source
        self.row[at] = rows
        self.size[owners] += 1

    def extend(self, owner: int, sources: np.ndarray, rows: np.ndarray) -> None:
        n, k = int(self.size[owner]), len(sources)
        if n + k > self.cap[owner]:
            self._move(owner, n + k)
        at = int(self.start[owner]) + n
        self.src[at : at + k] = sources
        self.row[at : at + k] = rows
        self.size[owner] = n + k

    def keep(self, owner: int, mask: np.ndarray) -> None:
        """Keep the positions of list ``owner`` where ``mask`` is set."""
        s, n = int(self.start[owner]), int(self.size[owner])
        m = int(np.count_nonzero(mask))
        self.src[s : s + m] = self.src[s : s + n][mask]
        self.row[s : s + m] = self.row[s : s + n][mask]
        self.size[owner] = m

    def _move(self, owner: int, need: int) -> None:
        """Move list ``owner`` to the free end with room for ``need``."""
        cap = max(32, 2 * int(self.cap[owner]), need)
        if self._top + cap > len(self.src):
            self._pack(cap)
        s, n, t = int(self.start[owner]), int(self.size[owner]), self._top
        self.src[t : t + n] = self.src[s : s + n]
        self.row[t : t + n] = self.row[s : s + n]
        self.start[owner] = t
        self.cap[owner] = cap
        self._top = t + cap

    def _pack(self, extra: int) -> None:
        """Pack every segment into a fresh pool with ``extra`` free room."""
        reserved = int(self.cap.sum())
        size = len(self.src)
        while 4 * (reserved + extra) > 3 * size:
            size *= 2
        start = np.cumsum(self.cap) - self.cap
        src = np.zeros(size, dtype=np.int32)
        row = np.zeros(size, dtype=np.int32)
        # A slice copy per list: no temporaries the size of the pool.
        for i in np.flatnonzero(self.size).tolist():
            s, t, n = self.start[i], start[i], self.size[i]
            src[t : t + n] = self.src[s : s + n]
            row[t : t + n] = self.row[s : s + n]
        self.src, self.row, self.start = src, row, start
        self._top = reserved


class AdsArena:
    """Pooled (peer, source) cache-entry state shared by all repositories."""

    __slots__ = (
        "version",
        "topics_code",
        "cached_at",
        "behind",
        "index",
        "mirrors",
        "_free",
        "_n_free",
        "_top",
        "_code_of",
        "_topics_list",
    )

    def __init__(self, initial_rows: int = 1024) -> None:
        n = max(int(initial_rows), 16)
        self.version = np.zeros(n, dtype=np.int32)
        self.topics_code = np.zeros(n, dtype=np.int32)
        self.cached_at = np.zeros(n, dtype=np.float64)
        # The entry lags its source's filter (missed patches); cleared
        # whenever the row is released, so a recycled row starts clean.
        self.behind = np.zeros(n, dtype=bool)
        self.index = PairTable(2 * n)
        self.mirrors = MirrorPool(2 * n)
        self._free = np.zeros(64, dtype=np.int32)  # recycled rows, LIFO
        self._n_free = 0
        self._top = 0  # next never-used row
        self._code_of: Dict[FrozenSet[int], int] = {}
        self._topics_list: List[FrozenSet[int]] = []

    # ------------------------------------------------------------- rows
    def _grow(self) -> None:
        n = len(self.version)
        for name in ("version", "topics_code", "cached_at", "behind"):
            arr = getattr(self, name)
            out = np.zeros(2 * n, dtype=arr.dtype)
            out[:n] = arr
            setattr(self, name, out)

    def alloc(self) -> int:
        """Hand out a row: recycled from the free-list, else fresh."""
        if self._n_free:
            self._n_free -= 1
            return int(self._free[self._n_free])
        if self._top >= len(self.version):
            self._grow()
        row = self._top
        self._top += 1
        return row

    def alloc_many(self, k: int) -> np.ndarray:
        """``k`` rows, exactly those ``k`` successive :meth:`alloc` calls return.

        May grow the pool, so array handles must be read after the call.
        """
        self.reserve(k)
        take = min(k, self._n_free)
        out = np.empty(k, dtype=np.int64)
        out[:take] = self._free[self._n_free - take : self._n_free][::-1]
        self._n_free -= take
        out[take:] = np.arange(self._top, self._top + k - take)
        self._top += k - take
        return out

    def release(self, row: int) -> None:
        self.release_many([row])

    def release_many(self, rows: np.ndarray) -> None:
        """Recycle rows; they come back out of :meth:`alloc` last-in first-out."""
        n, k = self._n_free, len(rows)
        if n + k > len(self._free):
            self._free = np.resize(self._free, 2 * (n + k))
        self._free[n : n + k] = rows
        self._n_free = n + k
        self.behind[rows] = False

    def evict_oldest(self, owners: np.ndarray, capacity: int) -> np.ndarray:
        """One LRU eviction from each of ``owners``' caches (owners distinct).

        Each cache holds ``capacity + 1`` entries, the last one just stored
        and spared: the victim is the first minimal ``cached_at`` among the
        others, in insertion order -- what ``ArenaRepository._evict`` picks.
        Returns the victims' sources, aligned with ``owners``.
        """
        m = self.mirrors
        pos = m.start[owners][:, None] + np.arange(capacity + 1)
        srcs, rows = m.src[pos], m.row[pos]
        pick = np.argmin(self.cached_at[rows[:, :capacity]], axis=1)
        victims = srcs[np.arange(owners.size), pick].astype(np.int64)
        victim_rows = rows[np.arange(owners.size), pick]
        # Close each gap: entries after the victim move down one place.
        shift = np.arange(capacity) >= pick[:, None]
        at = pos[:, :capacity]
        m.src[at] = np.where(shift, srcs[:, 1:], srcs[:, :capacity])
        m.row[at] = np.where(shift, rows[:, 1:], rows[:, :capacity])
        m.size[owners] -= 1
        self.index.delete_many(pair_key(owners, victims))
        self.release_many(victim_rows)
        return victims

    def free_rows(self) -> np.ndarray:
        return self._free[: self._n_free]

    def reserve(self, k: int) -> None:
        """Grow the pool until ``k`` allocs cannot trigger a reallocation."""
        need = self._top + max(int(k) - self._n_free, 0)
        while need > len(self.version):
            self._grow()

    # ------------------------------------------------------------ topics
    def intern_topics(self, topics: FrozenSet[int]) -> int:
        """Code for a topic set; one code per distinct frozenset."""
        code = self._code_of.get(topics)
        if code is None:
            fs = frozenset(topics)
            code = len(self._topics_list)
            self._topics_list.append(fs)
            self._code_of[fs] = code
        return code

    def topics_of(self, code: int) -> FrozenSet[int]:
        return self._topics_list[code]

    # ------------------------------------------------------------- stats
    def stats(self) -> Dict[str, int]:
        """Arena utilisation: pool size, live rows, free-list depth.

        ``pool_bytes`` covers every pooled byte of cache state: the row
        columns, the pair table, the repositories' mirrors and the
        free-list.
        """
        return {
            "rows_allocated": int(self._top),
            "rows_live": int(self._top - self._n_free),
            "free_list_depth": int(self._n_free),
            "pool_rows": int(len(self.version)),
            "pool_bytes": int(
                self.version.nbytes
                + self.topics_code.nbytes
                + self.cached_at.nbytes
                + self.behind.nbytes
                + self.index.nbytes
                + self.mirrors.nbytes
                + self._free.nbytes
            ),
            "topic_sets_interned": len(self._topics_list),
        }


class ArenaRepository:
    """Arena-backed ads cache with the exact ``AdsRepository`` contract.

    Only the storage primitive changes: entries live as arena rows found
    through the arena's :class:`PairTable`, and the repository's mirror --
    its sources and their rows in insertion order -- mirrors the entry dict
    of the object-backed class operation for operation (same insertions,
    same deletions, same iteration order), so eviction tie-breaks and
    lookup orders are bit-identical.
    """

    __slots__ = ("owner", "interests", "store", "capacity", "arena")

    def __init__(
        self,
        owner: int,
        interests: Set[int],
        store: SourceFilterStore,
        arena: AdsArena,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive (or None for unbounded)")
        self.owner = owner
        self.interests = set(interests)
        self.store = store
        self.capacity = capacity
        self.arena = arena
        arena.mirrors.register(owner)

    # -------------------------------------------------------------- basics
    def __len__(self) -> int:
        return int(self.arena.mirrors.size[self.owner])

    def __contains__(self, source: int) -> bool:
        return self._row(source) >= 0

    def sources(self) -> np.ndarray:
        """Cached sources in insertion order (a copy)."""
        return self._pairs()[0].copy()

    def _pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the mirror: ``(sources, rows)`` in insertion order.

        The mirror follows the object-backed entry dict exactly:
        re-storing an existing source keeps its position, drop + re-insert
        moves it to the end.
        """
        return self.arena.mirrors.pairs(self.owner)

    def _row(self, source: int) -> int:
        return self.arena.index.get(pair_key(self.owner, source))

    def _entry_at(self, source: int, row: int) -> CacheEntry:
        arena = self.arena
        return CacheEntry(
            source=source,
            version=int(arena.version[row]),
            topics=arena.topics_of(int(arena.topics_code[row])),
            cached_at=float(arena.cached_at[row]),
        )

    def entry(self, source: int) -> Optional[CacheEntry]:
        """A copy of the entry for ``source``, or ``None``."""
        row = self._row(source)
        return None if row < 0 else self._entry_at(source, row)

    @property
    def entries(self) -> Dict[int, CacheEntry]:
        """The cache as ``AdsRepository.entries`` holds it (a snapshot).

        Insertion-ordered ``source -> CacheEntry`` copies, for the cold
        inspection paths: tests, and the reference protocol loops run over
        an arena-backed instance.
        """
        srcs, rows = self._pairs()
        return {
            s: self._entry_at(s, r) for s, r in zip(srcs.tolist(), rows.tolist())
        }

    @property
    def behind(self) -> Set[int]:
        """Sources whose entry lags its source's filter (a snapshot).

        The state is the arena's per-row ``behind`` flag, cleared when the
        row is released: an entry's behind state goes with it, as the
        object-backed class's ``behind`` set stays a subset of its entries.
        """
        srcs, rows = self._pairs()
        return set(srcs[self.arena.behind[rows]].tolist())

    def interested_in(self, topics: FrozenSet[int]) -> bool:
        """Nonempty intersection between ad topics and owner interests."""
        return bool(self.interests & topics)

    # ------------------------------------------------------------- storage
    def store_entry(
        self, source: int, version: int, topics: FrozenSet[int], now: float
    ) -> int:
        """Create or overwrite the entry for ``source``; returns its row.

        The behind flag is left as it was (a new row starts clear).
        """
        arena = self.arena
        row = self._row(source)
        if row < 0:
            row = arena.alloc()
            arena.index.insert(pair_key(self.owner, source), row)
            arena.mirrors.extend(self.owner, [source], [row])
        arena.version[row] = version
        arena.topics_code[row] = arena.intern_topics(topics)
        arena.cached_at[row] = now
        return row

    def _drop_at(self, i: int) -> int:
        """Drop the entry at mirror position ``i``; returns its source."""
        srcs, rows = self._pairs()
        source, row = int(srcs[i]), int(rows[i])
        kept = np.ones(srcs.size, dtype=bool)
        kept[i] = False
        self.arena.mirrors.keep(self.owner, kept)
        self.arena.index.delete(pair_key(self.owner, source))
        self.arena.release(row)
        return source

    # --------------------------------------------------------------- accept
    def accept(self, ad: Ad, now: float) -> Tuple[bool, List[int]]:
        """Process a received ad -- see ``AdsRepository.accept``."""
        if ad.source == self.owner:
            return False, []
        row = self._row(ad.source)
        if row < 0 and not self.interested_in(ad.topics):
            return False, []

        arena = self.arena
        if ad.ad_type is AdType.FULL:
            row = self.store_entry(ad.source, ad.version, ad.topics, now)
            self._sync_behind(row, ad.source, ad.version)
            return True, self._evict(protect=ad.source)

        if row < 0:
            # Patches and refreshes are meaningless without a base entry.
            return False, []

        if ad.ad_type is AdType.PATCH:
            held = int(arena.version[row])
            if ad.version == held + 1:
                arena.version[row] = ad.version
                arena.topics_code[row] = arena.intern_topics(ad.topics)
                arena.cached_at[row] = now
                self._sync_behind(row, ad.source, ad.version)
            elif ad.version > held:
                arena.behind[row] = True
                arena.cached_at[row] = now
            # Older patches carry nothing new.
            return True, []

        # REFRESH: renew recency; detect missed patches via the version.
        arena.cached_at[row] = now
        if ad.version > int(arena.version[row]):
            arena.behind[row] = True
        return True, []

    def accept_snapshot(
        self,
        source: int,
        version: int,
        topics: FrozenSet[int],
        now: float,
    ) -> Tuple[bool, List[int]]:
        """Merge an ads-request reply entry -- see ``AdsRepository``."""
        if source == self.owner or not self.interested_in(topics):
            return False, []
        row = self._row(source)
        if row >= 0 and int(self.arena.version[row]) >= version:
            self.arena.cached_at[row] = now
            return False, []
        row = self.store_entry(source, version, topics, now)
        self._sync_behind(row, source, version)
        return True, self._evict(protect=source)

    def _sync_behind(self, row: int, source: int, version: int) -> None:
        self.arena.behind[row] = version < self.store.version(source)

    def mark_behind(self, source: int) -> None:
        """The source patched past us without reaching this cache."""
        row = self._row(source)
        if row >= 0:
            self.arena.behind[row] = True

    def remove(self, source: int) -> None:
        """Drop an entry (typically after a failed confirmation)."""
        at = np.flatnonzero(self._pairs()[0] == source)
        if at.size:
            self._drop_at(int(at[0]))

    def _evict(self, protect: int) -> List[int]:
        """LRU-evict past capacity, never evicting the just-stored entry.

        The victim scan runs over the insertion-ordered mirror: one
        ``cached_at`` gather plus ``argmin``, whose first-occurrence rule
        over insertion order is exactly what ``min`` over the entry dict
        does in the object-backed class, so ties evict the same victim.
        """
        evicted: List[int] = []
        if self.capacity is None:
            return evicted
        cached_at = self.arena.cached_at
        while len(self) > self.capacity:
            srcs, rows = self._pairs()
            ts = cached_at[rows]
            ts[srcs == protect] = np.inf
            evicted.append(self._drop_at(int(np.argmin(ts))))
        return evicted

    # --------------------------------------------------------------- lookup
    def lookup(
        self, positions: np.ndarray, current_match: np.ndarray
    ) -> List[int]:
        """Sources whose cached ad matches all query-term positions."""
        srcs, rows = self._pairs()
        lagging = self.arena.behind[rows]
        hits = srcs[current_match[srcs] & ~lagging & (srcs != self.owner)].tolist()
        version = self.arena.version
        for s, row in zip(srcs[lagging].tolist(), rows[lagging].tolist()):
            # The current-filter answer is already computed for every
            # source; passing it lets the store skip the bit gather when no
            # later patch touches the queried positions (value-identical).
            if s != self.owner and self.store.match_at_version(
                s, int(version[row]), positions, current=bool(current_match[s])
            ):
                hits.append(s)
        return sorted(hits)


class CacherSet:
    """Set-like view of one source's cachers, backed by a packed bitset.

    Storage is a ``bytearray`` (n/8 bytes): single-node operations are
    plain Python int/byte arithmetic (~10x cheaper than numpy scalar
    indexing on this hot path), while bulk operations go through a zero-
    copy ``np.frombuffer`` view.
    """

    __slots__ = ("_bits", "n_nodes")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._bits = bytearray((n_nodes + 7) // 8)

    # ------------------------------------------------------------ mutation
    def add(self, node: int) -> None:
        self._bits[node >> 3] |= 1 << (node & 7)

    def discard(self, node: int) -> None:
        self._bits[node >> 3] &= ~(1 << (node & 7))

    def update(self, nodes: Iterable[int]) -> None:
        idx = np.asarray(nodes if isinstance(nodes, (list, np.ndarray)) else list(nodes), dtype=np.int64)
        if len(idx) == 0:
            return
        view = np.frombuffer(self._bits, dtype=np.uint8)
        np.bitwise_or.at(view, idx >> 3, (1 << (idx & 7)).astype(np.uint8))

    # ------------------------------------------------------------- queries
    def __contains__(self, node: int) -> bool:
        return bool(self._bits[node >> 3] & (1 << (node & 7)))

    def packed(self) -> np.ndarray:
        """The bitset as little-endian packed uint8 bits (a live view)."""
        return np.frombuffer(self._bits, dtype=np.uint8)

    def mask(self) -> np.ndarray:
        """Per-node boolean membership array (a fresh copy)."""
        return np.unpackbits(
            self.packed(), count=self.n_nodes, bitorder="little"
        ).view(bool)

    def _members(self) -> np.ndarray:
        return np.flatnonzero(self.mask())

    def __iter__(self) -> Iterator[int]:
        return iter(self._members().tolist())

    def __len__(self) -> int:
        return len(self._members())

    def __bool__(self) -> bool:
        return any(self._bits)

    def difference(self, other) -> Set[int]:
        return {n for n in self._members().tolist() if n not in other}

    def __sub__(self, other) -> Set[int]:
        return self.difference(other)


class CacherIndex:
    """``defaultdict(set)``-compatible inverse index: source -> cacher bitset.

    Bitset rows materialise lazily on first access, so only sources that
    ever gained a cacher pay the n/8 bytes.
    """

    __slots__ = ("n_nodes", "_rows")

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._rows: Dict[int, CacherSet] = {}

    def __getitem__(self, source: int) -> CacherSet:
        row = self._rows.get(source)
        if row is None:
            row = CacherSet(self.n_nodes)
            self._rows[source] = row
        return row

    def __contains__(self, source: int) -> bool:
        return source in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def items(self) -> Iterator[Tuple[int, CacherSet]]:
        return iter(self._rows.items())

    def keys(self):
        return self._rows.keys()

    def values(self):
        return self._rows.values()

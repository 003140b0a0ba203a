"""The pooled pair index: ``PairTable`` against a ``dict`` oracle, plus the
bulk row and mirror primitives of ``AdsArena``.

``PairTable`` is the one (peer, source) -> row map behind every arena
repository, so it is checked the way its callers use it: random sequences
of bulk and scalar inserts, deletes and lookups, mixed, over key pools
that include ``(0, 0)`` and ids at and above ``2**20``.  A table whose
hash sends every key to one home slot forces every probe path through
collisions and tombstones.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asap.arena import AdsArena, ArenaRepository, PairTable, pair_key
from repro.asap.store import SourceFilterStore
from repro.workload.content import ContentIndex


class _CollidingTable(PairTable):
    """Every key hashes to slot 0: probe chains are the whole cluster."""

    __slots__ = ()

    def _home(self, keys):
        return np.zeros(np.shape(keys), dtype=np.int64)

    def _home1(self, key):
        return 0


_IDS = st.one_of(
    st.integers(0, 3),
    st.integers(2**20, 2**20 + 3),
    st.integers(2**31 - 2, 2**31 - 1),
)
_KEYS = st.builds(pair_key, _IDS, _IDS)
_BATCH = st.lists(_KEYS, max_size=40)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert_many"), _BATCH),
        st.tuples(st.just("delete_many"), _BATCH),
        st.tuples(st.just("lookup"), _BATCH),
        st.tuples(st.just("lookup_or_insert"), _BATCH),
        st.tuples(st.just("insert"), _KEYS),
        st.tuples(st.just("delete"), _KEYS),
        st.tuples(st.just("get"), _KEYS),
    ),
    max_size=60,
)


def _run_against_oracle(table, ops):
    oracle = {}
    next_row = 0
    for op, arg in ops:
        if op == "insert_many":
            # Contract: distinct keys, none present.
            keys = [k for k in dict.fromkeys(arg) if k not in oracle]
            rows = np.arange(next_row, next_row + len(keys))
            next_row += len(keys)
            table.insert_many(np.asarray(keys, dtype=np.int64), rows)
            oracle.update(zip(keys, rows.tolist()))
        elif op == "delete_many":
            keys = list(dict.fromkeys(arg))
            got = table.delete_many(np.asarray(keys, dtype=np.int64))
            assert got.tolist() == [oracle.pop(k, -1) for k in keys]
        elif op == "lookup":
            got = table.lookup(np.asarray(arg, dtype=np.int64))
            assert got.tolist() == [oracle.get(k, -1) for k in arg]
        elif op == "lookup_or_insert":
            keys = list(dict.fromkeys(arg))
            absent = [i for i, k in enumerate(keys) if k not in oracle]
            rows, inserted = table.lookup_or_insert(
                np.asarray(keys, dtype=np.int64),
                lambda k: np.arange(next_row, next_row + k),
            )
            assert inserted.tolist() == absent
            oracle.update(
                (keys[i], next_row + j) for j, i in enumerate(absent)
            )
            next_row += len(absent)
            assert rows.tolist() == [oracle[k] for k in keys]
        elif op == "insert":
            table.insert(arg, next_row)
            oracle[arg] = next_row
            next_row += 1
        elif op == "delete":
            assert table.delete(arg) == oracle.pop(arg, -1)
        else:
            assert table.get(arg) == oracle.get(arg, -1)
        assert len(table) == len(oracle)
        # Rebuild discipline: live + tombstones never pass half the slots.
        assert 2 * table._used <= len(table.keys)
    keys, rows = table.items()
    assert dict(zip(keys.tolist(), rows.tolist())) == oracle


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_pair_table_matches_dict(ops):
    _run_against_oracle(PairTable(16), ops)


@settings(max_examples=100, deadline=None)
@given(_OPS)
def test_colliding_pair_table_matches_dict(ops):
    _run_against_oracle(_CollidingTable(16), ops)


def test_tombstones_are_walked_then_purged_by_rebuild():
    table = PairTable(64)
    keys = pair_key(np.arange(6, dtype=np.int64), 7)
    table.insert_many(keys, np.arange(6))
    assert table.delete_many(keys[:5]).tolist() == [0, 1, 2, 3, 4]
    # Probes walk past the tombstones to the survivor.
    assert table.lookup(keys).tolist() == [-1] * 5 + [5]
    used = table._used
    for i, key in enumerate(keys[:5].tolist()):
        table.insert(key, 10 + i)  # re-insert: fills empty slots only
    assert table._used == used + 5
    many = pair_key(np.arange(100, 140, dtype=np.int64), 0)
    table.insert_many(many, np.arange(40))  # grows: rebuild purges
    assert len(table.keys) > 64 and table._used == len(table) == 46
    assert table.lookup(keys).tolist() == [10, 11, 12, 13, 14, 5]


def test_alloc_many_matches_scalar_allocs():
    def arena_with_history():
        arena = AdsArena(initial_rows=16)
        rows = [arena.alloc() for _ in range(20)]  # grows past 16
        for r in rows[3:9]:
            arena.release(r)
        return arena

    scalar, bulk = arena_with_history(), arena_with_history()
    for k in (0, 4, 5, 40):  # from the free list, across it, fresh + growth
        want = [scalar.alloc() for _ in range(k)]
        assert bulk.alloc_many(k).tolist() == want
        assert bulk.stats() == scalar.stats()


def _repos(arena, n, capacity):
    store = SourceFilterStore(n, ContentIndex())
    return [
        ArenaRepository(
            owner=i, interests={0}, store=store, arena=arena, capacity=capacity
        )
        for i in range(n)
    ]


def test_evict_oldest_matches_per_repository_eviction():
    """The full-ad merge's bulk eviction picks each repository's own LRU
    victim: first minimal ``cached_at`` in insertion order, sparing the
    entry just stored (the last one)."""
    rng = np.random.default_rng(5)
    capacity, n = 6, 12
    bulk_arena, ref_arena = AdsArena(16), AdsArena(16)
    bulk, ref = _repos(bulk_arena, n, None), _repos(ref_arena, n, capacity)
    topics = frozenset({0})
    for owner in range(n):
        # Coarse timestamps force ties; the stored-last entry is spared.
        stamps = rng.integers(0, 3, capacity + 1).astype(float)
        for source, t in zip(rng.permutation(40)[: capacity + 1] + 50, stamps):
            for repo in (bulk[owner], ref[owner]):
                repo.store_entry(int(source), 1, topics, float(t))
    victims = bulk_arena.evict_oldest(np.arange(n, dtype=np.int64), capacity)
    last = [int(repo.sources()[-1]) for repo in ref]
    want = [repo._evict(protect=p) for repo, p in zip(ref, last)]
    assert [[v] for v in victims.tolist()] == want
    for a, b in zip(bulk, ref):
        assert a.sources().tolist() == b.sources().tolist()
        assert [a.entry(s).cached_at for s in a.sources().tolist()] == [
            b.entry(s).cached_at for s in b.sources().tolist()
        ]
    assert bulk_arena.stats()["rows_live"] == ref_arena.stats()["rows_live"]


def test_mirror_pool_moves_and_packs_keep_every_list():
    """Segments outgrow their room and move; the pool runs out and packs.
    Every list keeps its entries and order throughout."""
    arena = AdsArena(initial_rows=16)
    repos = _repos(arena, 9, None)
    rng = np.random.default_rng(3)
    want = {repo.owner: [] for repo in repos}
    topics = frozenset({0})
    for step in range(600):
        repo = repos[int(rng.integers(0, len(repos)))]
        source = int(rng.integers(0, 200))
        if source in want[repo.owner] and step % 3 == 0:
            repo.remove(source)
            want[repo.owner].remove(source)
        elif source not in want[repo.owner]:
            repo.store_entry(source, 0, topics, float(step))
            want[repo.owner].append(source)
    for repo in repos:
        assert repo.sources().tolist() == want[repo.owner]
        assert len(repo) == len(want[repo.owner])


@pytest.mark.parametrize("n", [1, 17])
def test_pool_bytes_cover_the_index(n):
    arena = AdsArena(initial_rows=16)
    repos = _repos(arena, n, None)
    for repo in repos:
        for source in range(30):
            repo.store_entry(source + n, 0, frozenset({0}), 0.0)
    stats = arena.stats()
    assert stats["pool_bytes"] >= (
        arena.index.nbytes + arena.mirrors.nbytes + arena.version.nbytes
    )
    assert len(arena.index) == stats["rows_live"] == 30 * n

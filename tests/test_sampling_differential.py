"""The set-up fast paths against the library calls they replicate.

Content synthesis, trace generation and stub-domain builds replace
per-draw numpy and scipy calls with cached equivalents that must consume
the same random draws and return the same values.  Each case runs the
library call and the fast path on two generators seeded alike, compares
the results, then compares each generator's *next* draw: equal next draws
prove that both left the stream at the same position.  Run against every
supported numpy, these tests fail loudly if a release changes the
algorithm behind ``Generator.choice``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.network.transit_stub import (
    _UNREACHABLE,
    _bfs_all_pairs,
    _connect_components,
    _draw_adjacency,
    _hop_matrix,
    _random_graph,
)
from repro.workload.edonkey import make_document
from repro.workload.generator import _zipf_index
from repro.workload.interests import CLASS_WEIGHTS, N_CLASSES, sample_classes
from repro.workload.sampling import WeightedSampler, zipf_sampler

SEEDS = range(400)


def _pair(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_position(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.random() == b.random()


def _zipf_p(v: int, s: float) -> np.ndarray:
    weights = np.arange(1, v + 1, dtype=np.float64) ** -s
    weights /= weights.sum()
    return weights


class TestDistinctSampler:
    @pytest.mark.parametrize(
        "v,k,s",
        [
            (300, 5, 1.1),  # the keyword draw: about a third of the calls collide
            (300, 2, 1.1),
            (40, 8, 2.5),  # steep weights: several collision rounds
            (10, 10, 1.5),  # k == v
            (3, 3, 1.1),
            (3, 2, 3.0),
            (2, 2, 2.0),
            (2, 1, 0.7),
            (1, 1, 0.7),
        ],
    )
    def test_matches_choice_without_replacement(self, v, k, s):
        p = _zipf_p(v, s)
        sampler = zipf_sampler(v, s)
        collided = 0
        for seed in SEEDS:
            a, b = _pair(seed)
            expected = a.choice(v, size=k, replace=False, p=p)
            got = sampler.distinct(b, k)
            assert got == expected.tolist(), seed
            assert _same_position(a, b), seed
            probe = np.random.default_rng(seed).random(k)
            collided += len(set(sampler.cdf.searchsorted(probe, side="right"))) < k
        if k > 1 and v > 2:
            assert collided > 0  # the collision rounds really ran

    @pytest.mark.parametrize("k", range(1, N_CLASSES + 1))
    def test_class_weights(self, k):
        p = CLASS_WEIGHTS / CLASS_WEIGHTS.sum()
        for seed in range(100):
            a, b = _pair(seed)
            expected = a.choice(N_CLASSES, size=k, replace=False, p=p)
            got = sample_classes(b, k)
            assert np.array_equal(got, expected), seed
            assert _same_position(a, b), seed

    def test_zero_weights_never_drawn(self):
        p = np.array([0.0, 0.5, 0.0, 0.3, 0.2])
        sampler = WeightedSampler(p)
        for seed in range(200):
            a, b = _pair(seed)
            assert sampler.distinct(b, 3) == a.choice(5, size=3, replace=False, p=p).tolist()
            assert _same_position(a, b)
        with pytest.raises(ValueError):
            sampler.distinct(np.random.default_rng(0), 4)


class TestZipfIndex:
    @pytest.mark.parametrize("n,s", [(2, 0.7), (5, 0.7), (137, 0.7), (4_000, 0.7), (60, 1.3)])
    def test_matches_choice_with_p(self, n, s):
        p = np.arange(1, n + 1, dtype=np.float64) ** -s
        p = p / p.sum()
        for seed in SEEDS:
            a, b = _pair(seed)
            assert _zipf_index(b, n, s) == int(a.choice(n, p=p)), seed
            assert _same_position(a, b), seed

    def test_single_document_makes_no_draw(self):
        a, b = _pair(3)
        assert _zipf_index(b, 1, 0.7) == 0
        assert _same_position(a, b)


def _reference_document(doc_id, class_vocab, rng, min_kw, max_kw, zipf_s):
    """The per-call keyword draw the cached sampler replaced."""
    n_kw = int(rng.integers(min_kw, max_kw + 1))
    v = len(class_vocab)
    idx = rng.choice(v, size=min(n_kw, v), replace=False, p=_zipf_p(v, zipf_s))
    return (f"title{doc_id}",) + tuple(class_vocab[i] for i in sorted(idx))


class TestMakeDocument:
    @pytest.mark.parametrize("v,min_kw,max_kw", [(300, 2, 5), (4, 2, 6), (1, 1, 3)])
    def test_matches_reference(self, v, min_kw, max_kw):
        vocab = [f"kw{i}" for i in range(v)]
        a, b = _pair(11)
        for doc_id in range(2_000):
            expected = _reference_document(doc_id, vocab, a, min_kw, max_kw, 1.1)
            doc = make_document(doc_id, 0, vocab, b, min_kw, max_kw, 1.1)
            assert doc.keywords == expected, doc_id
        assert _same_position(a, b)

    def test_pool_array_draws_like_pool_list(self):
        pool = list(range(3, 6_003, 2))
        for seed in range(50):
            a, b = _pair(seed)
            for k in (2, 7, 60):
                expected = a.choice(pool, size=k, replace=False).tolist()
                assert b.choice(np.array(pool), size=k, replace=False).tolist() == expected
            assert _same_position(a, b)


def _scipy_hops(adjacency) -> np.ndarray:
    n = len(adjacency)
    rows = [u for u, nbrs in enumerate(adjacency) for _ in nbrs]
    cols = [v for nbrs in adjacency for v in nbrs]
    graph = csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    dist = shortest_path(graph, method="D", directed=False, unweighted=True)
    hops = np.full((n, n), _UNREACHABLE, dtype=np.int32)
    finite = np.isfinite(dist)
    hops[finite] = dist[finite].astype(np.int32)
    return hops


def _reference_random_graph(n, p, rng):
    """The pair loop the dense draw replaced: sets filled edge by edge."""
    adjacency = [set() for _ in range(n)]
    if n > 1 and p > 0:
        iu, ju = np.triu_indices(n, k=1)
        mask = rng.random(len(iu)) < p
        for u, v in zip(iu[mask], ju[mask]):
            adjacency[int(u)].add(int(v))
            adjacency[int(v)].add(int(u))
    _connect_components(n, adjacency, rng)
    return adjacency


class TestHopMatrix:
    @pytest.mark.parametrize("n,p", [(40, 0.4), (40, 0.05), (40, 0.0), (16, 0.6), (7, 0.3), (1, 0.4)])
    def test_matches_scipy_on_raw_draws(self, n, p):
        for seed in range(60):
            adjacency = _draw_adjacency(n, p, np.random.default_rng(seed))
            sets = [set(np.flatnonzero(row).tolist()) for row in adjacency]
            assert np.array_equal(_hop_matrix(adjacency), _scipy_hops(sets)), seed

    @pytest.mark.parametrize("n,p", [(40, 0.4), (40, 0.03), (30, 0.0), (16, 0.6)])
    def test_connected_graph_matches_reference(self, n, p):
        disconnected = 0
        for seed in range(60):
            a, b = _pair(seed)
            expected = _reference_random_graph(n, p, a)
            got = _random_graph(n, p, b)
            assert [sorted(s) for s in got] == [sorted(s) for s in expected], seed
            assert list(map(list, got)) == list(map(list, expected)), seed
            assert _same_position(a, b), seed
            assert np.array_equal(_bfs_all_pairs(n, got), _scipy_hops(expected)), seed
            raw = _draw_adjacency(n, p, np.random.default_rng(seed))
            disconnected += _hop_matrix(raw)[0].max() == _UNREACHABLE
        if p < 0.1:
            assert disconnected == 60  # every case went through the chaining

    def test_forced_disconnected_graph(self):
        # Two triangles and an isolated node: chaining adds exactly two edges.
        sets = [{1, 2}, {0, 2}, {0, 1}, {4, 5}, {3, 5}, {3, 4}, set()]
        dense = np.zeros((7, 7), dtype=bool)
        for u, nbrs in enumerate(sets):
            dense[u, list(nbrs)] = True
        assert (_hop_matrix(dense) == _UNREACHABLE).any()
        assert np.array_equal(_hop_matrix(dense), _scipy_hops(sets))
        _connect_components(7, sets, np.random.default_rng(5))
        hops = _bfs_all_pairs(7, sets)
        assert hops.max() < _UNREACHABLE
        assert np.array_equal(hops, _scipy_hops(sets))

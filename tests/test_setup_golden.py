"""Golden digests of every set-up input a run builds from its seed.

A run's inputs come from named ``RandomStreams`` substreams: ``content``
(documents, keywords, holders, interests, free riders), ``trace`` (the
event timeline), ``stub-domain-<id>`` (stub graphs) and ``topology``
(the overlay, whose edge latencies come from the stub graphs).  The
digests below were recorded from the straightforward per-draw code.  Any
faster set-up path must make the same generator calls in the same order,
so every digest must stay as it is: a digest that changes means a run's
inputs changed, not that the digest needs re-recording.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from repro.network.latency import LatencyModel
from repro.network.overlay import Overlay
from repro.network.topology import build_topology
from repro.network.transit_stub import TransitStubNetwork, TransitStubParams
from repro.sim.random import RandomStreams
from repro.simulation.config import scaled_config
from repro.workload.edonkey import synthesize_content
from repro.workload.generator import generate_trace

CHURN_FACTOR = 5  # the churn-on traces scale the default churn like asap_rw_churn
STUB_DOMAINS = (0, 1, 8, 9, 100, 517, 643, 1000, 1295)
#: Sparse stub domains: most of them are disconnected before chaining.
SPARSE_PARAMS = TransitStubParams(
    n_transit_domains=2,
    transit_nodes_per_domain=3,
    stub_domains_per_transit=4,
    stub_nodes_per_domain=40,
    p_stub_edge=0.03,
)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _config(n_peers: int, seed: int, churn: bool):
    config = scaled_config("flooding", n_peers=n_peers, n_queries=n_peers, seed=seed)
    factor = CHURN_FACTOR if churn else 0
    return replace(
        config,
        trace=replace(
            config.trace,
            n_joins=config.trace.n_joins * factor,
            n_leaves=config.trace.n_leaves * factor,
        ),
    )


def content_digest(dist) -> str:
    index = dist.index
    docs = sorted(index.all_documents(), key=lambda d: d.doc_id)
    return _digest(
        [(d.doc_id, d.class_id, d.keywords) for d in docs],
        [tuple(sorted(index.holders(d.doc_id))) for d in docs],
        [tuple(sorted(s)) for s in dist.interests],
        np.asarray(dist.free_rider, dtype=np.bool_).tobytes(),
        dist.next_doc_id,
    )


def trace_digest(trace) -> str:
    return _digest(
        [(type(e).__name__,) + astuple(e) for e in trace.events],
        float(trace.duration),
        np.asarray(trace.initially_live, dtype=np.bool_).tobytes(),
    )


def stub_digest(net: TransitStubNetwork, domain_ids) -> str:
    parts = []
    for d in domain_ids:
        dom = net.stub_domain(d)
        hops = np.ascontiguousarray(dom.hop_distances, dtype="<i4")
        parts.append((d, dom.first_node, dom.gateway_local, hops.tobytes()))
    return _digest(parts)


CONTENT_GOLDEN = {
    (300, 1): '48e971d6cb409cee967225c10ac93168',
    (300, 2): 'ad0ba52cafacce45ecc692ea02ba5558',
    (2_000, 1): '9198e53fb12aa4b796c9da00640bd8f9',
    (2_000, 2): '90e7c0bba0c66a686248b82491f4a6c2',
}

TRACE_GOLDEN = {
    (300, 1, False): '5cd4585801f9c18f437d7996471f9d3e',
    (300, 1, True): '6a15c06961cf3690113601d474f5b758',
    (300, 2, False): '57f9398527ccd3c80de3aab036c5911e',
    (300, 2, True): 'd8212651f0cc14a6caabb06b9e73cc33',
    (2_000, 1, False): 'da78ba037997a214996607a23836918a',
    (2_000, 1, True): 'a8fecb88b1ddc888a5b3912db11128d2',
    (2_000, 2, False): 'c2ac33bde2f27c3781fcee8b0aee9be8',
    (2_000, 2, True): '87d6c197afd84fb745de92336d6a7621',
}

STUB_GOLDEN = {
    1: 'b914518dd22702e41b793d4ed0632103',
    2: '44e56387116ccf3f654d46448059d92f',
}

SPARSE_STUB_GOLDEN = {
    1: '6e4bf84e8c6929f6ae77872ba2f61071',
    2: '7a0d333a2b6c49f047d9422de4ea874d',
}

TRANSIT_CORE_GOLDEN = {
    1: 'fc980faac39dbe60e2eb4e5ca75d2c83',
    2: '58bcd9cff60cd3d4918c8c634bc345c1',
}

OVERLAY_GOLDEN = {
    (300, 1): 'ca90a89afd84b6985b5847396145e079',
    (300, 2): 'fe3d7efd0b901ed65430535b586fa70e',
    (2_000, 1): '4f11371acca0909223aeefc1f1d85000',
    (2_000, 2): 'd42496535f5fb41de2fad7c5dc670c1b',
}


@pytest.mark.parametrize("n_peers,seed", sorted(CONTENT_GOLDEN))
def test_content_digest(n_peers, seed):
    config = _config(n_peers, seed, churn=False)
    dist = synthesize_content(config.edonkey, RandomStreams(seed).get("content"))
    assert content_digest(dist) == CONTENT_GOLDEN[n_peers, seed]


@pytest.mark.parametrize("n_peers,seed,churn", sorted(TRACE_GOLDEN))
def test_trace_digest(n_peers, seed, churn):
    config = _config(n_peers, seed, churn)
    # generate_trace registers content-addition documents in the index, so
    # each trace starts from its own fresh synthesis.
    dist = synthesize_content(config.edonkey, RandomStreams(seed).get("content"))
    trace = generate_trace(dist, config.trace, RandomStreams(seed).get("trace"))
    assert trace.n_joins + trace.n_leaves > 0 or not churn
    assert trace_digest(trace) == TRACE_GOLDEN[n_peers, seed, churn]


@pytest.mark.parametrize("seed", sorted(STUB_GOLDEN))
def test_stub_domain_digest(seed):
    net = TransitStubNetwork(seed=seed)
    assert stub_digest(net, STUB_DOMAINS) == STUB_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(SPARSE_STUB_GOLDEN))
def test_sparse_stub_domain_digest(seed):
    net = TransitStubNetwork(SPARSE_PARAMS, seed=seed)
    ids = range(SPARSE_PARAMS.n_stub_domains)
    assert stub_digest(net, ids) == SPARSE_STUB_GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(TRANSIT_CORE_GOLDEN))
def test_transit_core_digest(seed):
    core = TransitStubNetwork(seed=seed).transit_core_distances()
    digest = _digest(np.ascontiguousarray(core, dtype="<f8").tobytes())
    assert digest == TRANSIT_CORE_GOLDEN[seed]


@pytest.mark.parametrize("n_peers,seed", sorted(OVERLAY_GOLDEN))
def test_overlay_latency_digest(n_peers, seed):
    net = TransitStubNetwork(seed=seed)
    topology = build_topology(
        "crawled", n_peers, rng=RandomStreams(seed).get("topology"), network=net
    )
    overlay = Overlay(topology, LatencyModel(net))
    src, dst, lat = overlay.live_edges()
    digest = _digest(
        np.ascontiguousarray(src, dtype="<i8").tobytes(),
        np.ascontiguousarray(dst, dtype="<i8").tobytes(),
        np.ascontiguousarray(lat, dtype="<f8").tobytes(),
    )
    assert digest == OVERLAY_GOLDEN[n_peers, seed]

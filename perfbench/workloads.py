"""The benchmark's workloads: fixed ``scaled_config`` cells, seeded per run.

A workload is a list of ``cells`` independent simulation cells.  Cell
``i`` of a run with benchmark seed ``s`` replays the trace of
``RunConfig.seed = s * cells + i``, so one seed always yields the same
inputs and distinct seeds never share a cell.  Pooling several cells per
run averages out the topology and trace draw of any single seed, which
keeps the simulated metrics steady from seed to seed.

``tiny=True`` shrinks every workload to about 60 peers without the
physical network: the scale the benchmark's own tests run at.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

__all__ = ["WORKLOADS", "Workload", "build_config", "cell_seed"]


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    n_peers: int
    n_queries: int
    cells: int
    why: str
    cache_capacity: Optional[int] = None
    churn_factor: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="asap_fld_merge",
            algorithm="asap_fld",
            n_peers=1_000,
            n_queries=1_500,
            cells=4,
            why=(
                "flooded ads and refreshes reach every live peer, so the "
                "receiver merge in repro.asap.protocol dominates the replay"
            ),
        ),
        Workload(
            name="flood_paper_10k",
            algorithm="flooding",
            n_peers=10_000,
            n_queries=2_000,
            cells=2,
            why=(
                "paper-size flooding: workload and overlay build dominate "
                "set-up, the flood kernel the replay; no ASAP layer runs"
            ),
        ),
        Workload(
            name="asap_rw_churn",
            algorithm="asap_rw",
            n_peers=1_500,
            n_queries=1_500,
            cells=2,
            cache_capacity=100,
            churn_factor=5,
            why=(
                "bounded caches under 5x churn: merge with LRU eviction, "
                "repairs, join and bootstrap ads requests, walk kernel"
            ),
        ),
    )
}


def cell_seed(seed: int, workload: Workload, cell: int) -> int:
    """The ``RunConfig.seed`` of cell ``cell`` in a run seeded ``seed``."""
    if not 0 <= cell < workload.cells:
        raise ValueError(f"cell {cell} out of range for {workload.name}")
    return seed * workload.cells + cell


def build_config(workload: Workload, seed: int, cell: int, tiny: bool = False):
    """The ``RunConfig`` of one cell of ``workload``."""
    from repro.simulation.config import scaled_config

    n_peers, n_queries = workload.n_peers, workload.n_queries
    if tiny:
        n_peers, n_queries = 60, 60
    config = scaled_config(
        workload.algorithm,
        topology="crawled",
        n_peers=n_peers,
        n_queries=n_queries,
        seed=cell_seed(seed, workload, cell),
        use_physical_network=not tiny,
    )
    if workload.cache_capacity is not None:
        config = replace(
            config, asap=replace(config.asap, cache_capacity=workload.cache_capacity)
        )
    if workload.churn_factor != 1:
        config = replace(
            config,
            trace=replace(
                config.trace,
                n_joins=config.trace.n_joins * workload.churn_factor,
                n_leaves=config.trace.n_leaves * workload.churn_factor,
            ),
        )
    return config

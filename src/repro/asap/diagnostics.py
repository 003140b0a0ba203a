"""Diagnostics over a running ASAP instance: cache occupancy, staleness,
coverage.

These read-only views answer the operational questions Section III-A's
design discussion raises -- how much state does selective caching actually
hold, how stale does it get under churn, and how well do deliveries cover
the interested audience -- without touching protocol state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.asap.arena import SOURCE_MASK, CacherSet
from repro.asap.protocol import AsapSearch

__all__ = ["CacheDiagnostics", "audience_coverage", "diagnose"]


@dataclass(frozen=True)
class CacheDiagnostics:
    """Snapshot statistics of all ads repositories."""

    n_nodes: int
    total_entries: int
    mean_entries: float
    median_entries: float
    max_entries: int
    behind_entries: int  # entries lagging their source's filter version
    stale_source_entries: int  # entries whose source is currently offline
    mean_source_coverage: float  # per sharer: fraction of interested nodes caching it

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form (symmetric with :meth:`format_table`).

        Consumed by the metrics exporter and tests; keys are stable and
        match the dataclass field names.
        """
        return {
            "n_nodes": self.n_nodes,
            "total_entries": self.total_entries,
            "mean_entries": self.mean_entries,
            "median_entries": self.median_entries,
            "max_entries": self.max_entries,
            "behind_entries": self.behind_entries,
            "stale_source_entries": self.stale_source_entries,
            "mean_source_coverage": self.mean_source_coverage,
        }

    def format_table(self) -> str:
        lines = ["ASAP cache diagnostics"]
        lines.append(f"  nodes                    {self.n_nodes}")
        lines.append(f"  total cached ads         {self.total_entries}")
        lines.append(
            f"  entries per node         mean {self.mean_entries:.1f}, "
            f"median {self.median_entries:.0f}, max {self.max_entries}"
        )
        lines.append(f"  behind (missed patches)  {self.behind_entries}")
        lines.append(f"  pointing at offline src  {self.stale_source_entries}")
        lines.append(
            f"  mean audience coverage   {self.mean_source_coverage:.1%}"
        )
        return "\n".join(lines)


#: Per-byte popcount table for packed cacher bitsets.
_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1).astype(np.int64)


def _packed_holders(algo: AsapSearch, source: int) -> np.ndarray:
    """``cachers[source]`` as little-endian packed bits, either backend."""
    if source not in algo.cachers:
        return np.zeros((algo.overlay.n + 7) // 8, dtype=np.uint8)
    holders = algo.cachers[source]
    if isinstance(holders, CacherSet):
        return holders.packed()
    mask = np.zeros(algo.overlay.n, dtype=bool)
    mask[list(holders)] = True
    return np.packbits(mask, bitorder="little")


def audience_coverage(
    algo: AsapSearch, sources: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per source: live audience, audience members caching it, all holders.

    The audience of ``s`` is every live node other than ``s`` whose
    interests meet ``s``'s current topics.  Holders are read off the cacher
    index: every cache holding ``s`` is a member of ``cachers[s]``, and
    only those.  Sources are grouped by topic set, and each group's packed
    cacher bitsets are ANDed with the group's packed audience mask in
    chunks and popcounted array-at-a-time.  Returns three int64 arrays
    aligned with ``sources``.
    """
    live = algo.overlay.live_mask
    sources = np.asarray(sources, dtype=np.int64)
    audience = np.zeros(sources.size, dtype=np.int64)
    covered = np.zeros(sources.size, dtype=np.int64)
    holders = np.zeros(sources.size, dtype=np.int64)
    groups: Dict[frozenset, List[int]] = {}
    for i, source in enumerate(sources.tolist()):
        groups.setdefault(algo.store.topics(source), []).append(i)
    chunk = 512  # bounds the popcount transients at n/8 * chunk * 8 bytes
    for topics, idx in groups.items():
        amask = algo._interest_mask(topics) & live
        packed = np.packbits(amask, bitorder="little")
        idx = np.asarray(idx, dtype=np.int64)
        audience[idx] = np.count_nonzero(amask) - amask[sources[idx]]
        for start in range(0, idx.size, chunk):
            block = idx[start : start + chunk]
            bits = np.stack(
                [_packed_holders(algo, s) for s in sources[block].tolist()]
            )
            holders[block] = _POPCOUNT[bits].sum(axis=1)
            covered[block] = _POPCOUNT[bits & packed].sum(axis=1)
    return audience, covered, holders


def diagnose(algo: AsapSearch) -> CacheDiagnostics:
    """Compute cache statistics for every node of an ASAP instance."""
    n = algo.overlay.n
    repos = algo.repos
    sizes = np.fromiter((len(repo) for repo in repos), dtype=np.int64, count=n)
    live = algo.overlay.live_mask
    if algo.arena is not None:
        # One pass over the pair table's live (peer, source) -> row entries.
        keys, rows = algo.arena.index.items()
        behind = int(np.count_nonzero(algo.arena.behind[rows]))
        stale = int(np.count_nonzero(~live[keys & SOURCE_MASK]))
    else:
        behind = sum(len(repo.behind) for repo in repos)
        stale = sum(
            1 for repo in repos for s in repo.sources() if not live[s]
        )

    # Audience coverage: for each advertised sharer, what fraction of the
    # live nodes interested in its topics cache its ad?
    sharers = [
        s for s in range(n) if algo.store.is_sharer(s) and algo.store.topics(s)
    ]
    audience, covered, _ = audience_coverage(algo, sharers)
    reached = audience > 0
    coverages = covered[reached] / audience[reached]

    return CacheDiagnostics(
        n_nodes=n,
        total_entries=int(sizes.sum()),
        mean_entries=float(sizes.mean()) if n else 0.0,
        median_entries=float(np.median(sizes)) if n else 0.0,
        max_entries=int(sizes.max()) if n else 0,
        behind_entries=behind,
        stale_source_entries=stale,
        mean_source_coverage=float(np.mean(coverages)) if coverages.size else 0.0,
    )

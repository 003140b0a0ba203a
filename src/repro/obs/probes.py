"""Protocol-state probes: periodic vectorized snapshots of ASAP state.

The tracing/telemetry layers watch the *event stream*; this module watches
the *state*.  A :class:`ProbeRecorder` wakes up every ``interval_s``
simulated seconds and scans the algorithm's live structures -- the pooled
:class:`~repro.asap.arena.AdsArena` rows, the per-node repositories, the
cacher index, and the :class:`~repro.asap.store.SourceFilterStore` -- into
one deterministic snapshot per tick:

* **coverage** -- per advertised sharer, how many nodes hold its ad
  (replication factor) and what fraction of its live, interested audience
  is covered (the paper's pre-positioning claim, Section III);
* **staleness** -- the distribution of ad ages (``now - cached_at``) and
  of version lag over ``behind`` entries, as mergeable sketch quantiles;
* **bloom** -- the measured filter fill and the false-positive probability
  it implies, against the paper's ``(1/2)^k`` ceiling (Section III-B);
* **occupancy** -- per-node cache occupancy and eviction pressure
  (nodes pinned at capacity);
* **backend** -- arena free-list / pair-index health and engine gauges
  (queue depth, cohort batch sizes, batched-kernel dispatch counters).

Determinism contract.  Snapshots are read-only, consume no randomness, and
schedule exactly zero events when probing is off, so enabling probes never
changes a run's results.  Every series is computed through one shared
ingestion path for both storage backends (the numpy arena and the
object-backed reference repositories behind
:func:`repro.sim.kernels.reference_mode`), with power-of-two sketch buckets
derived from ``frexp`` -- pure bit manipulation, so arena and reference
snapshots of the same simulated tick are **bit-identical** in their
protocol-state section (the backend section differs by construction; the
arena has stats, the reference store does not).  Cell summaries merge in
input order exactly like :func:`repro.obs.telemetry.merge_summaries`, so
``--jobs N`` output is bit-identical to serial.

Usage::

    result = run_experiment(config, probes=True)
    result.probes.format_state_table()      # Fig-style coverage/staleness
    result.probes.fingerprint()             # baseline-able identity

or via the CLIs: ``runall --probes`` / ``report telemetry --probes``.
"""

from __future__ import annotations

import json
import math
from hashlib import blake2b
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.obs.telemetry import LogBucketSketch

__all__ = [
    "PROBE_SCHEMA_VERSION",
    "ProbeRecorder",
    "ProbeSummary",
    "check_arena_health",
    "merge_probe_summaries",
    "pow2_sketch",
    "snapshot_backend",
    "snapshot_state",
]

#: Bump when the snapshot/summary JSON shape changes.
PROBE_SCHEMA_VERSION = 1

def pow2_sketch(values) -> LogBucketSketch:
    """A gamma-2 :class:`LogBucketSketch` built bit-deterministically.

    Bucket keys are ``ceil(log2(v))`` computed from ``frexp`` (exponent
    arithmetic, no transcendental calls), and the running total is summed
    over the *sorted* value array -- so two callers feeding the same
    multiset of float64 values get bit-identical sketches regardless of
    the order their storage backend yielded them.  This is what makes
    arena and reference-mode snapshots comparable.
    """
    sketch = LogBucketSketch(gamma=2.0)
    if isinstance(values, np.ndarray):
        # Fast path for the per-entry series (millions of rows at paper
        # scale): never round-trip through a Python list.
        arr = np.sort(values.astype(np.float64, copy=False))
    else:
        arr = np.sort(np.asarray(list(values), dtype=np.float64))
    n = int(arr.size)
    if n == 0:
        return sketch
    if arr[0] < 0:
        raise ValueError(f"negative value in probe series: {arr[0]}")
    sketch.count = n
    sketch.total = float(arr.sum())
    sketch.min = float(arr[0])
    sketch.max = float(arr[-1])
    zero = int(np.searchsorted(arr, 0.0, side="right"))
    sketch.zero_count = zero
    positive = arr[zero:]
    if positive.size:
        mantissa, exponent = np.frexp(positive)
        # v = m * 2^e with 0.5 <= m < 1, so ceil(log2 v) = e, except
        # exact powers of two (m == 0.5) where it is e - 1.
        keys = exponent.astype(np.int64) - (mantissa == 0.5)
        # keys are non-decreasing over the sorted positives, so bincount
        # over the shifted range replaces a second (unique) sort.
        kmin = int(keys[0])
        counts = np.bincount(keys - kmin)
        sketch.buckets = {
            kmin + i: int(c) for i, c in enumerate(counts.tolist()) if c
        }
    return sketch


def _is_asap(algorithm) -> bool:
    return hasattr(algorithm, "repos") and hasattr(algorithm, "store")


def snapshot_state(algorithm, now: float) -> Dict[str, Any]:
    """One protocol-state snapshot at simulated time ``now``.

    Backend-independent: the returned dict is bit-identical whether
    ``algorithm`` runs on the numpy arena or the object-backed reference
    repositories (``tests/test_obs_probes.py`` asserts this).  Non-ASAP
    algorithms get the overlay gauges only (they keep no ad state).
    """
    overlay = algorithm.overlay
    state: Dict[str, Any] = {
        "t": float(now),
        "nodes": int(overlay.n),
        "live": int(overlay.live_count()),
    }
    if not _is_asap(algorithm):
        return state
    # Imported here: repro.asap imports repro.obs (tracing, telemetry).
    from repro.asap.arena import SOURCE_MASK
    from repro.asap.diagnostics import audience_coverage

    repos = algorithm.repos
    store = algorithm.store
    n = int(overlay.n)

    # --- per-entry series and staleness (behind counts + version lag over
    # behind entries): one vectorized pass over the pair table's live
    # (peer, source) -> row entries, or a gather over the reference
    # entries.  Both series feed order-independent sketches, so the two
    # paths only need the same multisets.
    arena = getattr(algorithm, "arena", None)
    if arena is not None:
        keys, rows = arena.index.items()
        cached_at = arena.cached_at[rows]
        lagging = arena.behind[rows]
        behind_total = int(np.count_nonzero(lagging))
        lag = store._version[keys[lagging] & SOURCE_MASK] - arena.version[
            rows[lagging]
        ].astype(np.int64)
        lags = lag[lag > 0].astype(np.float64)
    else:
        cached_at = np.asarray(
            [
                entry.cached_at
                for repo in repos
                for entry in repo.entries.values()
            ],
            dtype=np.float64,
        )
        behind_total = 0
        lag_list: List[float] = []
        for repo in repos:
            behind_total += len(repo.behind)
            for source in repo.behind:
                entry = repo.entry(source)
                if entry is None:
                    continue
                lag = store.version(source) - entry.version
                if lag > 0:
                    lag_list.append(float(lag))
        lags = np.asarray(lag_list, dtype=np.float64)
    entries_total = int(cached_at.size)
    ages = now - cached_at

    # --- occupancy / eviction pressure.
    occupancy = np.fromiter((len(r) for r in repos), dtype=np.int64, count=n)
    capacity = getattr(algorithm.params, "cache_capacity", None)
    at_capacity = (
        int(np.count_nonzero(occupancy >= capacity)) if capacity else 0
    )

    # --- coverage: replication factor + live-audience coverage per
    # advertised sharer (see :func:`repro.asap.diagnostics.audience_coverage`).
    advertised = [
        source
        for source in sorted(algorithm._advertised)
        if store.is_sharer(source) and store.topics(source)
    ]
    audience, covered, holders = audience_coverage(algorithm, advertised)
    reached = audience > 0
    replication = holders.astype(np.float64)
    fractions = covered[reached] / audience[reached]

    # --- bloom: filter fill and the FP probability it implies, computed
    # over the shared FilterMatrix counters (identical on both backends).
    from repro.bloom.hashing import min_false_positive_rate

    m = float(store.hasher.m)
    k = store.hasher.k
    n_set = store._n_set
    fills = n_set[n_set > 0] / m
    fp = fills ** float(k)

    state.update(
        {
            "entries": entries_total,
            "occupancy": {
                "total": int(occupancy.sum()),
                "max": int(occupancy.max()) if n else 0,
                "at_capacity": at_capacity,
                "per_node": pow2_sketch(occupancy).to_dict(),
            },
            "coverage": {
                "sources": len(advertised),
                "audience": int(audience.sum()),
                "covered": int(covered.sum()),
                "holders": int(holders.sum()),
                "replication": pow2_sketch(replication).to_dict(),
                "fraction": pow2_sketch(fractions).to_dict(),
            },
            "staleness": {
                "behind": behind_total,
                "age_s": pow2_sketch(ages).to_dict(),
                "version_lag": pow2_sketch(lags).to_dict(),
            },
            "bloom": {
                "sharers": int(fills.size),
                "fill_sum": float(fills.sum()),
                "fp_sum": float(fp.sum()),
                "fp_max": float(fp.max()) if fp.size else 0.0,
                "fp_ceiling": min_false_positive_rate(k),
            },
        }
    )
    return state


def snapshot_backend(algorithm, engine=None) -> Dict[str, Any]:
    """Backend/introspection gauges: arena health + engine scheduler state.

    Deliberately *excluded* from the comparable protocol-state section --
    the reference store has no arena and disables the batched kernels, so
    these gauges differ across backends by construction.
    """
    backend: Dict[str, Any] = {}
    arena = getattr(algorithm, "arena", None)
    if arena is not None:
        stats = dict(arena.stats())
        occupancy = sum(len(r) for r in algorithm.repos)
        stats["slot_index_consistent"] = bool(
            stats["rows_live"] == occupancy == len(arena.index)
        )
        backend["arena"] = stats
    if engine is not None:
        batch = engine.batch_stats()
        backend["engine"] = {
            "pending_live": int(engine.pending_live),
            "pending_events": int(engine.pending_events),
            "events_processed": int(engine.events_processed),
            "batch_dispatches": {
                str(key): int(v) for key, v in sorted(batch["dispatches"].items())
            },
            "batched_events": {
                str(key): int(v) for key, v in sorted(batch["events"].items())
            },
            "cohort_sizes": {
                str(key): int(v)
                for key, v in sorted(batch["cohort_sizes"].items())
            },
        }
    return backend


def check_arena_health(algorithm) -> Dict[str, Any]:
    """Deep pair-index audit: table, mirrors and free-list agree.

    Used by the churn/recycling tests; O(entries), so not part of the
    periodic snapshot.  Returns a report dict with ``ok`` plus the
    individual invariants: the table's live count, the arena's live rows
    and the summed mirror lengths are one number; every mirrored
    ``(peer, source)`` resolves through the table to its own mirrored row;
    no row is mapped twice; every mapped row is in the pool and off the
    free-list.
    """
    arena = getattr(algorithm, "arena", None)
    if arena is None:
        return {"ok": True, "backend": "reference"}
    from repro.asap.arena import pair_key

    _, rows = arena.index.items()
    pairs = [(repo.owner, *repo._pairs()) for repo in algorithm.repos]
    peers = np.concatenate(
        [np.full(len(src), owner, dtype=np.int64) for owner, src, _ in pairs]
    )
    sources = np.concatenate([src for _, src, _ in pairs]).astype(np.int64)
    mirrored = np.concatenate([row for _, _, row in pairs])
    stats = arena.stats()
    occupancy = int(mirrored.size)
    report = {
        "backend": "arena",
        "rows_live": stats["rows_live"],
        "table_live": len(arena.index),
        "occupancy": occupancy,
        "live_matches_occupancy": (
            stats["rows_live"] == occupancy == len(arena.index)
        ),
        "mirror_resolves": bool(
            np.array_equal(arena.index.lookup(pair_key(peers, sources)), mirrored)
        ),
        "rows_unique": int(np.unique(rows).size) == int(rows.size),
        "rows_in_pool": bool(((rows >= 0) & (rows < arena._top)).all()),
        "free_disjoint": not bool(np.isin(rows, arena.free_rows()).any()),
        "free_list_depth": stats["free_list_depth"],
    }
    report["ok"] = bool(
        report["live_matches_occupancy"]
        and report["mirror_resolves"]
        and report["rows_unique"]
        and report["rows_in_pool"]
        and report["free_disjoint"]
    )
    return report


# --------------------------------------------------------------- summaries
def _is_sketch_dict(d: Dict[str, Any]) -> bool:
    return "gamma" in d and "buckets" in d


def _merge_value(key: str, a, b):
    """Merge rule per snapshot field; associative under input-order folds."""
    if isinstance(a, dict) and isinstance(b, dict):
        if _is_sketch_dict(a):
            sa = LogBucketSketch.from_dict(a)
            sa.merge(LogBucketSketch.from_dict(b))
            return sa.to_dict()
        out = dict(a)
        for sub, value in b.items():
            out[sub] = _merge_value(sub, out[sub], value) if sub in out else value
        return out
    if isinstance(a, bool) and isinstance(b, bool):
        return a and b
    if key == "t" or key.endswith("_ceiling"):
        return a  # identical across cells by construction
    if key == "max" or key.endswith("_max"):
        return max(a, b)
    if key == "min" or key.endswith("_min"):
        return min(a, b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a + b
    return a


def _strip_backend(tick: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in tick.items() if k != "backend"}


class ProbeSummary:
    """Frozen, mergeable digest of one or more cells' probe snapshots.

    Plain data: ticks are JSON-ready dicts (see :func:`snapshot_state` /
    :func:`snapshot_backend`).  ``merge`` aligns ticks by snapshot time and
    folds counters/sketches exactly like
    :class:`~repro.obs.telemetry.TelemetrySummary` -- associative over an
    input-order fold, so parallel sweeps reproduce serial output bit for
    bit.
    """

    __slots__ = ("interval_s", "cells", "labels", "ticks")

    def __init__(
        self,
        interval_s: float,
        ticks: Sequence[Dict[str, Any]],
        cells: int = 1,
        labels: Sequence[str] = (),
    ) -> None:
        self.interval_s = float(interval_s)
        self.cells = int(cells)
        self.labels = list(labels)
        self.ticks = list(ticks)

    # ------------------------------------------------------------- merging
    def merge(self, other: "ProbeSummary") -> "ProbeSummary":
        if other.interval_s != self.interval_s:
            raise ValueError(
                f"cannot merge probe summaries with interval "
                f"{self.interval_s} != {other.interval_s}"
            )
        by_t: Dict[float, Dict[str, Any]] = {t["t"]: t for t in self.ticks}
        for tick in other.ticks:
            t = tick["t"]
            if t in by_t:
                by_t[t] = _merge_value("tick", by_t[t], tick)
            else:
                by_t[t] = tick
        return ProbeSummary(
            interval_s=self.interval_s,
            ticks=[by_t[t] for t in sorted(by_t)],
            cells=self.cells + other.cells,
            labels=self.labels + other.labels,
        )

    # -------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": PROBE_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "cells": self.cells,
            "labels": list(self.labels),
            "ticks": list(self.ticks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def fingerprint(self) -> str:
        """Deterministic identity of the full summary (state + backend)."""
        return blake2b(self.to_json().encode(), digest_size=16).hexdigest()

    def state_fingerprint(self) -> str:
        """Identity of the backend-independent protocol-state series only.

        Bit-equal between arena and reference-mode runs of the same
        config at the same ticks (the backend gauges, which necessarily
        differ, are excluded).
        """
        doc = {
            "schema": PROBE_SCHEMA_VERSION,
            "interval_s": self.interval_s,
            "cells": self.cells,
            "ticks": [_strip_backend(t) for t in self.ticks],
        }
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return blake2b(payload.encode(), digest_size=16).hexdigest()

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ProbeSummary":
        if data.get("schema") != PROBE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported probe schema {data.get('schema')!r} "
                f"(expected {PROBE_SCHEMA_VERSION})"
            )
        return ProbeSummary(
            interval_s=data["interval_s"],
            ticks=list(data["ticks"]),
            cells=int(data["cells"]),
            labels=list(data.get("labels", ())),
        )

    # ----------------------------------------------------------- rendering
    def headline(self) -> Dict[str, Optional[float]]:
        """Scalars from the final tick (the warmed-up steady state)."""
        out: Dict[str, Optional[float]] = {
            "ticks": float(len(self.ticks)),
            "coverage_fraction": None,
            "replication_p50": None,
            "age_p50_s": None,
            "age_p90_s": None,
            "fp_mean": None,
            "entries": None,
            "behind": None,
        }
        state_ticks = [t for t in self.ticks if "coverage" in t]
        if not state_ticks:
            return out
        last = state_ticks[-1]
        cov = last["coverage"]
        if cov["audience"]:
            out["coverage_fraction"] = cov["covered"] / cov["audience"]
        repl = LogBucketSketch.from_dict(cov["replication"])
        if repl.count:
            out["replication_p50"] = repl.quantile(0.5)
        ages = LogBucketSketch.from_dict(last["staleness"]["age_s"])
        if ages.count:
            out["age_p50_s"] = ages.quantile(0.5)
            out["age_p90_s"] = ages.quantile(0.9)
        bloom = last["bloom"]
        if bloom["sharers"]:
            out["fp_mean"] = bloom["fp_sum"] / bloom["sharers"]
        out["entries"] = float(last["entries"])
        out["behind"] = float(last["staleness"]["behind"])
        return out

    def format_state_table(self, max_rows: int = 12) -> str:
        """Fig-style per-tick table: coverage, staleness, cache, bloom."""
        header = (
            f"{'t':>8} {'entries':>9} {'behind':>7} {'cover%':>7} "
            f"{'repl p50':>9} {'age p50':>8} {'age p90':>8} "
            f"{'at cap':>7} {'fp mean':>9}"
        )
        ticks = [t for t in self.ticks if "coverage" in t]
        if not ticks:
            return header + "\n  (no ASAP state ticks recorded)"
        rows = ticks
        if len(rows) > max_rows:  # sample evenly, always keeping the last
            idx = np.linspace(0, len(rows) - 1, max_rows).round().astype(int)
            rows = [rows[i] for i in dict.fromkeys(idx.tolist())]
        lines = [header]
        for tick in rows:
            cov = tick["coverage"]
            frac = cov["covered"] / cov["audience"] if cov["audience"] else 0.0
            repl = LogBucketSketch.from_dict(cov["replication"])
            ages = LogBucketSketch.from_dict(tick["staleness"]["age_s"])
            bloom = tick["bloom"]
            fp_mean = bloom["fp_sum"] / bloom["sharers"] if bloom["sharers"] else 0.0
            p50 = repl.quantile(0.5) if repl.count else math.nan
            a50 = ages.quantile(0.5) if ages.count else math.nan
            a90 = ages.quantile(0.9) if ages.count else math.nan
            lines.append(
                f"{tick['t']:>8.0f} {tick['entries']:>9d} "
                f"{tick['staleness']['behind']:>7d} {frac:>7.1%} "
                f"{p50:>9.1f} {a50:>8.1f} {a90:>8.1f} "
                f"{tick['occupancy']['at_capacity']:>7d} {fp_mean:>9.5f}"
            )
        return "\n".join(lines)


def merge_probe_summaries(
    summaries: Iterable[Optional[ProbeSummary]],
) -> Optional[ProbeSummary]:
    """Left-fold ``merge`` in input order, skipping ``None`` entries.

    Input-order determinism is the parallel-execution contract: cells
    merged in config order give bit-identical output no matter which
    worker ran which cell (same guarantee as ``merge_summaries``).
    """
    merged: Optional[ProbeSummary] = None
    for summary in summaries:
        if summary is None:
            continue
        merged = summary if merged is None else merged.merge(summary)
    return merged


# --------------------------------------------------------------- recorder
class ProbeRecorder:
    """Schedules periodic state snapshots into a simulation engine.

    Ticks land at ``k * interval_s`` for ``k = 1, 2, ...`` up to the
    replay horizon.  The recorder is read-only and self-rescheduling: the
    next tick is only scheduled while it lies within the horizon, so a
    finished run leaves no pending probe events behind (profiles report
    the same queue depth with probes on or off).
    """

    def __init__(self, interval_s: float, label: str = "") -> None:
        if interval_s <= 0:
            raise ValueError(f"probe interval must be positive: {interval_s}")
        self.interval_s = float(interval_s)
        self.label = label
        self.snapshots: List[Dict[str, Any]] = []
        self._engine = None
        self._algorithm = None
        self._until = 0.0
        self._k = 0

    def attach(self, engine, algorithm, until: float) -> None:
        """Register with a run: first snapshot at ``interval_s``."""
        self._engine = engine
        self._algorithm = algorithm
        self._until = float(until)
        self._k = 0
        self._schedule_next()

    def _schedule_next(self) -> None:
        t = self.interval_s * (self._k + 1)
        if t <= self._until:
            self._engine.schedule_at(t, self._fire, name="probe")

    def _fire(self) -> None:
        self._k += 1
        now = self._engine.now
        snap = snapshot_state(self._algorithm, now)
        snap["backend"] = snapshot_backend(self._algorithm, self._engine)
        self.snapshots.append(snap)
        self._schedule_next()

    def summary(self) -> ProbeSummary:
        labels = [self.label] if self.label else []
        return ProbeSummary(
            interval_s=self.interval_s,
            ticks=list(self.snapshots),
            cells=1,
            labels=labels,
        )

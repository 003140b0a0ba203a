"""Protocol-state probes: determinism, sketches, merging, arena health.

The probe layer's contract (ISSUE 10) is determinism across everything
that should not matter:

* the **storage backend** -- arena vs ``kernels.reference_mode()`` runs
  of the same config produce bit-identical protocol-state sections at
  every tick (``state_fingerprint``);
* the **execution mode** -- serial vs ``jobs=2`` sweeps merge to
  bit-identical summaries (full ``fingerprint``, backend included);
* the **probes themselves** -- enabling them never changes the run's
  results (outcomes, ledger, audit fingerprint).

Plus the snapshot-visible arena invariants under churn + capped caches:
live-count == occupancy, no dangling or double-allocated slots, and
free-list rows actually recycled.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.obs.probes import (
    PROBE_SCHEMA_VERSION,
    ProbeRecorder,
    ProbeSummary,
    check_arena_health,
    merge_probe_summaries,
    pow2_sketch,
    snapshot_state,
)
from repro.obs.telemetry import LogBucketSketch
from repro.sim import kernels
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment


def _config(algorithm="asap_rw", n_peers=200, n_queries=300, seed=0, **kw):
    cfg = scaled_config(
        algorithm,
        "crawled",
        n_peers=n_peers,
        n_queries=n_queries,
        seed=seed,
        use_physical_network=False,
    )
    return dataclasses.replace(cfg, probe_interval_s=15.0, **kw)


# ------------------------------------------------------------ pow2_sketch
def test_pow2_sketch_matches_scalar_sketch_quantiles():
    # Same gamma-2 bucketing as LogBucketSketch.add, so quantiles agree.
    rng = np.random.default_rng(7)
    values = rng.exponential(30.0, size=500)
    vec = pow2_sketch(values)
    ref = LogBucketSketch(gamma=2.0)
    for v in values:
        ref.add(float(v))
    assert vec.count == ref.count == 500
    assert vec.buckets == ref.buckets
    assert vec.min == ref.min and vec.max == ref.max
    for q in (0.1, 0.5, 0.9, 0.99):
        assert vec.quantile(q) == ref.quantile(q)


def test_pow2_sketch_exact_powers_of_two_and_zeros():
    # ceil(log2 v): exact powers of two sit in their own bucket key.
    sketch = pow2_sketch([0.0, 0.0, 1.0, 2.0, 4.0, 3.0])
    assert sketch.zero_count == 2
    assert sketch.count == 6
    assert sketch.buckets == {0: 1, 1: 1, 2: 2}  # 1 -> 0; 2 -> 1; 3,4 -> 2
    assert sketch.total == pytest.approx(10.0)


def test_pow2_sketch_empty_and_order_independent():
    assert pow2_sketch([]).count == 0
    a = pow2_sketch([3.0, 1.0, 2.0])
    b = pow2_sketch([2.0, 3.0, 1.0])
    assert a.to_dict() == b.to_dict()
    with pytest.raises(ValueError):
        pow2_sketch([-1.0])


# ------------------------------------------------- cross-backend equality
def test_state_bit_identical_arena_vs_reference():
    cfg = _config(n_peers=250, n_queries=350, seed=1)
    arena_run = run_experiment(cfg, probes=True)
    with kernels.reference_mode():
        ref_run = run_experiment(cfg, probes=True)
    assert len(arena_run.probes.ticks) >= 2
    # Tick-by-tick: the comparable state section is identical...
    for ta, tr in zip(arena_run.probes.ticks, ref_run.probes.ticks):
        sa = {k: v for k, v in ta.items() if k != "backend"}
        sr = {k: v for k, v in tr.items() if k != "backend"}
        assert sa == sr
    # ...and so is the whole-series fingerprint.
    assert (
        arena_run.probes.state_fingerprint()
        == ref_run.probes.state_fingerprint()
    )
    # The backend sections legitimately differ (only the arena has one).
    assert "arena" in arena_run.probes.ticks[0]["backend"]
    assert "arena" not in ref_run.probes.ticks[0]["backend"]


def test_probes_do_not_change_run_results():
    cfg = _config(n_peers=150, n_queries=250, seed=2)
    on = run_experiment(cfg, probes=True, audit=True)
    off = run_experiment(cfg, probes=False, audit=True)
    assert on.fingerprint == off.fingerprint
    assert [o.success for o in on.outcomes] == [o.success for o in off.outcomes]
    assert on.probes is not None and off.probes is None


# ------------------------------------------------- serial vs parallel
def test_merged_summary_bit_identical_serial_vs_jobs2():
    from repro.experiments.parallel import run_cells

    configs = [_config(n_peers=120, n_queries=200, seed=s) for s in (0, 1)]
    serial = run_cells(configs, jobs=1, probes=True)
    parallel = run_cells(configs, jobs=2, probes=True)
    merged_serial = merge_probe_summaries(r.probes for r in serial)
    merged_parallel = merge_probe_summaries(r.probes for r in parallel)
    assert merged_serial.fingerprint() == merged_parallel.fingerprint()
    assert merged_serial.cells == 2
    assert merged_serial.labels == [
        "asap_rw/crawled/seed0",
        "asap_rw/crawled/seed1",
    ]


# ---------------------------------------------------------------- merging
def test_merge_aligns_ticks_and_folds_sketches():
    cfg_a = _config(n_peers=120, n_queries=200, seed=0)
    cfg_b = _config(n_peers=120, n_queries=200, seed=1)
    a = run_experiment(cfg_a, probes=True).probes
    b = run_experiment(cfg_b, probes=True).probes
    merged = a.merge(b)
    assert merged.cells == 2
    # Shared ticks fold: counters sum, sketches merge.
    shared_t = {t["t"] for t in a.ticks} & {t["t"] for t in b.ticks}
    for t in sorted(shared_t):
        ta = next(x for x in a.ticks if x["t"] == t)
        tb = next(x for x in b.ticks if x["t"] == t)
        tm = next(x for x in merged.ticks if x["t"] == t)
        assert tm["entries"] == ta["entries"] + tb["entries"]
        sm = LogBucketSketch.from_dict(tm["staleness"]["age_s"])
        sa = LogBucketSketch.from_dict(ta["staleness"]["age_s"])
        sb = LogBucketSketch.from_dict(tb["staleness"]["age_s"])
        assert sm.count == sa.count + sb.count
        assert sm.max == max(sa.max, sb.max)
    # The merge is associative with the left fold used by run_cells.
    assert merge_probe_summaries([a, b]).fingerprint() == merged.fingerprint()
    assert merge_probe_summaries([None, a, None, b]) is not None
    assert merge_probe_summaries([]) is None
    assert merge_probe_summaries([None]) is None


def test_merge_rejects_interval_mismatch():
    a = ProbeSummary(interval_s=10.0, ticks=[])
    b = ProbeSummary(interval_s=20.0, ticks=[])
    with pytest.raises(ValueError):
        a.merge(b)


def test_summary_roundtrip_and_schema():
    cfg = _config(n_peers=120, n_queries=150, seed=0)
    summary = run_experiment(cfg, probes=True).probes
    doc = summary.to_dict()
    assert doc["schema"] == PROBE_SCHEMA_VERSION
    back = ProbeSummary.from_dict(doc)
    assert back.fingerprint() == summary.fingerprint()
    with pytest.raises(ValueError):
        ProbeSummary.from_dict(dict(doc, schema=999))


# ----------------------------------------------------------- snapshot body
def test_snapshot_state_contents():
    cfg = _config(n_peers=150, n_queries=250, seed=3)
    summary = run_experiment(cfg, probes=True).probes
    assert summary.ticks, "expected at least one probe tick"
    for k, tick in enumerate(summary.ticks, start=1):
        assert tick["t"] == pytest.approx(15.0 * k)
        assert 0 < tick["live"] <= tick["nodes"] == 150
        cov = tick["coverage"]
        assert 0 <= cov["covered"] <= cov["audience"]
        assert cov["holders"] >= cov["covered"]
        occ = tick["occupancy"]
        assert occ["total"] == tick["entries"]
        bloom = tick["bloom"]
        assert bloom["fp_ceiling"] == 0.5 ** 8  # the paper's k=8 ceiling
        assert 0.0 <= bloom["fp_max"] <= 1.0
        ages = LogBucketSketch.from_dict(tick["staleness"]["age_s"])
        assert ages.count == tick["entries"]
        backend = tick["backend"]
        assert backend["arena"]["slot_index_consistent"] is True
        assert backend["engine"]["events_processed"] > 0
    head = summary.headline()
    assert head["coverage_fraction"] is not None
    assert 0.0 <= head["coverage_fraction"] <= 1.0
    table = summary.format_state_table()
    assert "cover%" in table and len(table.splitlines()) >= 2


def test_snapshot_state_non_asap_algorithm():
    cfg = _config(algorithm="flooding", n_peers=100, n_queries=150, seed=0)
    summary = run_experiment(cfg, probes=True).probes
    assert summary.ticks
    tick = summary.ticks[0]
    assert "coverage" not in tick  # flooding keeps no ad state
    assert tick["nodes"] == 100
    assert summary.headline()["coverage_fraction"] is None
    assert "(no ASAP state ticks recorded)" in summary.format_state_table()


def test_recorder_leaves_no_pending_events():
    # The last tick is only scheduled while it fits the horizon, so a
    # finished run drains its queue exactly as a probe-less run does.
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()

    class _Overlay:
        n = 5

        def live_count(self):
            return 5

    class _Algo:
        overlay = _Overlay()

    recorder = ProbeRecorder(10.0, label="unit")
    recorder.attach(engine, _Algo(), until=35.0)
    engine.run(until=35.0)
    assert engine.pending_live == 0
    assert [t["t"] for t in recorder.snapshots] == [10.0, 20.0, 30.0]
    with pytest.raises(ValueError):
        ProbeRecorder(0.0)


# ------------------------------------------- arena health under churn
def _churned_run(capacity):
    """A churning 200-peer ASAP(RW) run, its pair index audited every 12 s.

    Returns ``(algo, engine, config, audits)`` after the horizon.
    """
    base = scaled_config(
        "asap_rw",
        "crawled",
        n_peers=200,
        n_queries=400,
        seed=4,
        use_physical_network=False,
    )
    cfg = dataclasses.replace(
        base,
        # Capacity 8 forces eviction pressure -> free-list churn.
        asap=dataclasses.replace(base.asap, cache_capacity=capacity),
        probe_interval_s=10.0,
    )
    # Drive the live algorithm by hand so the audit can run mid-run.
    from repro.sim.metrics import BandwidthLedger
    from repro.simulation.runner import build_algorithm
    from repro.network.topology import build_topology
    from repro.network.overlay import Overlay
    from repro.sim.engine import SimulationEngine
    from repro.sim.random import RandomStreams
    from repro.workload.edonkey import synthesize_content
    from repro.workload.generator import generate_trace
    from repro.workload.trace import JoinEvent, LeaveEvent, QueryEvent

    streams = RandomStreams(seed=cfg.seed)
    topology = build_topology(
        cfg.topology, cfg.n_peers, rng=streams.get("topology"), network=None
    )
    overlay = Overlay(topology, None)
    dist = synthesize_content(cfg.edonkey, streams.get("content"))
    trace = generate_trace(dist, cfg.trace, streams.get("trace"))
    ledger = BandwidthLedger()
    algo = build_algorithm(
        cfg, overlay, dist.index, ledger, streams.get("algorithm"), dist.interests
    )
    engine = SimulationEngine()
    algo.warmup(engine, start=0.0, duration=cfg.warmup_s)

    checked = {"n": 0}

    def handle(event):
        now = engine.now
        if isinstance(event, QueryEvent):
            algo.search(event.node, event.terms, now)
        elif isinstance(event, JoinEvent):
            overlay.join(event.node)
            algo.on_join(event.node, now)
        elif isinstance(event, LeaveEvent):
            overlay.leave(event.node)
            algo.on_leave(event.node, now)

    def audit_now():
        report = check_arena_health(algo)
        assert report["ok"], report
        checked["n"] += 1

    for event in trace.events:
        if isinstance(event, (QueryEvent, JoinEvent, LeaveEvent)):
            engine.schedule_at(
                cfg.warmup_s + event.time, lambda e=event: handle(e)
            )
    horizon = cfg.warmup_s + trace.duration + 1.0
    for t in np.arange(5.0, horizon, 12.0):
        engine.schedule_at(float(t), audit_now, name="health")
    engine.run(until=horizon)
    return algo, engine, cfg, checked["n"]


def _assert_index_and_diagnostics(algo):
    """The pair-index audit holds, and ``diagnose`` equals a brute-force
    recount over every repository (the O(n^2) loops it replaced)."""
    from repro.asap.diagnostics import diagnose

    report = check_arena_health(algo)
    assert report["ok"], report
    assert report["live_matches_occupancy"] and report["mirror_resolves"]
    assert report["table_live"] == report["rows_live"] == report["occupancy"]

    # Take a few cached sources offline so stale entries exist.
    cached = sorted({int(s) for r in algo.repos for s in r.sources()})
    for source in cached[:5]:
        if algo.overlay.is_live(source):
            algo.overlay.leave(source)
    n = algo.overlay.n
    live = algo.overlay.live_mask
    coverages = []
    for source in range(n):
        topics = algo.store.topics(source)
        if not topics or not algo.store.is_sharer(source):
            continue
        audience = [
            v for v in range(n)
            if v != source and live[v] and (set(topics) & algo.interests[v])
        ]
        if audience:
            cached = sum(1 for v in audience if source in algo.repos[v])
            coverages.append(cached / len(audience))
    diag = diagnose(algo)
    assert diag.total_entries == sum(len(r) for r in algo.repos)
    assert diag.behind_entries == sum(len(r.behind) for r in algo.repos)
    assert diag.stale_source_entries == sum(
        1 for r in algo.repos for s in r.sources() if not live[s]
    )
    assert diag.mean_source_coverage == float(np.mean(coverages))
    assert diag.stale_source_entries > 0


def test_arena_health_under_churn_and_capped_caches():
    algo, engine, cfg, audits = _churned_run(capacity=8)
    assert audits > 5
    _assert_index_and_diagnostics(algo)
    # Capped caches at capacity 8 over 200 peers must have evicted: the
    # free list saw traffic and rows were recycled rather than leaked.
    stats = algo.arena.stats()
    assert stats["rows_allocated"] > stats["rows_live"]
    assert stats["rows_allocated"] < cfg.n_peers * 8 * 4, (
        "rows never recycled: allocation grew without bound"
    )
    # Snapshot agrees with the direct audit.
    snap = snapshot_state(algo, engine.now)
    assert snap["occupancy"]["total"] == stats["rows_live"]
    assert snap["occupancy"]["max"] <= 8
    assert snap["occupancy"]["at_capacity"] > 0


def test_arena_health_under_churn_unbounded_caches():
    algo, engine, _, audits = _churned_run(capacity=None)
    assert audits > 5
    _assert_index_and_diagnostics(algo)
    snap = snapshot_state(algo, engine.now)
    assert snap["occupancy"]["total"] == len(algo.arena.index)


def test_check_arena_health_reference_backend_is_trivial():
    with kernels.reference_mode():
        cfg = _config(n_peers=100, n_queries=100, seed=0)
        result = run_experiment(cfg, probes=True)
    assert result.probes.ticks  # the run itself probed fine


# -------------------------------------------------------------- engine gauges
def test_engine_batch_stats_counts_batched_cohorts():
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine()
    seen = []
    engine.register_batch_handler("w", lambda events: seen.append(len(events)))
    for _ in range(3):
        engine.schedule_at(1.0, lambda: None, batch_key="w")
    for _ in range(2):
        engine.schedule_at(2.0, lambda: None, batch_key="w")
    engine.schedule_at(3.0, lambda: None, batch_key="w")  # singleton: no batch
    engine.run()
    stats = engine.batch_stats()
    assert stats["dispatches"] == {"w": 2}
    assert stats["events"] == {"w": 5}
    assert stats["cohort_sizes"] == {3: 1, 2: 1}
    assert seen == [3, 2]

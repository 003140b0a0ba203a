"""Batched-kernel speedups: end-to-end reference-vs-batched A/B cells.

One 10k-peer flooding cell and one ASAP(FLD) cell are replayed twice:
batched kernels (the default) vs ``repro.sim.kernels.reference_mode()``,
which routes every dual-path call site to the retained pre-batching
loops.  Rounds interleave the arms and the min per arm is taken (1-CPU
boxes are noisy; within-run ratios are the meaningful signal).  Every
timed pair must agree on the full summary row (floats aggregated over all
outcomes + ledger), a separate audited pair must agree on the blake2b run
fingerprint, and the replay speedups must clear the acceptance bars
(>= 2x flooding, >= 1.5x ASAP at full scale).

Results:

* ``benchmarks/results/engine_dispatch.json`` -- this session's
  measurement (the schema-versioned envelope every bench emits);
* ``BENCH_ENGINE.json`` at the repo root -- the committed trajectory,
  one appended entry per recorded run, which CI's perf-regression gate
  (``benchmarks/check_perf_regression.py --engine-result ...``) compares
  fresh runs against.

Scale control (environment variables):

* ``REPRO_BENCH_ENGINE_PEERS``         -- flooding cell overlay size
  (default 10000) and ``REPRO_BENCH_ENGINE_QUERIES`` (default 1000)
* ``REPRO_BENCH_ENGINE_ASAP_PEERS``    -- ASAP cell overlay size
  (default 3000) and ``REPRO_BENCH_ENGINE_ASAP_QUERIES`` (default 600)
* ``REPRO_BENCH_ENGINE_ROUNDS``        -- interleaved A/B round pairs
  (default 2)
* ``REPRO_BENCH_ENGINE_MIN_FLOOD_SPEEDUP`` / ``..._MIN_ASAP_SPEEDUP``
  -- assertion bars on the replay speedups (defaults 2.0 and 1.5; CI's
  reduced-scale smoke relaxes them -- small cells flatten the ratio)
* ``REPRO_BENCH_ENGINE_RECORD``        -- set to 0 to skip appending to
  the committed trajectory (CI smoke runs must not pollute it)
"""

from __future__ import annotations

import gc
import json
import os
import time
from pathlib import Path

from conftest import BENCH_SCHEMA_VERSION, write_result
from repro.obs import Instruments
from repro.sim import kernels
from repro.simulation import run_experiment, scaled_config

N_PEERS = int(os.environ.get("REPRO_BENCH_ENGINE_PEERS", "10000"))
N_QUERIES = int(os.environ.get("REPRO_BENCH_ENGINE_QUERIES", "1000"))
ASAP_PEERS = int(os.environ.get("REPRO_BENCH_ENGINE_ASAP_PEERS", "3000"))
ASAP_QUERIES = int(os.environ.get("REPRO_BENCH_ENGINE_ASAP_QUERIES", "600"))
ROUNDS = int(os.environ.get("REPRO_BENCH_ENGINE_ROUNDS", "2"))
MIN_FLOOD_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_ENGINE_MIN_FLOOD_SPEEDUP", "2.0")
)
MIN_ASAP_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_ENGINE_MIN_ASAP_SPEEDUP", "1.5")
)
RECORD = os.environ.get("REPRO_BENCH_ENGINE_RECORD", "1") != "0"
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_ENGINE.json"
TRAJECTORY_KEEP = 50  # most recent entries retained in the committed file


# ----------------------------------------------------------- end-to-end A/B
def _config(algorithm: str, n_peers: int, n_queries: int):
    return scaled_config(
        algorithm,
        "random",
        n_peers=n_peers,
        n_queries=n_queries,
        seed=0,
        use_physical_network=False,
    )


def _cell(algorithm: str, n_peers: int, n_queries: int, reference: bool):
    cfg = _config(algorithm, n_peers, n_queries)
    phase_times: dict = {}
    gc.collect()
    gc.disable()
    try:
        if reference:
            with kernels.reference_mode():
                result = run_experiment(cfg, phase_times=phase_times)
        else:
            result = run_experiment(cfg, phase_times=phase_times)
    finally:
        gc.enable()
    # Equivalence digest for the timed (untraced) runs: the summary row
    # aggregates floats over every query outcome and the full ledger, so
    # any divergence between the arms shows up here.  The blake2b run
    # fingerprints (which need audit tracing, too heavy to leave inside
    # the timed loop) are asserted on a separate pair below and, across
    # all four algorithms and multiple seeds, by
    # tests/test_engine_batching_differential.py.
    return phase_times["replay_s"], repr(result.summarize().row())


def _fingerprint(algorithm: str, n_peers: int, n_queries: int, reference: bool):
    cfg = _config(algorithm, n_peers, n_queries)
    if reference:
        with kernels.reference_mode():
            return run_experiment(cfg, Instruments(audit=True)).fingerprint
    return run_experiment(cfg, Instruments(audit=True)).fingerprint


def _ab_cell(algorithm: str, n_peers: int, n_queries: int, fp_check: bool):
    """Interleaved reference/batched rounds; min replay per arm."""
    ref_times, bat_times = [], []
    digest_ref = digest_bat = None
    for _ in range(ROUNDS):
        t, digest_ref = _cell(algorithm, n_peers, n_queries, reference=True)
        ref_times.append(t)
        t, digest_bat = _cell(algorithm, n_peers, n_queries, reference=False)
        bat_times.append(t)
    assert digest_ref == digest_bat, (
        f"{algorithm}: reference/batched summaries diverge "
        f"({digest_ref} != {digest_bat})"
    )
    fingerprint = None
    if fp_check:
        fp_ref = _fingerprint(algorithm, n_peers, n_queries, reference=True)
        fingerprint = _fingerprint(
            algorithm, n_peers, n_queries, reference=False
        )
        assert fp_ref == fingerprint, (
            f"{algorithm}: reference/batched fingerprints diverge "
            f"({fp_ref} != {fingerprint})"
        )
    ref_s, bat_s = min(ref_times), min(bat_times)
    return {
        "algorithm": algorithm,
        "n_peers": n_peers,
        "n_queries": n_queries,
        "reference_replay_s": ref_s,
        "batched_replay_s": bat_s,
        "speedup": ref_s / bat_s if bat_s > 0 else float("inf"),
        "fingerprint": fingerprint,
    }


def _append_trajectory(entry: dict) -> None:
    if TRAJECTORY.exists():
        doc = json.loads(TRAJECTORY.read_text())
    else:
        doc = {"schema": BENCH_SCHEMA_VERSION, "entries": []}
    doc["entries"] = (doc.get("entries", []) + [entry])[-TRAJECTORY_KEEP:]
    TRAJECTORY.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def bench_engine_dispatch(benchmark):
    def run():
        # Both cells run the audited fingerprint pair: the committed
        # trajectory doubles as the cross-version equivalence record, so a
        # null ASAP fingerprint would leave the ASAP arm unpinned (the
        # regression gate asserts both fields are present).
        flood = _ab_cell("flooding", N_PEERS, N_QUERIES, fp_check=True)
        asap = _ab_cell("asap_fld", ASAP_PEERS, ASAP_QUERIES, fp_check=True)
        return flood, asap

    flood, asap = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Batched kernels: end-to-end A/B cells",
        f"(min-of-{ROUNDS} interleaved pairs; speedup = reference/batched "
        f"replay wall-clock, fingerprints asserted bit-equal)",
        "",
        f"{'end-to-end cell':34s} {'ref s':>9} {'batched s':>9} {'speedup':>8}",
    ]
    for cell in (flood, asap):
        lines.append(
            f"{cell['algorithm']} {cell['n_peers']}p/{cell['n_queries']}q"
            f"{'':10s} {cell['reference_replay_s']:>9.2f} "
            f"{cell['batched_replay_s']:>9.2f} {cell['speedup']:>7.2f}x"
        )

    data = {
        "flood": flood,
        "asap": asap,
        "flood_speedup": flood["speedup"],
        "asap_speedup": asap["speedup"],
        "rounds": ROUNDS,
    }
    write_result("engine_dispatch", "\n".join(lines), data=data)
    if RECORD:
        _append_trajectory(
            {
                "flood_speedup": flood["speedup"],
                "asap_speedup": asap["speedup"],
                "flood": flood,
                "asap": asap,
                "recorded_utc": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
            }
        )

    assert flood["speedup"] >= MIN_FLOOD_SPEEDUP, (
        f"flooding cell speedup {flood['speedup']:.2f}x below the "
        f"{MIN_FLOOD_SPEEDUP:.1f}x bar (ref {flood['reference_replay_s']:.2f}s, "
        f"batched {flood['batched_replay_s']:.2f}s)"
    )
    assert asap["speedup"] >= MIN_ASAP_SPEEDUP, (
        f"ASAP cell speedup {asap['speedup']:.2f}x below the "
        f"{MIN_ASAP_SPEEDUP:.1f}x bar (ref {asap['reference_replay_s']:.2f}s, "
        f"batched {asap['batched_replay_s']:.2f}s)"
    )

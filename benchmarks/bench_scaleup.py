"""Scale-up bench: wall-clock and peak RSS from 10k to 100k peers.

The struct-of-arrays peer state (``repro.asap.arena``) exists so that a
100k-peer ASAP cell fits in single-digit GB; this bench is the committed
evidence.  Each (algorithm, n_peers) cell runs in a **fresh subprocess**
so ``resource.getrusage`` peak RSS is that cell's own high-water mark,
not the session's, and measures

* end-to-end wall-clock and the replay phase alone,
* peak RSS (MB),
* arena utilisation (rows live/allocated, free-list depth, pool bytes)
  for ASAP cells -- the direct pair-count at scale.

Configuration is deliberately *not* the proportional scale-down of
``scaled_config``: the paper's delivery budget unit M0 = 3000 is pinned
at every size (scaling it with N is what makes cache state explode
quadratically; the paper itself fixes M0 against system size, Section
IV-A), and the physical-network substrate is off (its all-pairs state is
O(N^2) and orthogonal to peer-state memory).

Results go to ``benchmarks/results/scaleup.json`` (the schema-versioned
envelope) and, when recording is on, append to ``BENCH_SCALEUP.json`` at
the repo root -- the committed trajectory the perf-regression gate
(``check_perf_regression.py --scaleup-result ...``) compares against.

Scale control (environment variables):

* ``REPRO_BENCH_SCALEUP_SIZES``   -- comma list (default
  ``10000,30000,100000``; CI smoke passes something smaller)
* ``REPRO_BENCH_SCALEUP_ALGOS``   -- comma list (default
  ``flooding,asap_rw``; ASAP(RW) is the paper's headline scheme and the
  cache-heaviest of the budget-walk forwarders)
* ``REPRO_BENCH_SCALEUP_QUERIES`` -- queries per cell (default
  ``max(200, n_peers // 50)``)
* ``REPRO_BENCH_SCALEUP_ASAP_CACHE`` -- ASAP cache capacity at
  beyond-paper scale (default 200; ``none`` = unbounded everywhere).
  At 10k (the paper's scale) the cache is always unbounded -- the
  paper's primary configuration, which the arena brings to ~4.2 GB.
  Beyond it, unbounded state is *inherently* out of budget: pinned
  M0 = 3000 yields ~4,000 cached pairs per node independent of N
  (~400M pairs at 100k -- over 6 GB of raw rows before any index), so
  the 30k/100k ASAP cells run the paper's limited-cache variant
  (Section IV evaluates exactly this knob), at full delivery volume.
* ``REPRO_BENCH_SCALEUP_MAX_RSS_GB`` -- per-cell peak-RSS bar
  (default 8.0, the issue's acceptance budget)
* ``REPRO_BENCH_SCALEUP_SEED``    -- root seed (default 0)
* ``REPRO_BENCH_SCALEUP_RECORD``  -- 0 skips the trajectory append
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from conftest import BENCH_SCHEMA_VERSION, write_result

SIZES = [
    int(s)
    for s in os.environ.get(
        "REPRO_BENCH_SCALEUP_SIZES", "10000,30000,100000"
    ).split(",")
    if s
]
ALGOS = [
    a
    for a in os.environ.get(
        "REPRO_BENCH_SCALEUP_ALGOS", "flooding,asap_rw"
    ).split(",")
    if a
]
SEED = int(os.environ.get("REPRO_BENCH_SCALEUP_SEED", "0"))
MAX_RSS_GB = float(os.environ.get("REPRO_BENCH_SCALEUP_MAX_RSS_GB", "8.0"))
RECORD = os.environ.get("REPRO_BENCH_SCALEUP_RECORD", "1") != "0"
TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_SCALEUP.json"
TRAJECTORY_KEEP = 20


def _queries(n_peers: int) -> int:
    override = os.environ.get("REPRO_BENCH_SCALEUP_QUERIES")
    if override:
        return int(override)
    return max(200, n_peers // 50)


def _cache_capacity(algorithm: str, n_peers: int):
    """ASAP cache bound per cell -- ``None`` means unbounded."""
    if not algorithm.startswith("asap") or n_peers <= 10000:
        return None
    raw = os.environ.get("REPRO_BENCH_SCALEUP_ASAP_CACHE", "200")
    return None if raw.lower() in ("none", "unbounded") else int(raw)


def _run_cell(algorithm: str, n_peers: int) -> dict:
    """One cell in a fresh interpreter; returns its JSON measurement."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    capacity = _cache_capacity(algorithm, n_peers)
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--cell",
            algorithm,
            str(n_peers),
            str(_queries(n_peers)),
            str(SEED),
            "none" if capacity is None else str(capacity),
        ],
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{algorithm}/{n_peers} cell failed:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _cell_main(
    algorithm: str, n_peers: int, n_queries: int, seed: int, capacity
) -> None:
    """Subprocess body: run the cell, print one JSON line."""
    import dataclasses
    import resource

    from repro.obs import Instruments
    from repro.simulation.config import scaled_config
    from repro.simulation.runner import run_experiment

    config = scaled_config(
        algorithm,
        "random",
        n_peers=n_peers,
        n_queries=n_queries,
        seed=seed,
        use_physical_network=False,
    )
    # Pin the paper's budget unit: M0 is calibrated against content
    # popularity, not system size (Section IV-A) -- the proportional
    # scale-down exists for small differential cells, not scale-up.
    config = dataclasses.replace(
        config,
        asap=dataclasses.replace(
            config.asap, budget_unit=3000, cache_capacity=capacity
        ),
    )
    phase_times: dict = {}
    t0 = time.perf_counter()
    result = run_experiment(config, Instruments(profile=True), phase_times=phase_times)
    wall_s = time.perf_counter() - t0
    profile = result.profile
    out = {
        "algorithm": algorithm,
        "n_peers": n_peers,
        "n_queries": n_queries,
        "seed": seed,
        "cache_capacity": capacity,
        "wall_s": wall_s,
        "replay_s": phase_times.get("replay_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "arena": dict(profile.arena) if profile is not None else {},
        "success_rate": result.summarize().success_rate,
    }
    print(json.dumps(out))


def _append_trajectory(entry: dict) -> None:
    if TRAJECTORY.exists():
        doc = json.loads(TRAJECTORY.read_text())
    else:
        doc = {"schema": BENCH_SCHEMA_VERSION, "entries": []}
    doc["entries"] = (doc.get("entries", []) + [entry])[-TRAJECTORY_KEEP:]
    TRAJECTORY.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def bench_scaleup(benchmark):
    def run():
        cells = []
        for n_peers in SIZES:
            for algorithm in ALGOS:
                cells.append(_run_cell(algorithm, n_peers))
        return cells

    cells = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Scale-up: wall-clock and peak RSS per (algorithm, n_peers) cell",
        f"(fresh subprocess per cell; budget unit pinned at M0=3000; "
        f"peak-RSS bar {MAX_RSS_GB:.1f} GB)",
        "",
        f"{'cell':<22} {'queries':>8} {'cache':>6} {'wall s':>9} "
        f"{'replay s':>9} {'peak RSS MB':>12} {'arena rows':>11} "
        f"{'pool MB':>8}",
    ]
    for cell in cells:
        arena = cell.get("arena") or {}
        cap = cell.get("cache_capacity")
        lines.append(
            f"{cell['algorithm'] + '/' + str(cell['n_peers']):<22} "
            f"{cell['n_queries']:>8d} {'inf' if cap is None else cap:>6} "
            f"{cell['wall_s']:>9.1f} "
            f"{(cell['replay_s'] or 0.0):>9.1f} {cell['peak_rss_mb']:>12.1f} "
            f"{arena.get('rows_live', 0):>11d} "
            f"{arena.get('pool_bytes', 0) / 1e6:>8.1f}"
        )

    data = {
        "cells": cells,
        "max_rss_gb_bar": MAX_RSS_GB,
        "worst_rss_mb": max(c["peak_rss_mb"] for c in cells),
        "sizes": SIZES,
        "algorithms": ALGOS,
    }
    write_result("scaleup", "\n".join(lines), data=data)
    if RECORD:
        _append_trajectory(
            {
                "cells": cells,
                "worst_rss_mb": data["worst_rss_mb"],
                "recorded_utc": time.strftime(
                    "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                ),
            }
        )

    for cell in cells:
        assert cell["peak_rss_mb"] < MAX_RSS_GB * 1024.0, (
            f"{cell['algorithm']}/{cell['n_peers']} peaked at "
            f"{cell['peak_rss_mb']:.0f} MB, over the {MAX_RSS_GB:.1f} GB bar"
        )


if __name__ == "__main__":
    if len(sys.argv) >= 7 and sys.argv[1] == "--cell":
        cap = sys.argv[6]
        _cell_main(
            sys.argv[2],
            int(sys.argv[3]),
            int(sys.argv[4]),
            int(sys.argv[5]),
            None if cap == "none" else int(cap),
        )
    else:  # pragma: no cover - convenience direct run
        raise SystemExit(
            "run via pytest or with --cell <algo> <n> <q> <seed> <capacity>"
        )

"""One benchmark cell in a fresh interpreter: ``python3 perfbench/cell.py``.

Runs ``repro.simulation.run_experiment`` once on one cell of a workload
and prints one JSON line: the phase times, this process's peak RSS, the
sums the pooled figure metrics are made from, the cell fingerprint and the
result of the output checks.  With ``--traced`` the run goes through
:class:`layers.LayerTrace` and the line also carries the per-layer metrics.

``run.py`` starts one of these per cell so each cell's peak RSS and cold
substrate are its own; :func:`run_cell` is the in-process form the tests use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

# Every import happens here, before any timer starts.
from layers import LayerTrace  # noqa: E402
from repro.obs.audit import run_fingerprint  # noqa: E402
from repro.obs.profile import peak_rss_mb  # noqa: E402
from repro.simulation import runner  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

__all__ = ["cell_fingerprint", "check_result", "run_cell"]


def check_result(config, result) -> List[str]:
    """Output checks that hold for every seed; returns the failures."""
    problems = []
    n = len(result.outcomes)
    if n != config.trace.n_queries:
        problems.append(f"{n} outcomes for {config.trace.n_queries} queries")
    for o in result.outcomes:
        if o.cost_bytes < 0 or o.messages < 0:
            problems.append("negative per-query cost")
            break
        if o.success and not (math.isfinite(o.response_time_ms) and o.response_time_ms >= 0):
            problems.append("successful query without a finite response time")
            break
    for cat, total in result.ledger.category_totals().items():
        if not (math.isfinite(total) and total >= 0):
            problems.append(f"ledger total of {cat.value} is {total}")
    load = result.load_summary().mean
    if not (math.isfinite(load) and load > 0):
        problems.append(f"system load is {load}")
    return problems


def cell_fingerprint(result) -> str:
    """``run_fingerprint([], result)`` extended to every figure metric.

    The audit fingerprint covers the ledger totals per category and the
    outcome counts.  This adds each query's success, response time, cost
    and message count, and the system load, so any change to a figure
    value of the cell changes the fingerprint.
    """
    h = hashlib.blake2b(run_fingerprint([], result).encode(), digest_size=16)
    for o in result.outcomes:
        h.update(repr((o.success, o.response_time_ms, o.cost_bytes, o.messages)).encode())
    h.update(repr(result.load_summary().mean).encode())
    return h.hexdigest()


def run_cell(workload: str, seed: int, cell: int, traced: bool = False, tiny: bool = False) -> Dict:
    """Run one cell in this process and return its JSON-ready record."""
    config = build_config(WORKLOADS[workload], seed, cell, tiny=tiny)
    phases: Dict[str, float] = {}
    layers = None
    if traced:
        with LayerTrace() as trace:
            result, wall_s = trace.run(runner.run_experiment, config, phase_times=phases)
        layers = trace.metrics(wall_s)
    else:
        result = runner.run_experiment(config, phase_times=phases)
    successes = [o for o in result.outcomes if o.success]
    record = {
        "workload": workload,
        "seed": seed,
        "cell": cell,
        "config_seed": config.seed,
        "traced": traced,
        "setup_s": phases["setup_s"],
        "replay_s": phases["replay_s"],
        "wall_s": phases["setup_s"] + phases["replay_s"],
        "peak_rss_mb": peak_rss_mb(),
        "queries": len(result.outcomes),
        "successes": len(successes),
        "response_ms_sum": math.fsum(o.response_time_ms for o in successes),
        "cost_bytes_sum": math.fsum(o.cost_bytes for o in result.outcomes),
        "load_bpns": result.load_summary().mean,
        "fingerprint": cell_fingerprint(result),
        "problems": check_result(config, result),
    }
    if layers is not None:
        record["layers"] = layers
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cell", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    record = run_cell(args.workload, args.seed, args.cell, traced=args.traced, tiny=args.tiny)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: end-to-end cell metrics, or a traced layer split.

Run from the root of a checkout::

    python3 perfbench/run.py --workload asap_fld_merge --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every cell of the workload (see ``workloads.py``), each
in a fresh interpreter, and repeats whole passes while another pass fits in
``--seconds``.  It reports the host metrics as medians over all cell runs
and the simulated figure metrics pooled over the cells of the first pass.
``--trace 1`` runs cell 0 untraced, then under :class:`layers.LayerTrace`
and untraced again, adding traced/untraced pairs while time remains.  It
reports the first traced run's per-layer metrics plus the tracing overhead
(see :func:`per_layer_metrics`).  The metric names and units are read from
``BENCHMARK.json``.

Every cell run is an attempted operation.  It fails if the child process
fails, if an output check fails (``cell.check_result``), if its
fingerprint (``cell.cell_fingerprint``, which covers every figure metric)
differs from the one recorded in ``fingerprints.json`` for that seed and
cell, or from an earlier run of the same cell in this benchmark run.  Seeds
with no recorded fingerprint are reported as unchecked.  The last line of
standard output is the JSON result; the line before it carries every run's
record, fingerprints included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

#: The metric names and units, one source of truth for the benchmark.
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: A run must end well inside the 180 s a benchmark run may take.
DEADLINE_S = 170.0


def environment() -> Dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def load_fingerprints() -> Dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def metric_units(key: str) -> List[Tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(BENCHMARK_JSON) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[key]]


def launch(workload: str, seed: int, cell: int, traced: bool, tiny: bool, timeout: float) -> Dict:
    """Run one cell in a fresh interpreter; returns its record or an error."""
    cmd = [
        sys.executable, os.path.join(HERE, "cell.py"),
        "--workload", workload, "--seed", str(seed), "--cell", str(cell),
    ]
    if traced:
        cmd.append("--traced")
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    base = {"workload": workload, "seed": seed, "cell": cell, "traced": traced}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return dict(base, error=f"timed out after {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = proc.stderr.strip().splitlines()[-3:]
    return dict(base, error=f"exit {proc.returncode}: {' | '.join(tail)}")


def judge(records: List[Dict], expected: Optional[List[str]]) -> List[Dict]:
    """Mark each record ``ok`` or give the reason it failed (in place)."""
    first: Dict[int, str] = {}
    for rec in records:
        reasons = [rec["error"]] if "error" in rec else list(rec["problems"])
        fp = rec.get("fingerprint")
        cell = rec["cell"]
        if fp is not None:
            if expected is not None and (cell >= len(expected) or expected[cell] != fp):
                reasons.append(f"fingerprint {fp} differs from the recorded one")
            if cell in first and first[cell] != fp:
                reasons.append(f"fingerprint {fp} differs from an earlier run ({first[cell]})")
            first.setdefault(cell, fp)
        rec["ok"] = not reasons
        rec["reasons"] = reasons
    return records


def end_to_end_metrics(records: List[Dict], n_cells: int) -> Optional[Dict[str, float]]:
    """End-to-end metrics of one benchmark run, or None if a cell never ran.

    ``setup_s`` and ``peak_rss_mb`` are medians over every cell run.
    ``replay_s`` is the mean over every cell run: the cells replay
    different traces, so the mean is the replay cost of the run's whole
    fixed work, and it averages the host's second-to-second speed over all
    of it.  The figure metrics pool the first run of every cell.
    """
    good = [r for r in records if r["ok"] and not r["traced"]]
    by_cell = {}
    for r in good:
        by_cell.setdefault(r["cell"], r)
    if len(by_cell) != n_cells:
        return None
    cells = [by_cell[c] for c in range(n_cells)]
    queries = sum(r["queries"] for r in cells)
    successes = sum(r["successes"] for r in cells)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "replay_s": statistics.fmean(r["replay_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "success_rate": successes / queries,
        "response_ms_mean": sum(r["response_ms_sum"] for r in cells) / successes,
        "cost_bytes_per_query": sum(r["cost_bytes_sum"] for r in cells) / queries,
        "load_bpns": statistics.fmean(r["load_bpns"] for r in cells),
    }


def per_layer_metrics(records: List[Dict]) -> Optional[Dict[str, float]]:
    """The first traced run's layer metrics plus the tracing overhead.

    ``measure`` puts every traced run between two untraced runs of the same
    cell.  The overhead is the median, over the traced runs, of the traced
    wall time against the mean of its two neighbours, so a host whose speed
    drifts over minutes moves both sides of each ratio alike.  ``judge``
    has already failed a traced run whose fingerprint differs from the
    untraced runs of the same cell.
    """
    ratios = []
    for before, traced, after in zip(records, records[1:], records[2:]):
        if traced["traced"] and before["ok"] and traced["ok"] and after["ok"]:
            ratios.append(traced["wall_s"] / statistics.fmean((before["wall_s"], after["wall_s"])))
    if not ratios:
        return None
    first = next(r for r in records if r["traced"] and r["ok"])
    out = dict(first["layers"])
    out["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> List[Dict]:
    """Launch the cell runs of one benchmark run (see module docstring)."""
    n_cells = WORKLOADS[workload].cells
    start = time.perf_counter()
    budget = min(seconds, DEADLINE_S - 10.0)
    records: List[Dict] = []

    def run(cell: int, traced: bool) -> float:
        t0 = time.perf_counter()
        left = DEADLINE_S - (t0 - start)
        records.append(launch(workload, seed, cell, traced, tiny, timeout=left))
        return time.perf_counter() - t0

    if trace:
        # untraced, traced, untraced, then further traced/untraced pairs.
        run(0, traced=False)
        while True:
            spent = run(0, traced=True) + run(0, traced=False)
            if time.perf_counter() - start + spent > budget:
                return records
    while True:
        spent = sum(run(cell, traced=False) for cell in range(n_cells))
        if time.perf_counter() - start + spent > budget:
            return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="about 60 peers, no physical network (tests)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "simulation", "runner.py")):
        print(f"error: no simulator sources under {ROOT}/src", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    scope = "tiny" if args.tiny else "full"
    recorded = load_fingerprints()
    expected = recorded.get(scope, {}).get(args.workload, {}).get(str(args.seed))
    records = judge(measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny), expected)
    failed = sum(1 for r in records if not r["ok"])
    if args.trace:
        values, specs = per_layer_metrics(records), metric_units("per_layer")
    else:
        values, specs = end_to_end_metrics(records, workload.cells), metric_units("end_to_end")

    status = "checked" if expected is not None else "unchecked"
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint_check": status,
        "runs": [{k: v for k, v in r.items() if k != "layers"} for r in records],
        "failures": [r["reasons"] for r in records if not r["ok"]],
        "environment": environment(),
    }
    print(json.dumps(info, sort_keys=True))
    print(f"# {args.workload} seed {args.seed}: {len(records)} runs, {failed} failed, "
          f"fingerprints {status}", file=sys.stderr)
    for reasons in info["failures"]:
        print(f"#   failed: {'; '.join(reasons)}", file=sys.stderr)

    correct = failed == 0 and values is not None
    metrics = {}
    if values is not None:
        for name, unit in specs:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"#   {name:32s} {values[name]:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if values is not None else 1


if __name__ == "__main__":
    sys.exit(main())

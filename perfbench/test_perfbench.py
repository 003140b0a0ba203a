"""Tests of the benchmark itself, at tiny scale (about 60 peers, no GT-ITM).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import cell
import layers
import run
from cell import run_cell
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _cli(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def _patch_targets():
    """Every attribute the layer trace patches, read through its owner."""
    from repro.asap.arena import ArenaRepository
    from repro.sim import kernels
    from repro.simulation import runner

    names = ("get_substrate", "build_topology", "Overlay", "synthesize_content",
             "generate_trace", "build_algorithm", "SimulationEngine")
    out = {f"runner.{n}": getattr(runner, n) for n in names}
    for n in layers._FLOOD_KERNELS + layers._WALK_KERNELS + layers._GATHER_KERNELS:
        out[f"kernels.{n}"] = getattr(kernels, n)
    out["ArenaRepository.accept_snapshot"] = vars(ArenaRepository)["accept_snapshot"]
    return out


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    result, stderr = _cli("asap_fld_merge", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _benchmark_json()[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    for name, unit in want.items():
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert name in stderr and unit in stderr


def test_a_tampered_fingerprint_fails_the_run():
    rec = run_cell("asap_fld_merge", seed=3, cell=0, tiny=True)
    good = run.judge([dict(rec)], expected=[rec["fingerprint"], "x"])
    assert good[0]["ok"]
    tampered = "0" * len(rec["fingerprint"])
    bad = run.judge([dict(rec)], expected=[tampered, "x"])
    assert not bad[0]["ok"]
    assert "differs from the recorded one" in bad[0]["reasons"][0]
    # A later run of the same cell with another fingerprint fails as well.
    drift = run.judge([dict(rec), dict(rec, fingerprint=tampered)], expected=None)
    assert [r["ok"] for r in drift] == [True, False]


def test_the_fingerprint_covers_the_figure_values():
    from dataclasses import replace

    from repro.simulation import runner
    from workloads import build_config

    result = runner.run_experiment(build_config(WORKLOADS["asap_fld_merge"], 3, 0, tiny=True))
    fp = cell.cell_fingerprint(result)
    i = next(i for i, o in enumerate(result.outcomes) if o.success)
    o = result.outcomes[i]
    for changed in (
        replace(o, response_time_ms=o.response_time_ms * 1.01),
        replace(o, cost_bytes=o.cost_bytes + 1.0),
    ):
        outcomes = list(result.outcomes)
        outcomes[i] = changed
        assert cell.cell_fingerprint(replace(result, outcomes=outcomes)) != fp


@pytest.mark.parametrize("seed,status", [(1, "checked"), (3, "unchecked")])
def test_fingerprint_status_is_reported(seed, status):
    # Seed 1 has recorded tiny fingerprints; seed 3 has none and must be
    # reported as unchecked, never as passed.
    result, stderr = _cli("asap_rw_churn", 0, seed=seed)
    assert result["correct"] is True
    assert f"fingerprints {status}" in stderr


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_for_every_workload(workload):
    traced = run_cell(workload, seed=3, cell=0, traced=True, tiny=True)
    plain = run_cell(workload, seed=3, cell=0, tiny=True)
    assert traced["fingerprint"] == plain["fingerprint"]
    values = run.per_layer_metrics(run.judge([plain, traced, dict(plain)], expected=None))
    assert values is not None
    assert set(values) == {name for name, _ in run.metric_units("per_layer")}
    shares = sum(values[f"share.{layer}"] for layer in layers.LAYERS)
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert values["search.queries"] == traced["queries"]
    assert values["engine.events"] > 0


def test_overhead_is_the_median_against_neighbouring_runs():
    def rec(wall, traced):
        return {"cell": 0, "traced": traced, "wall_s": wall, "fingerprint": "f",
                "problems": [], "layers": {"trace.wall_s": wall}}

    # A host that slows down over the run: each traced run is 10% over
    # the mean of the untraced runs on either side of it.
    walls = [(10.0, False), (13.2, True), (14.0, False), (17.6, True), (18.0, False)]
    values = run.per_layer_metrics(run.judge([rec(w, t) for w, t in walls], expected=None))
    assert values["trace.overhead_frac"] == pytest.approx(0.1)
    assert values["trace.wall_s"] == 13.2


def test_a_second_traced_run_sees_unpatched_code():
    before = _patch_targets()
    first = run_cell("asap_rw_churn", seed=3, cell=0, traced=True, tiny=True)
    assert _patch_targets() == before
    second = run_cell("asap_rw_churn", seed=3, cell=0, traced=True, tiny=True)
    assert _patch_targets() == before
    assert second["fingerprint"] == first["fingerprint"]
    # Wrappers left behind would double-count the second run's spans.
    for name in ("delivery.calls", "kernels.calls", "engine.events",
                 "protocol.repairs", "search.queries"):
        assert second["layers"][name] == first["layers"][name], name


def test_instance_patches_are_undone():
    from repro.simulation import runner
    from workloads import build_config

    config = build_config(WORKLOADS["asap_rw_churn"], 3, 0, tiny=True)
    with layers.LayerTrace() as trace:
        trace.run(runner.run_experiment, config)
    for name in ("search", "warmup", "on_join", "on_leave", "on_content_change"):
        assert name not in vars(trace.algorithm), name
    assert "deliver" not in vars(trace.algorithm.forwarder)
    assert "run" not in vars(trace.engine)


def test_patches_are_undone_when_the_run_raises():
    from repro.simulation import runner

    before = _patch_targets()
    with pytest.raises(AttributeError):
        with layers.LayerTrace() as trace:
            trace.run(runner.run_experiment, None)
    assert _patch_targets() == before

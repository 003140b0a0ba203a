"""benchmarks/check_perf_regression.py fails when a gate's baseline is absent."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_perf_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _result(path, **data):
    path.write_text(json.dumps({"schema": 1, "data": data}))
    return str(path)


def _trajectory(path, *entries):
    path.write_text(json.dumps({"schema": 1, "entries": list(entries)}))
    return str(path)


OVERHEAD = dict(
    n_peers=100, n_queries=10, disabled_s=1.0, enabled_s=1.01, overhead_frac=0.01
)


def _telemetry_args(tmp_path, baseline):
    return [
        "--result", _result(tmp_path / "telemetry.json", **OVERHEAD),
        "--baseline", baseline,
    ]


def test_telemetry_gate_passes_against_a_baseline(gate, tmp_path):
    baseline = _trajectory(tmp_path / "BENCH_TELEMETRY.json", OVERHEAD)
    assert gate(_telemetry_args(tmp_path, baseline)) == 0


@pytest.mark.parametrize("content", [None, "", '{"schema": 1, "entries": []}'])
def test_missing_or_empty_baseline_fails(gate, tmp_path, content):
    baseline = tmp_path / "BENCH_TELEMETRY.json"
    if content is not None:
        baseline.write_text(content)
    assert gate(_telemetry_args(tmp_path, str(baseline))) == 1


def test_probe_gate_fails_without_its_baseline(gate, tmp_path):
    telemetry_baseline = _trajectory(tmp_path / "BENCH_TELEMETRY.json", OVERHEAD)
    probes = _result(tmp_path / "probes.json", ticks=3, **OVERHEAD)
    args = _telemetry_args(tmp_path, telemetry_baseline) + ["--probes-result", probes]
    missing = str(tmp_path / "BENCH_PROBES.json")
    assert gate(args + ["--probes-baseline", missing]) == 1
    present = _trajectory(tmp_path / "BENCH_PROBES.json", dict(OVERHEAD, ticks=3))
    assert gate(args + ["--probes-baseline", present]) == 0

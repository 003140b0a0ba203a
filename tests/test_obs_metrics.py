"""Metrics registry, Prometheus/JSON export, report building and diffing."""

import json

import pytest

from repro.obs.metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    diff_flat,
    flatten,
)
from repro.obs import Instruments
from repro.obs.report import build_registry, main, render_diff
from repro.obs.trace import Tracer
from repro.simulation.config import scaled_config
from repro.simulation.runner import run_experiment


# --------------------------------------------------------------- primitives
def test_counter_rejects_decrease():
    c = CounterMetric()
    c.inc(2)
    with pytest.raises(ValueError):
        c.inc(-1)
    assert c.value == 2


def test_gauge_moves_both_ways():
    g = GaugeMetric()
    g.set(5)
    g.inc(-2)
    assert g.value == 3


def test_histogram_cumulative_counts():
    h = HistogramMetric(buckets=(1.0, 5.0, 10.0))
    for v in (0.5, 3.0, 7.0, 100.0):
        h.observe(v)
    assert h.counts == [1, 2, 3]  # cumulative per finite bucket
    assert h.count == 4
    assert h.sum == pytest.approx(110.5)


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        HistogramMetric(buckets=(5.0, 1.0))


# ----------------------------------------------------------------- registry
def test_registry_same_labels_same_series():
    reg = MetricsRegistry()
    a = reg.counter("x_total", "help", category="ad")
    b = reg.counter("x_total", category="ad")
    c = reg.counter("x_total", category="query")
    assert a is b and a is not c


def test_registry_rejects_type_conflicts_and_bad_names():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(ValueError):
        reg.gauge("x_total")
    with pytest.raises(ValueError):
        reg.counter("bad name")
    with pytest.raises(ValueError):
        reg.counter("ok", **{"0bad": "v"})


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_bytes_total", "bytes", category="full_ad").inc(100)
    reg.counter("repro_bytes_total", "bytes", category="query").inc(40)
    reg.gauge("repro_success_rate", "fraction").set(0.75)
    h = reg.histogram("repro_rt_ms", "response time", buckets=(10.0, 100.0))
    h.observe(5.0)
    h.observe(50.0)
    h.observe(5000.0)
    return reg


def test_json_round_trip():
    reg = _sample_registry()
    data = json.loads(reg.to_json())
    again = MetricsRegistry.from_dict(data)
    assert again.to_dict() == reg.to_dict()


def test_prometheus_exposition_format():
    text = _sample_registry().to_prometheus()
    assert "# TYPE repro_bytes_total counter" in text
    assert 'repro_bytes_total{category="full_ad"} 100' in text
    assert "# HELP repro_success_rate fraction" in text
    assert "repro_success_rate 0.75" in text
    # Histogram: cumulative buckets, +Inf, _sum, _count.
    assert 'repro_rt_ms_bucket{le="10"} 1' in text
    assert 'repro_rt_ms_bucket{le="100"} 2' in text
    assert 'repro_rt_ms_bucket{le="+Inf"} 3' in text
    assert "repro_rt_ms_sum 5055" in text
    assert "repro_rt_ms_count 3" in text
    assert text.endswith("\n")


def test_label_escaping_in_prometheus():
    reg = MetricsRegistry()
    reg.gauge("g", "", label='say "hi"\nbye').set(1)
    assert 'label="say \\"hi\\"\\nbye"' in reg.to_prometheus()


def test_help_text_is_escaped_in_prometheus():
    reg = MetricsRegistry()
    reg.gauge("g", "line one\nline two \\ backslash").set(1)
    text = reg.to_prometheus()
    assert "# HELP g line one\\nline two \\\\ backslash" in text
    # The escaped HELP stays on one physical line.
    help_lines = [ln for ln in text.splitlines() if ln.startswith("# HELP g")]
    assert len(help_lines) == 1


def _lint_prometheus(text: str) -> None:
    """Minimal exposition-format lint: HELP+TYPE pair precedes every family,
    every sample line parses, and no family appears twice."""
    import re

    lines = text.splitlines()
    assert text.endswith("\n")
    seen_families = set()
    declared = None  # family currently legal for sample lines
    i = 0
    while i < len(lines):
        ln = lines[i]
        assert ln.startswith("# HELP "), f"expected HELP, got {ln!r}"
        family = ln.split()[2]
        assert family not in seen_families, f"family {family} declared twice"
        seen_families.add(family)
        assert lines[i + 1].startswith(f"# TYPE {family} "), lines[i + 1]
        mtype = lines[i + 1].split()[3]
        assert mtype in ("counter", "gauge", "histogram")
        i += 2
        n_samples = 0
        sample_re = re.compile(
            r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (\S+)$"
        )
        while i < len(lines) and not lines[i].startswith("#"):
            m = sample_re.match(lines[i])
            assert m, f"unparseable sample line {lines[i]!r}"
            name = m.group(1)
            if mtype == "histogram":
                assert name in (
                    family, family + "_bucket", family + "_sum", family + "_count"
                ), name
            else:
                assert name == family
            float(m.group(3).replace("+Inf", "inf").replace("-Inf", "-inf"))
            n_samples += 1
            i += 1
        assert n_samples > 0, f"family {family} has no samples"


def test_prometheus_format_lint_on_sample_registry():
    reg = _sample_registry()
    reg.gauge("repro_no_help")  # family with empty help still gets HELP+TYPE
    text = reg.to_prometheus()
    assert "# HELP repro_no_help\n# TYPE repro_no_help gauge" in text
    _lint_prometheus(text)


def test_prometheus_format_lint_on_real_report(tiny_result):
    result, _ = tiny_result
    _lint_prometheus(build_registry(result).to_prometheus())


# ------------------------------------------------------------- flatten/diff
def test_flatten_and_diff():
    flat_a = flatten(_sample_registry().to_dict())
    assert flat_a['repro_bytes_total{category="query"}'] == 40.0
    assert flat_a["repro_rt_ms_count"] == 3.0

    reg_b = _sample_registry()
    reg_b.counter("repro_bytes_total", category="query").inc(10)
    reg_b.gauge("repro_only_b").set(1)
    rows = diff_flat(flat_a, flatten(reg_b.to_dict()))
    as_dict = {series: (va, vb) for series, va, vb in rows}
    assert as_dict['repro_bytes_total{category="query"}'] == (40.0, 50.0)
    assert as_dict["repro_only_b"] == (None, 1.0)
    # Unchanged series are omitted.
    assert 'repro_bytes_total{category="full_ad"}' not in as_dict


def test_diff_flat_identical_is_empty():
    flat = flatten(_sample_registry().to_dict())
    assert diff_flat(flat, dict(flat)) == []


# ------------------------------------------------------- end-to-end report
@pytest.fixture(scope="module")
def tiny_result():
    config = scaled_config(
        "asap_rw",
        "random",
        n_peers=40,
        n_queries=15,
        seed=0,
        use_physical_network=False,
    )
    tracer = Tracer()
    result = run_experiment(
        config, Instruments(profile=True, diagnostics=True), tracer=tracer
    )
    return result, tracer


def test_run_experiment_attaches_profile_and_diagnostics(tiny_result):
    result, tracer = tiny_result
    assert result.profile is not None
    assert result.profile.events > 0
    assert result.profile.engine_events == result.profile.events
    assert result.profile.phases["warmup"].events > 0
    assert result.cache_diagnostics is not None
    assert result.cache_diagnostics.to_dict()["n_nodes"] == 40
    # The tracer saw query spans (plus nested confirm_stats events) and
    # ad events.
    spans = [
        r for r in tracer.records
        if r.category == "query" and r.kind == "span"
    ]
    assert len(spans) == 15
    assert tracer.counts_by_category().get("ad", 0) > 0


def test_build_registry_covers_issue_required_series(tiny_result):
    result, _ = tiny_result
    reg = build_registry(result)
    flat = flatten(reg.to_dict())
    assert any(k.startswith("repro_ledger_bytes_total") for k in flat)
    assert any(k.startswith("repro_asap_cache_") for k in flat)
    assert any(k.startswith("repro_profile_phase_wall_seconds") for k in flat)
    assert any(k.startswith("repro_profile_subsystem_events_total") for k in flat)
    assert flat[next(k for k in flat if k.startswith("repro_queries_total"))] == 15
    # The export renders in both formats without error.
    assert reg.to_prometheus().startswith("# ")
    json.loads(reg.to_json())


def test_report_cli_run_and_diff(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    common = [
        "run", "--algorithm", "random_walk", "--topology", "random",
        "--peers", "30", "--queries", "10", "--no-physical-network",
    ]
    assert main(common + ["--seed", "0", "--out", str(out_a), "--trace"]) == 0
    assert main(common + ["--seed", "1", "--out", str(out_b)]) == 0
    assert (out_a / "metrics.json").exists()
    assert (out_a / "metrics.prom").exists()
    trace_lines = (out_a / "trace.jsonl").read_text().splitlines()
    assert trace_lines and all(json.loads(ln)["kind"] for ln in trace_lines)
    assert not (out_b / "trace.jsonl").exists()

    capsys.readouterr()
    assert main(["diff", str(out_a / "metrics.json"), str(out_b / "metrics.json")]) == 0
    out = capsys.readouterr().out
    assert "delta" in out and "repro_" in out


def test_render_diff_identical():
    data = _sample_registry().to_dict()
    assert render_diff(data, data) == "reports are identical"

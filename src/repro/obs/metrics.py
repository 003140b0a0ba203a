"""A small metrics registry with JSON and Prometheus text export.

Named counters, gauges and histograms with optional label sets, mirroring
the Prometheus data model closely enough that ``to_prometheus()`` emits
valid exposition text (``# HELP`` / ``# TYPE`` headers, ``_bucket`` /
``_sum`` / ``_count`` series for histograms) while ``to_dict()`` /
``from_dict()`` round-trip through JSON for the report differ.

The registry is a *snapshot* sink, not a hot-path instrument: the
simulator keeps its own accounting (:class:`~repro.sim.metrics.
BandwidthLedger`, :class:`~repro.asap.diagnostics.CacheDiagnostics`,
engine counters) and :mod:`repro.obs.report` snapshots them into a
registry at export time.  That keeps the simulation loop free of any
metrics overhead.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "MetricsRegistry",
    "diff_flat",
    "flatten",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-ish / generic magnitude scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    # HELP lines escape backslash and newline only (no quote escaping) --
    # exposition format 0.0.4.
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(v: float) -> str:
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


@dataclass
class CounterMetric:
    """Monotonically increasing value."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters cannot decrease")
        self.value += amount


@dataclass
class GaugeMetric:
    """Point-in-time value; may move both ways."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class HistogramMetric:
    """Cumulative-bucket histogram (Prometheus semantics)."""

    buckets: Tuple[float, ...] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)  # per finite bucket
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        bounds = tuple(sorted(self.buckets))
        if bounds != tuple(self.buckets):
            raise ValueError("histogram buckets must be sorted ascending")
        if not self.counts:
            self.counts = [0] * len(self.buckets)
        elif len(self.counts) != len(self.buckets):
            raise ValueError("counts length must match buckets")

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1


_METRIC_TYPES = {
    "counter": CounterMetric,
    "gauge": GaugeMetric,
    "histogram": HistogramMetric,
}


class MetricsRegistry:
    """Named metrics with label sets, exportable as JSON or Prometheus text."""

    def __init__(self) -> None:
        # name -> (type, help)
        self._meta: Dict[str, Tuple[str, str]] = {}
        # name -> label-key -> metric object
        self._series: Dict[str, Dict[LabelKey, object]] = {}

    # ------------------------------------------------------------ get/create
    def _declare(self, name: str, mtype: str, help: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        existing = self._meta.get(name)
        if existing is not None:
            if existing[0] != mtype:
                raise ValueError(
                    f"metric {name!r} already registered as {existing[0]}"
                )
            return
        self._meta[name] = (mtype, help)
        self._series[name] = {}

    def counter(self, name: str, help: str = "", **labels: str) -> CounterMetric:
        self._declare(name, "counter", help)
        return self._get(name, labels, CounterMetric)

    def gauge(self, name: str, help: str = "", **labels: str) -> GaugeMetric:
        self._declare(name, "gauge", help)
        return self._get(name, labels, GaugeMetric)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> HistogramMetric:
        self._declare(name, "histogram", help)
        key = _label_key(labels)
        series = self._series[name]
        metric = series.get(key)
        if metric is None:
            metric = HistogramMetric(
                buckets=tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
            )
            series[key] = metric
        return metric  # type: ignore[return-value]

    def _get(self, name: str, labels: Mapping[str, str], cls) -> object:
        key = _label_key(labels)
        series = self._series[name]
        metric = series.get(key)
        if metric is None:
            metric = cls()
            series[key] = metric
        return metric

    def names(self) -> List[str]:
        return sorted(self._meta)

    # ---------------------------------------------------------------- export
    def to_dict(self) -> Dict[str, object]:
        metrics: List[Dict[str, object]] = []
        for name in sorted(self._meta):
            mtype, help = self._meta[name]
            for key, metric in sorted(self._series[name].items()):
                entry: Dict[str, object] = {
                    "name": name,
                    "type": mtype,
                    "help": help,
                    "labels": dict(key),
                }
                if mtype == "histogram":
                    assert isinstance(metric, HistogramMetric)
                    entry["buckets"] = list(metric.buckets)
                    entry["counts"] = list(metric.counts)
                    entry["sum"] = metric.sum
                    entry["count"] = metric.count
                else:
                    entry["value"] = metric.value  # type: ignore[attr-defined]
                metrics.append(entry)
        return {"metrics": metrics}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_dict(data: Mapping[str, object]) -> "MetricsRegistry":
        reg = MetricsRegistry()
        for entry in data["metrics"]:  # type: ignore[index]
            name = entry["name"]
            mtype = entry["type"]
            labels = entry.get("labels", {})
            if mtype == "counter":
                reg.counter(name, entry.get("help", ""), **labels).inc(entry["value"])
            elif mtype == "gauge":
                reg.gauge(name, entry.get("help", ""), **labels).set(entry["value"])
            elif mtype == "histogram":
                h = reg.histogram(
                    name,
                    entry.get("help", ""),
                    buckets=entry["buckets"],
                    **labels,
                )
                h.counts = list(entry["counts"])
                h.sum = float(entry["sum"])
                h.count = int(entry["count"])
            else:
                raise ValueError(f"unknown metric type {mtype!r}")
        return reg

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._meta):
            mtype, help = self._meta[name]
            # Every family gets HELP + TYPE (scrapers and format linters
            # expect the pair even when the docstring is empty).
            lines.append(f"# HELP {name} {_escape_help(help)}".rstrip())
            lines.append(f"# TYPE {name} {mtype}")
            for key, metric in sorted(self._series[name].items()):
                labels = _format_labels(key)
                if mtype == "histogram":
                    assert isinstance(metric, HistogramMetric)
                    # counts[] are already cumulative (observe() increments
                    # every bucket the value fits under).
                    for bound, c in zip(metric.buckets, metric.counts):
                        bucket_key = tuple(sorted(key + (("le", _format_value(bound)),)))
                        lines.append(f"{name}_bucket{_format_labels(bucket_key)} {c}")
                    inf_key = tuple(sorted(key + (("le", "+Inf"),)))
                    lines.append(f"{name}_bucket{_format_labels(inf_key)} {metric.count}")
                    lines.append(f"{name}_sum{labels} {_format_value(metric.sum)}")
                    lines.append(f"{name}_count{labels} {metric.count}")
                else:
                    value = metric.value  # type: ignore[attr-defined]
                    lines.append(f"{name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"


def flatten(data: Mapping[str, object]) -> Dict[str, float]:
    """Flatten a ``to_dict()`` report into ``name{labels} -> value``.

    Histograms contribute ``_sum`` and ``_count`` series.  This is the
    comparison key-space of ``repro.obs.report diff``.
    """
    out: Dict[str, float] = {}
    for entry in data["metrics"]:  # type: ignore[index]
        labels = _format_labels(_label_key(entry.get("labels", {})))
        base = f"{entry['name']}{labels}"
        if entry["type"] == "histogram":
            out[f"{entry['name']}_sum{labels}"] = float(entry["sum"])
            out[f"{entry['name']}_count{labels}"] = float(entry["count"])
        else:
            out[base] = float(entry["value"])
    return out


def diff_flat(
    a: Mapping[str, float], b: Mapping[str, float]
) -> List[Tuple[str, Optional[float], Optional[float]]]:
    """Rows ``(series, value_a, value_b)`` for all series in either report.

    Only series that differ (or exist on one side only) are returned,
    sorted by series name.
    """
    rows: List[Tuple[str, Optional[float], Optional[float]]] = []
    for series in sorted(set(a) | set(b)):
        va, vb = a.get(series), b.get(series)
        if va is None or vb is None or va != vb:
            rows.append((series, va, vb))
    return rows

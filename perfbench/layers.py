"""Per-layer tracing of one ``run_experiment`` call, from outside ``src/``.

:class:`LayerTrace` patches the public entry points of every layer for the
duration of one ``with`` block and restores each of them on exit:

* the names ``run_experiment`` looks up in :mod:`repro.simulation.runner`
  (substrate, topology, overlay, workload synthesis, trace generation,
  algorithm build, engine);
* the built algorithm's public methods (``search``, ``warmup``,
  ``on_join``/``on_leave``/``on_content_change``) and its forwarder's
  ``deliver``;
* the flood, walk and interest-gather functions of :mod:`repro.sim.kernels`;
* ``accept_snapshot`` of the ads repositories (counted, the repair path);
* an engine observer (``SimulationEngine.set_observer``) that opens one
  span per dispatched event, named by its subsystem prefix.

Spans nest.  A span's self time is its duration minus the time its child
spans cover, and every span's self time belongs to exactly one layer, so
the layers' self times add up to the traced wall time.  ``other`` is the
runner's own code between the wrapped calls plus any event whose
subsystem has no layer: a large ``other`` means a layer boundary is
missing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional
from unittest import mock

from repro.asap.diagnostics import diagnose
from repro.asap.protocol import AsapSearch
from repro.obs.profile import subsystem_of
from repro.obs.telemetry import quantile_nearest_rank
from repro.sim import kernels
from repro.simulation import runner

__all__ = ["LAYERS", "LayerTrace"]

#: Layers a span's self time can belong to, in report order.
LAYERS = (
    "workload",
    "network",
    "simulation",
    "engine",
    "delivery",
    "kernels",
    "protocol",
    "search",
    "other",
)

#: Event subsystems (``repro.obs.profile.subsystem_of``) and their layer.
#: ``trace`` events run the runner's dispatch closure; the algorithm calls
#: it makes are spans of their own.
_EVENT_LAYER = {
    "full-ad": "protocol",
    "refresh": "protocol",
    "bootstrap": "protocol",
    "trace": "simulation",
}

_FLOOD_KERNELS = ("flood_frontier", "flood_bfs", "flood_rings")
_WALK_KERNELS = ("rw_delivery", "rw_search")
_GATHER_KERNELS = ("interested_receivers",)

class LayerTrace:
    """Span recorder plus the patches that feed it (see module docstring)."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._stack: List[list] = []  # [name, layer, start, child time]
        self.self_s: Dict[str, float] = defaultdict(float)  # per span name
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.search_us: List[float] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.algorithm = None
        self.engine = None
        self._patches = contextlib.ExitStack()

    # ------------------------------------------------------------ spans
    def begin(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, self._clock(), 0.0])

    def end(self) -> float:
        now = self._clock()
        name, layer, start, child = self._stack.pop()
        dur = now - start
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        self.calls[name] += 1
        self.layer_self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    def _wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        after: Optional[Callable[[Any, float], None]] = None,
    ) -> Callable:
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace.begin(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = trace.end()
            if after is not None:
                after(out, dur)
            return out

        return wrapper

    # ---------------------------------------------- engine observer hooks
    def event_begin(self, event) -> None:
        sub = subsystem_of(event.name)
        self.begin(f"event.{sub}", _EVENT_LAYER.get(sub, "other"))

    def event_end(self, event) -> None:
        self.end()

    # ------------------------------------------------------------ patching
    def _patch(self, owner: Any, name: str, value: Any) -> None:
        """Replace ``owner.name`` until the ``with`` block ends."""
        self._patches.enter_context(mock.patch.object(owner, name, value))

    def __enter__(self) -> "LayerTrace":
        with self._patches as stack:
            for name, layer in (
                ("get_substrate", "network"),
                ("build_topology", "network"),
                ("Overlay", "network"),
                ("synthesize_content", "workload"),
            ):
                self._patch(runner, name, self._wrap(getattr(runner, name), name, layer))
            self._patch(
                runner,
                "generate_trace",
                self._wrap(
                    runner.generate_trace, "generate_trace", "workload",
                    after=self._count_trace,
                ),
            )
            self._patch(
                runner,
                "build_algorithm",
                self._wrap(
                    runner.build_algorithm, "build_algorithm", "simulation",
                    after=self._instrument_algorithm,
                ),
            )
            self._patch(runner, "SimulationEngine", self._engine_factory(runner.SimulationEngine))
            for fname in _FLOOD_KERNELS + _WALK_KERNELS + _GATHER_KERNELS:
                self._patch(
                    kernels, fname,
                    self._wrap(getattr(kernels, fname), f"kernels.{fname}", "kernels"),
                )
            # Every patch is in place: keep them past this block.
            self._patches = stack.pop_all()
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()

    def _count_trace(self, trace, dur: float) -> None:
        self.counts["trace_events"] += len(trace.events)

    def _engine_factory(self, engine_cls):
        trace = self

        def make_engine(*args, **kwargs):
            engine = engine_cls(*args, **kwargs)
            engine.set_observer(trace)
            trace._patch(engine, "run", trace._wrap(engine.run, "engine.run", "engine"))
            trace.engine = engine
            return engine

        return make_engine

    def _instrument_algorithm(self, algo, dur: float) -> None:
        self.algorithm = algo
        hooks = "protocol" if isinstance(algo, AsapSearch) else "search"
        self._patch(algo, "search", self._wrap(algo.search, "search", "search", after=self._count_search))
        for name in ("warmup", "on_join", "on_leave", "on_content_change"):
            self._patch(algo, name, self._wrap(getattr(algo, name), name, hooks))
        forwarder = getattr(algo, "forwarder", None)
        if forwarder is not None:
            self._patch(
                forwarder,
                "deliver",
                self._wrap(forwarder.deliver, "deliver", "delivery", after=self._count_delivery),
            )
        repos = getattr(algo, "repos", None)
        if repos:
            repo_cls = type(repos[0])
            self._patch(repo_cls, "accept_snapshot", self._counted(repo_cls.accept_snapshot, "repairs"))

    def _counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_search(self, outcome, dur: float) -> None:
        self.search_us.append(dur * 1e6)

    def _count_delivery(self, report, dur: float) -> None:
        self.counts["receivers"] += len(report.visited)
        self.counts["messages"] += report.messages

    # ------------------------------------------------------------- report
    def run(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as the root span; returns ``(result, wall seconds)``.

        The root span's self time -- the caller's own code between the
        wrapped layer calls -- is the ``other`` layer.
        """
        self.begin("root", "other")
        try:
            out = fn(*args, **kwargs)
        finally:
            wall_s = self.end()
        return out, wall_s

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of a traced run whose root span took ``wall_s``."""
        if self._stack:
            raise RuntimeError(f"unclosed spans: {[s[0] for s in self._stack]}")
        s, c, counts = self.self_s, self.calls, self.counts
        kernel_calls = sum(c[f"kernels.{k}"] for k in _FLOOD_KERNELS + _WALK_KERNELS + _GATHER_KERNELS)
        events = sum(n for name, n in c.items() if name.startswith("event."))
        merge_s = (
            s["event.full-ad"] + s["event.refresh"] + s["on_content_change"]
        )
        receivers = counts["receivers"]
        search_us = sorted(self.search_us)
        out = {
            "workload.synthesize_s": s["synthesize_content"],
            "workload.trace_s": s["generate_trace"],
            "workload.trace_events": counts["trace_events"],
            "network.substrate_s": s["get_substrate"],
            "network.topology_s": s["build_topology"],
            "network.overlay_s": s["Overlay"],
            "simulation.build_algorithm_s": s["build_algorithm"],
            "engine.events": events,
            "engine.self_s": s["engine.run"],
            "engine.ns_per_event": _per(s["engine.run"] * 1e9, events),
            "delivery.deliver_s": self.total_s["deliver"],
            "delivery.calls": c["deliver"],
            "delivery.receivers": receivers,
            "delivery.messages": counts["messages"],
            "delivery.ns_per_receiver": _per(self.total_s["deliver"] * 1e9, receivers),
            "kernels.flood_s": sum(s[f"kernels.{k}"] for k in _FLOOD_KERNELS),
            "kernels.walk_s": sum(s[f"kernels.{k}"] for k in _WALK_KERNELS),
            "kernels.gather_s": sum(s[f"kernels.{k}"] for k in _GATHER_KERNELS),
            "kernels.calls": kernel_calls,
            "protocol.merge_s": merge_s,
            # Every delivered receiver is an input of the receiver merge.
            "protocol.merge_ns_per_receiver": _per(merge_s * 1e9, receivers),
            "protocol.repairs": counts["repairs"],
            "protocol.bootstrap_s": s["event.bootstrap"],
            "protocol.join_s": s["on_join"],
            "search.queries": len(search_us),
            "search.query_s": self.total_s["search"],
            "search.self_s": s["search"],
            "search.query_us_p50": quantile_nearest_rank(search_us, 0.50) if search_us else 0.0,
            "search.query_us_p99": quantile_nearest_rank(search_us, 0.99) if search_us else 0.0,
        }
        out.update(self._state_metrics())
        out["trace.wall_s"] = wall_s
        for layer in LAYERS:
            out[f"share.{layer}"] = self.layer_self_s[layer] / wall_s
        total = sum(out[f"share.{layer}"] for layer in LAYERS)
        if abs(total - 1.0) > 1e-6:
            raise RuntimeError(f"layer self times cover {total:.9f} of the traced wall")
        return out

    def _state_metrics(self) -> Dict[str, float]:
        """Ads-cache state after the replay (zero for non-ASAP algorithms)."""
        arena = getattr(self.algorithm, "arena", None)
        if arena is None:
            return {
                "arena.rows_live": 0,
                "arena.pool_mb": 0.0,
                "arena.free_list_depth": 0,
                "repository.cache_entries": 0,
            }
        stats = arena.stats()
        return {
            "arena.rows_live": stats["rows_live"],
            "arena.pool_mb": stats["pool_bytes"] / 2**20,
            "arena.free_list_depth": stats["free_list_depth"],
            "repository.cache_entries": diagnose(self.algorithm).total_entries,
        }


def _per(total: float, n: int) -> float:
    return total / n if n else 0.0

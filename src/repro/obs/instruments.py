"""Which instruments a run attaches, and how their results fold across runs.

The paper's evaluation is a grid of independent trace replays, and every
observability layer only watches those replays.  So one value says which
layers a replay attaches -- :class:`Instruments`, a frozen, hashable,
picklable spec that travels unchanged from a CLI through
:class:`~repro.experiments.figures.ExperimentScale`,
:func:`~repro.simulation.replication.run_replications` and
:func:`~repro.experiments.parallel.run_cells` into worker processes and
:func:`~repro.simulation.runner.run_experiment`, which builds each enabled
instrument for the run and freezes its result onto the
:class:`~repro.simulation.results.RunResult`.

Every per-run result that is meant to be combined (``RunProfile``,
``TelemetrySummary``, ``ProbeSummary``) has a ``merge(other)`` method that
returns a new value; :func:`merge_all` is the one rule that folds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, TypeVar

__all__ = ["Instruments", "merge_all"]

T = TypeVar("T")


@dataclass(frozen=True)
class Instruments:
    """The opt-in observability layers of one run (all off by default).

    * ``profile`` -- per-subsystem/per-phase dispatch accounting
      (``RunResult.profile``, a :class:`~repro.obs.profile.RunProfile`);
    * ``diagnostics`` -- ASAP cache diagnostics after the replay
      (``RunResult.cache_diagnostics``; ASAP runs only);
    * ``audit`` -- trace the run in memory and run the invariant auditor
      (``RunResult.audit`` and ``RunResult.fingerprint``);
    * ``telemetry`` -- streaming windowed load, sketches and hotspots
      (``RunResult.telemetry``);
    * ``probes`` -- periodic protocol-state snapshots at
      ``RunConfig.probe_interval_s`` (``RunResult.probes``);
    * ``trace_dir`` -- stream the run's trace to its own JSONL file in
      this directory (``repro.simulation.runner.cell_trace_name``).
    """

    profile: bool = False
    diagnostics: bool = False
    audit: bool = False
    telemetry: bool = False
    probes: bool = False
    trace_dir: Optional[str] = None


def merge_all(values: Iterable[Optional[T]]) -> Optional[T]:
    """Fold ``values`` left to right with ``merge``, skipping ``None``.

    Input order is the determinism contract: cells folded in config order
    give bit-identical output however workers scheduled them.  No values
    (or only ``None``) yield ``None``; a single value is returned as is.
    """
    merged = None
    for value in values:
        if value is not None:
            merged = value if merged is None else merged.merge(value)
    return merged

"""The Instruments spec and the one input-order merge rule.

* ``Instruments`` is frozen, hashable and picklable, so it can key the
  shared experiment grids and travel into worker processes unchanged;
* ``merge_all`` folds per-cell results left to right, skipping ``None``;
* ``RunProfile.merge`` has ``RunProfile()`` as its identity and is
  associative, like the telemetry and probe summary merges;
* every instrument on at once gives the same results serially and under
  ``--jobs 2``.
"""

import pickle
from dataclasses import replace

import pytest

from repro.experiments.figures import ExperimentGrid, ExperimentScale
from repro.experiments.parallel import run_cells
from repro.obs import Instruments, merge_all
from repro.obs.profile import PhaseStats, RunProfile
from repro.simulation import run_experiment, scaled_config
from repro.simulation.runner import cell_trace_name


def _tiny(algorithm="asap_rw", seed=0):
    config = scaled_config(
        algorithm,
        "random",
        n_peers=60,
        n_queries=30,
        seed=seed,
        use_physical_network=False,
    )
    return replace(config, probe_interval_s=2.0)


# ------------------------------------------------------------------ spec
class TestInstrumentsSpec:
    def test_defaults_are_all_off(self):
        spec = Instruments()
        assert not any(
            (spec.profile, spec.diagnostics, spec.audit, spec.telemetry, spec.probes)
        )
        assert spec.trace_dir is None

    def test_frozen_hashable_and_picklable(self):
        spec = Instruments(profile=True, probes=True, trace_dir="traces")
        with pytest.raises(AttributeError):
            spec.profile = False
        same = Instruments(profile=True, probes=True, trace_dir="traces")
        assert hash(spec) == hash(same)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_scale_with_instruments_keys_the_shared_grid(self):
        on = ExperimentScale(n_peers=50, instruments=Instruments(audit=True))
        off = ExperimentScale(n_peers=50)
        assert ExperimentGrid.shared(on) is ExperimentGrid.shared(
            ExperimentScale(n_peers=50, instruments=Instruments(audit=True))
        )
        assert ExperimentGrid.shared(on) is not ExperimentGrid.shared(off)


# ------------------------------------------------------------- merge rule
class _Sum:
    def __init__(self, *items):
        self.items = list(items)

    def merge(self, other):
        return _Sum(*self.items, *other.items)


class TestMergeAll:
    def test_folds_in_input_order(self):
        merged = merge_all(iter([_Sum(1), None, _Sum(2, 3), _Sum(4)]))
        assert merged.items == [1, 2, 3, 4]


def _profile(k: int) -> RunProfile:
    """A profile whose floats are dyadic, so sums are exact in any order."""
    return RunProfile(
        subsystems={
            "trace": PhaseStats(events=3 * k, wall_s=0.25 * k),
            f"sub{k % 2}": PhaseStats(events=k, wall_s=0.5),
        },
        phases={"measurement": PhaseStats(events=4 * k, wall_s=0.25 * k + 0.5)},
        events=4 * k,
        wall_s=0.25 * k + 0.5,
        engine_events=5 * k,
        engine_pending_live=k % 3,
        sim_end_s=10.0 * (k % 4),
        peak_rss_mb=100.0 + k,
        arena={"rows_allocated": 8 * (k % 3), "rows_live": k} if k % 2 else {},
    )


class TestRunProfileMerge:
    @pytest.mark.parametrize("k", range(4))
    def test_empty_profile_is_identity(self, k):
        p = _profile(k)
        assert RunProfile().merge(p).to_dict() == p.to_dict()
        assert p.merge(RunProfile()).to_dict() == p.to_dict()

    @pytest.mark.parametrize("ks", [(1, 2, 3), (3, 1, 5), (2, 4, 6), (5, 3, 1)])
    def test_merge_is_associative(self, ks):
        a, b, c = (_profile(k) for k in ks)
        assert a.merge(b).merge(c).to_dict() == a.merge(b.merge(c)).to_dict()

    def test_sums_counts_and_takes_maxima(self):
        a, b = _profile(1), _profile(2)
        merged = a.merge(b)
        assert merged.events == a.events + b.events
        assert merged.wall_s == a.wall_s + b.wall_s
        assert merged.engine_events == a.engine_events + b.engine_events
        assert merged.subsystems["trace"].events == 9
        assert set(merged.subsystems) == {"trace", "sub0", "sub1"}
        assert merged.sim_end_s == 20.0
        assert merged.peak_rss_mb == 102.0

    def test_arena_keeps_the_largest_snapshot_later_on_ties(self):
        a, b, c = _profile(1), _profile(5), _profile(7)
        assert a.merge(b).arena == b.arena  # 8 vs 16 rows allocated
        assert b.merge(a).arena == b.arena
        assert a.merge(c).arena == c.arena  # tie at 8: the later one
        assert a.merge(_profile(2)).arena == a.arena  # empty never wins

    def test_merge_leaves_inputs_untouched(self):
        a, b = _profile(1), _profile(2)
        before = (a.to_dict(), b.to_dict())
        merge_all([a, b]).subsystems["trace"].events += 100
        assert (a.to_dict(), b.to_dict()) == before


# ------------------------------------------------------------ end to end
ALL_ON = Instruments(profile=True, audit=True, telemetry=True, probes=True)


class TestAllInstrumentsSerialVsParallel:
    @pytest.fixture(scope="class")
    def runs(self):
        configs = [_tiny("asap_rw", 0), _tiny("flooding", 1), _tiny("asap_rw", 2)]
        serial = run_cells(configs, jobs=1, instruments=ALL_ON)
        parallel = run_cells(configs, jobs=2, instruments=ALL_ON)
        return serial, parallel

    def test_every_instrument_attached(self, runs):
        for result in runs[0] + runs[1]:
            assert result.profile is not None
            assert result.audit is not None and result.audit.ok
            assert result.telemetry is not None
            assert result.probes is not None and result.probes.ticks

    def test_audit_fingerprints_equal(self, runs):
        serial, parallel = runs
        assert [r.fingerprint for r in serial] == [r.fingerprint for r in parallel]

    def test_telemetry_and_probe_fingerprints_equal(self, runs):
        serial, parallel = runs
        for s, p in zip(serial, parallel):
            assert s.telemetry.fingerprint() == p.telemetry.fingerprint()
            assert s.probes.fingerprint() == p.probes.fingerprint()
        for field in ("telemetry", "probes"):
            merged_s = merge_all(getattr(r, field) for r in serial)
            merged_p = merge_all(getattr(r, field) for r in parallel)
            assert merged_s.fingerprint() == merged_p.fingerprint()

    def test_merged_profile_event_counts_equal(self, runs):
        serial, parallel = (merge_all(r.profile for r in side) for side in runs)
        assert serial.events == parallel.events > 0
        assert serial.engine_events == parallel.engine_events
        assert {k: v.events for k, v in serial.subsystems.items()} == {
            k: v.events for k, v in parallel.subsystems.items()
        }
        assert {k: v.events for k, v in serial.phases.items()} == {
            k: v.events for k, v in parallel.phases.items()
        }


def test_direct_run_telemetry_matches_run_cells():
    # A grid read serially calls run_experiment directly; a parallel one
    # goes through run_cells.  Both label the run the same way, so a
    # sweep's merged telemetry does not depend on --jobs.
    config = _tiny("asap_rw", 1)
    direct = run_experiment(config, Instruments(telemetry=True)).telemetry
    (cell,) = run_cells([config], jobs=1, instruments=Instruments(telemetry=True))
    assert direct.labels == ["asap_rw/random/seed1"]
    assert direct.to_json() == cell.telemetry.to_json()


def test_trace_dir_streams_one_file_per_run(tmp_path):
    config = _tiny("flooding", 3)
    trace_dir = tmp_path / "traces"
    result = run_experiment(config, Instruments(trace_dir=str(trace_dir)))
    path = trace_dir / cell_trace_name(config)
    assert path.stat().st_size > 0
    # The trace switches profiling on, exactly as an explicit tracer does.
    assert result.profile is not None
    assert result.audit is None

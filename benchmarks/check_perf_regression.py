"""Perf-regression gates for the telemetry and engine benchmarks.

Compares fresh benchmark outputs against the committed trajectories and
fails (exit 1) on regression.  Every gate is expressed in *relative*
terms (two arms of the same process on the same machine), so it is
meaningful across machines of different speeds -- absolute seconds are
reported but never gated on.

**Telemetry gate** (always runs) -- fresh
``benchmarks/results/telemetry_overhead.json`` vs ``BENCH_TELEMETRY.json``:

1. **absolute bar** -- the fresh overhead fraction must stay under
   ``--max-overhead`` (default 0.05, the acceptance budget);
2. **trend bar** -- the fresh overhead fraction must not exceed the
   committed baseline (last trajectory entry) by more than
   ``--tolerance`` (default 0.02 absolute, i.e. two percentage points of
   headroom for machine noise).

**Scale-up gate** (runs when ``--scaleup-result`` is given) -- fresh
``benchmarks/results/scaleup.json`` (written by ``bench_scaleup.py``)
vs ``BENCH_SCALEUP.json``:

1. **absolute bar** -- every cell's peak RSS must stay under
   ``--max-scaleup-rss-gb`` (default 8.0, the struct-of-arrays
   acceptance budget for the 100k-peer cells; CI's reduced-scale smoke
   keeps the same bar -- memory only shrinks with cell size);
2. **trend bar** -- each fresh cell whose (algorithm, n_peers, cache)
   triple matches a committed baseline cell must not exceed that cell's
   peak RSS by more than ``--scaleup-tolerance`` (default 0.25
   multiplicative headroom).

**Probe gate** (runs when ``--probes-result`` is given) -- fresh
``benchmarks/results/probe_overhead.json`` (written by
``bench_probe_overhead.py``) vs ``BENCH_PROBES.json``:

1. **absolute bar** -- the fresh probes-enabled overhead fraction must
   stay under ``--max-probe-overhead`` (default 0.10, the acceptance
   budget for state snapshots at the default 60 s cadence);
2. **trend bar** -- the fresh overhead fraction must not exceed the
   committed baseline by more than ``--probes-tolerance`` (default 0.05
   absolute).

**Engine gate** (runs when ``--engine-result`` is given) -- fresh
``benchmarks/results/engine_dispatch.json`` (written by
``bench_engine_dispatch.py``) vs ``BENCH_ENGINE.json``:

1. **absolute bars** -- the flooding / ASAP replay speedups
   (reference arm over batched arm) must clear ``--min-flood-speedup``
   and ``--min-asap-speedup`` (the acceptance bars are 2.0 and 1.5 at
   full scale; CI's reduced-scale smoke relaxes them);
2. **trend bar** -- neither speedup may fall below the committed
   baseline by more than the multiplicative ``--engine-tolerance``
   (default 0.25, i.e. a fresh speedup under 75% of the recorded one
   fails).

Every gate that runs needs its committed baseline: a missing baseline
file, or one with no entries, fails the gate instead of skipping its
trend bar.

Usage (as CI runs it)::

    python benchmarks/check_perf_regression.py \
        --result benchmarks/results/telemetry_overhead.json \
        --baseline BENCH_TELEMETRY.json \
        --engine-result benchmarks/results/engine_dispatch.json \
        --engine-baseline BENCH_ENGINE.json \
        --min-flood-speedup 1.2 --min-asap-speedup 1.1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _load_result(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("schema") != 1:
        raise SystemExit(f"{path}: unsupported schema {doc.get('schema')!r}")
    return doc["data"]


def _load_baseline(path: Path) -> dict | None:
    """The last trajectory entry, or None for a missing or empty file."""
    if not path.exists() or not path.read_text().strip():
        return None
    doc = json.loads(path.read_text())
    entries = doc.get("entries", [])
    return entries[-1] if entries else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--result",
        type=Path,
        default=Path("benchmarks/results/telemetry_overhead.json"),
        help="fresh benchmark output to check",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=Path("BENCH_TELEMETRY.json"),
        help="committed trajectory file (last entry is the baseline)",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="absolute bar on the overhead fraction (default 0.05)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.02,
        help="allowed absolute increase over the baseline overhead "
        "fraction (default 0.02)",
    )
    parser.add_argument(
        "--probes-result",
        type=Path,
        default=None,
        help="fresh probe-overhead benchmark output; enables the probe gate",
    )
    parser.add_argument(
        "--probes-baseline",
        type=Path,
        default=Path("BENCH_PROBES.json"),
        help="committed probe trajectory file (last entry is the baseline)",
    )
    parser.add_argument(
        "--max-probe-overhead",
        type=float,
        default=0.10,
        help="absolute bar on the probes-enabled overhead fraction "
        "(default 0.10)",
    )
    parser.add_argument(
        "--probes-tolerance",
        type=float,
        default=0.05,
        help="allowed absolute increase over the baseline probe overhead "
        "fraction (default 0.05)",
    )
    parser.add_argument(
        "--engine-result",
        type=Path,
        default=None,
        help="fresh engine-dispatch benchmark output; enables the engine gate",
    )
    parser.add_argument(
        "--engine-baseline",
        type=Path,
        default=Path("BENCH_ENGINE.json"),
        help="committed engine trajectory file (last entry is the baseline)",
    )
    parser.add_argument(
        "--min-flood-speedup",
        type=float,
        default=2.0,
        help="absolute bar on the flooding-cell replay speedup (default 2.0)",
    )
    parser.add_argument(
        "--min-asap-speedup",
        type=float,
        default=1.5,
        help="absolute bar on the ASAP-cell replay speedup (default 1.5)",
    )
    parser.add_argument(
        "--engine-tolerance",
        type=float,
        default=0.25,
        help="allowed multiplicative drop below the baseline speedups "
        "(default 0.25, i.e. fresh >= 0.75 * baseline)",
    )
    parser.add_argument(
        "--scaleup-result",
        type=Path,
        default=None,
        help="fresh scale-up benchmark output; enables the memory gate",
    )
    parser.add_argument(
        "--scaleup-baseline",
        type=Path,
        default=Path("BENCH_SCALEUP.json"),
        help="committed scale-up trajectory file (last entry is baseline)",
    )
    parser.add_argument(
        "--max-scaleup-rss-gb",
        type=float,
        default=8.0,
        help="absolute bar on any cell's peak RSS in GB (default 8.0)",
    )
    parser.add_argument(
        "--scaleup-tolerance",
        type=float,
        default=0.25,
        help="allowed multiplicative peak-RSS growth over a matching "
        "baseline cell (default 0.25, i.e. fresh <= 1.25 * baseline)",
    )
    args = parser.parse_args(argv)

    failures = []
    other_gates = (
        args.engine_result is not None
        or args.scaleup_result is not None
        or args.probes_result is not None
    )
    if other_gates and not args.result.exists():
        # A job running only the engine/scale-up gates (e.g. the scale-up
        # CI smoke) has no telemetry result to check.
        print(f"{args.result} absent; telemetry gate skipped")
    else:
        fresh = _load_result(args.result)
        overhead = fresh["overhead_frac"]
        print(
            f"fresh run: {fresh['n_peers']} peers, {fresh['n_queries']} queries, "
            f"disabled {fresh['disabled_s']:.3f}s, enabled {fresh['enabled_s']:.3f}s, "
            f"overhead {overhead:+.2%}"
        )

        if overhead > args.max_overhead:
            failures.append(
                f"overhead {overhead:.2%} exceeds the absolute bar "
                f"{args.max_overhead:.0%}"
            )

        baseline = _load_baseline(args.baseline)
        if baseline is None:
            failures.append(f"no baseline entry in {args.baseline}")
        else:
            base_overhead = baseline["overhead_frac"]
            print(
                f"baseline ({baseline.get('recorded_utc', 'undated')}): "
                f"{baseline['n_peers']} peers, {baseline['n_queries']} queries, "
                f"overhead {base_overhead:+.2%}"
            )
            if overhead > base_overhead + args.tolerance:
                failures.append(
                    f"overhead {overhead:.2%} regressed past baseline "
                    f"{base_overhead:.2%} + tolerance {args.tolerance:.0%}"
                )

    if args.probes_result is not None:
        probes = _load_result(args.probes_result)
        probe_overhead = probes["overhead_frac"]
        print(
            f"probes run: {probes['n_peers']} peers, "
            f"{probes['n_queries']} queries, {probes['ticks']} ticks, "
            f"disabled {probes['disabled_s']:.3f}s, "
            f"enabled {probes['enabled_s']:.3f}s, "
            f"overhead {probe_overhead:+.2%}"
        )
        if probe_overhead > args.max_probe_overhead:
            failures.append(
                f"probe overhead {probe_overhead:.2%} exceeds the absolute "
                f"bar {args.max_probe_overhead:.0%}"
            )
        probes_base = _load_baseline(args.probes_baseline)
        if probes_base is None:
            failures.append(f"no baseline entry in {args.probes_baseline}")
        else:
            base_overhead = probes_base["overhead_frac"]
            print(
                f"probes baseline ({probes_base.get('recorded_utc', 'undated')}): "
                f"{probes_base['n_peers']} peers, "
                f"{probes_base['n_queries']} queries, "
                f"overhead {base_overhead:+.2%}"
            )
            if probe_overhead > base_overhead + args.probes_tolerance:
                failures.append(
                    f"probe overhead {probe_overhead:.2%} regressed past "
                    f"baseline {base_overhead:.2%} + tolerance "
                    f"{args.probes_tolerance:.0%}"
                )

    if args.engine_result is not None:
        engine = _load_result(args.engine_result)
        for label, speedup, bar in (
            ("flooding", engine["flood_speedup"], args.min_flood_speedup),
            ("ASAP", engine["asap_speedup"], args.min_asap_speedup),
        ):
            print(f"engine {label} cell: replay speedup {speedup:.2f}x")
            if speedup < bar:
                failures.append(
                    f"engine {label} speedup {speedup:.2f}x below the "
                    f"absolute bar {bar:.2f}x"
                )
        # Both cells must carry the audited run fingerprint: a null field
        # means the reference-vs-batched equivalence pair never ran for
        # that cell, leaving its arm unpinned.
        for label, cell in (("flooding", engine["flood"]), ("ASAP", engine["asap"])):
            fp = cell.get("fingerprint")
            if not fp:
                failures.append(
                    f"engine {label} cell recorded no run fingerprint "
                    "(audited equivalence pair did not run)"
                )
            else:
                print(f"engine {label} cell fingerprint {fp[:16]}...")
        engine_base = _load_baseline(args.engine_baseline)
        if engine_base is None:
            failures.append(f"no baseline entry in {args.engine_baseline}")
        elif (
            engine["flood"]["n_peers"] != engine_base["flood"]["n_peers"]
            or engine["asap"]["n_peers"] != engine_base["asap"]["n_peers"]
        ):
            # Speedups shrink with cell size, so a reduced-scale smoke run
            # is only held to the absolute bars, never to the full-scale
            # committed baseline.
            print(
                "engine trend check skipped: fresh run scale differs from "
                "the committed baseline's"
            )
        else:
            print(
                f"engine baseline ({engine_base.get('recorded_utc', 'undated')}): "
                f"flooding {engine_base['flood_speedup']:.2f}x, "
                f"ASAP {engine_base['asap_speedup']:.2f}x"
            )
            floor = 1.0 - args.engine_tolerance
            for label, speedup, base in (
                ("flooding", engine["flood_speedup"], engine_base["flood_speedup"]),
                ("ASAP", engine["asap_speedup"], engine_base["asap_speedup"]),
            ):
                if speedup < base * floor:
                    failures.append(
                        f"engine {label} speedup {speedup:.2f}x regressed "
                        f"below {floor:.0%} of baseline {base:.2f}x"
                    )

    if args.scaleup_result is not None:
        scaleup = _load_result(args.scaleup_result)
        rss_bar_mb = args.max_scaleup_rss_gb * 1024.0
        base_entry = _load_baseline(args.scaleup_baseline)
        base_cells = {}
        if base_entry is not None:
            base_cells = {
                (
                    c["algorithm"], c["n_peers"], c.get("cache_capacity")
                ): c["peak_rss_mb"]
                for c in base_entry.get("cells", [])
            }
        for cell in scaleup["cells"]:
            key = (
                cell["algorithm"], cell["n_peers"], cell.get("cache_capacity")
            )
            rss = cell["peak_rss_mb"]
            label = f"{cell['algorithm']}/{cell['n_peers']}"
            print(
                f"scaleup {label}: peak RSS {rss:.0f} MB, "
                f"wall {cell['wall_s']:.1f}s"
            )
            if rss > rss_bar_mb:
                failures.append(
                    f"scaleup {label} peak RSS {rss:.0f} MB exceeds the "
                    f"{args.max_scaleup_rss_gb:.1f} GB bar"
                )
            base_rss = base_cells.get(key)
            if base_rss is not None and rss > base_rss * (
                1.0 + args.scaleup_tolerance
            ):
                failures.append(
                    f"scaleup {label} peak RSS {rss:.0f} MB regressed past "
                    f"baseline {base_rss:.0f} MB + "
                    f"{args.scaleup_tolerance:.0%}"
                )
        if base_entry is None:
            failures.append(f"no baseline entry in {args.scaleup_baseline}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    print("OK: all perf gates within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

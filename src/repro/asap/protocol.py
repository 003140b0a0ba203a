"""The ASAP search algorithm and node lifecycle (paper Section III-C).

Search (Table I, transcribed):

1. look up the local ads repository for ads whose content filter matches
   *all* query terms;
2. send a content confirmation to each matching ad's source (nearest-first,
   capped); a confirmation succeeds when the source is online and actually
   holds one document containing every term -- Bloom false positives,
   cross-document term splits and departed sources all fail here;
3. if no response was obtained (or more responses are needed), send an
   ads request to all neighbours within ``h`` hops (default 1); neighbours
   reply with cached ads that overlap the requester's interests and that
   the requester does not already hold (the request carries a digest of
   cached sources -- see DESIGN.md section 3 on this documented refinement);
   merge, re-look-up, confirm again;
4. succeed with the earliest confirmed positive; fail otherwise.

Lifecycle:

* **warm-up** -- every sharer disseminates its full ad at a jittered time
  inside the warm-up window, then starts a jittered periodic refresh timer;
* **content change** -- the source's counting filter updates; if the bitmap
  changed, a patch ad is disseminated; cachers the delivery missed are
  marked *behind* (their entries are evaluated at their recorded version);
* **join** -- the node disseminates a full ad (sharers) and bootstraps its
  cache with an ads request to its neighbours;
* **leave** -- nothing is sent; the node's cached ads survive for a rejoin
  and its own ads decay in others' caches via failed confirmations.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.asap.ads import Ad, AdType
from repro.asap.arena import AdsArena, ArenaRepository, CacherIndex, pair_key
from repro.asap.delivery import AdForwarder, make_forwarder
from repro.asap.repository import AdsRepository, CacheEntry
from repro.asap.store import SourceFilterStore
from repro.workload.interests import InterestState
from repro.search.base import MessageSizes, SearchAlgorithm, SearchOutcome
from repro.sim import kernels
from repro.sim.engine import PeriodicTimer, SimulationEngine
from repro.sim.metrics import ASAP_LOAD_CATEGORIES, TrafficCategory
from repro.bloom.compressed import compressed_filter_size

__all__ = ["AsapParams", "AsapSearch"]


@dataclass(frozen=True)
class AsapParams:
    """ASAP protocol knobs.  Defaults are the paper's (Section IV-A)."""

    forwarder: str = "rw"  # fld | rw | gsa
    ad_ttl: int = 6  # ad flooding TTL (ASAP(FLD))
    ad_walkers: int = 5  # walkers per ad delivery (RW/GSA)
    budget_unit: int = 3000  # M0: per-topic delivery budget
    ads_request_hops: int = 1  # h: ads-request radius
    refresh_period_s: float = 600.0  # periodic refresh-ad interval
    # Refresh ads only need to re-reach nodes that already cache the source
    # (any interested node acquired the ad during dissemination/bootstrap),
    # so they walk with a small fraction of the full delivery budget.
    refresh_budget_fraction: float = 0.1
    max_confirmations: int = 8  # nearest ads confirmed per round
    cache_capacity: Optional[int] = None  # ads-cache bound (None = unbounded)
    ads_request_on_join: bool = True
    bootstrap_ads_request: bool = True  # warm-up ends with an ads request
    # Fraction of join events treated as genuinely new peers (never seen
    # before): they must advertise with a full ad, while ordinary rejoins
    # only re-announce liveness with a refresh ad.  This is the steady
    # trickle of full-ad traffic in the warmed-up system (Figure 7).
    fresh_join_fraction: float = 0.03
    more_results_threshold: int = 1  # fallback when fewer results confirmed
    digest_bytes_per_entry: float = 0.25  # cache digest in the ads request

    def __post_init__(self) -> None:
        if self.forwarder not in ("fld", "rw", "gsa"):
            raise ValueError(f"unknown forwarder {self.forwarder!r}")
        if self.ads_request_hops < 0:
            raise ValueError("ads_request_hops must be >= 0")
        if self.refresh_period_s <= 0:
            raise ValueError("refresh_period_s must be positive")
        if not 0.0 <= self.refresh_budget_fraction <= 1.0:
            raise ValueError("refresh_budget_fraction must be in [0, 1]")
        if self.max_confirmations < 1:
            raise ValueError("max_confirmations must be >= 1")
        if self.more_results_threshold < 1:
            raise ValueError("more_results_threshold must be >= 1")
        if not 0.0 <= self.fresh_join_fraction <= 1.0:
            raise ValueError("fresh_join_fraction must be in [0, 1]")


_SCHEME_NAMES = {"fld": "ASAP(FLD)", "rw": "ASAP(RW)", "gsa": "ASAP(GSA)"}


class AsapSearch(SearchAlgorithm):
    """The advertisement-based search algorithm."""

    load_categories = ASAP_LOAD_CATEGORIES

    def __init__(
        self,
        overlay,
        content,
        ledger,
        sizes: MessageSizes | None = None,
        rng: Optional[np.random.Generator] = None,
        interests: Optional[List[Set[int]]] = None,
        params: AsapParams | None = None,
    ) -> None:
        super().__init__(overlay, content, ledger, sizes, rng)
        if interests is None:
            raise ValueError("ASAP requires per-node interests")
        if len(interests) != overlay.n:
            raise ValueError("interests length must equal overlay size")
        self.params = params or AsapParams()
        self.name = _SCHEME_NAMES[self.params.forwarder]
        self.interests = interests
        self.store = SourceFilterStore(overlay.n, content)
        # Storage backend: pooled struct-of-arrays by default; the object-
        # backed AdsRepository when constructed under
        # ``kernels.reference_mode()`` -- the differential oracle the SoA
        # path is fingerprint-checked against.  Both implement the same
        # contract, so every path below is backend-agnostic.
        if kernels.REFERENCE_ONLY:
            self.arena: Optional[AdsArena] = None
            self.repos: List[AdsRepository] = [
                AdsRepository(
                    owner=i,
                    interests=interests[i],
                    store=self.store,
                    capacity=self.params.cache_capacity,
                )
                for i in range(overlay.n)
            ]
            self.cachers: Dict[int, Set[int]] = defaultdict(set)
        else:
            self.arena = AdsArena(initial_rows=4 * max(overlay.n, 16))
            self.repos = [
                ArenaRepository(
                    owner=i,
                    interests=interests[i],
                    store=self.store,
                    arena=self.arena,
                    capacity=self.params.cache_capacity,
                )
                for i in range(overlay.n)
            ]
            self.cachers = CacherIndex(overlay.n)
        self.forwarder: AdForwarder = make_forwarder(
            self.params.forwarder,
            overlay,
            ledger,
            self.sizes,
            self.rng,
            ttl=self.params.ad_ttl,
            walkers=self.params.ad_walkers,
            budget_unit=self.params.budget_unit,
        )
        self._engine: Optional[SimulationEngine] = None
        self._timers: Dict[int, PeriodicTimer] = {}
        self._advertised: Set[int] = set()  # sources that ever sent a full ad
        # Interest-mask caches for the batched dissemination path.  Node
        # interests are fixed at construction, so the (n, n_classes) CSR-
        # native interest matrix -- and the OR of its columns over an ad's
        # topic set -- is built once and reused for every delivery of that
        # topic set.
        self._interest_state = InterestState(interests)
        self._topic_members: Dict[int, np.ndarray] = {}
        self._interest_masks: Dict[frozenset, np.ndarray] = {}
        # compressed_filter_size is a pure function of (set bits, m) and m
        # is fixed per run; the ads-reply loop hits a handful of distinct
        # set-bit counts thousands of times.
        self._filter_size_memo: Dict[int, float] = {}
        # Ads-reply size per (source, version): the filter's set-bit count
        # only changes when the source's version bumps, so the pair keys
        # the full n_set_bits -> compressed-size derivation.
        self._reply_size_memo: Dict[Tuple[int, int], float] = {}

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to the protocol and its ad forwarder."""
        super().set_tracer(tracer)
        self.forwarder.tracer = tracer

    def set_telemetry(self, telemetry) -> None:
        """Attach telemetry to the protocol and its ad forwarder."""
        super().set_telemetry(telemetry)
        self.forwarder.telemetry = telemetry

    # ------------------------------------------------------------- delivery
    def _topic_mask(self, topic: int) -> np.ndarray:
        mask = self._topic_members.get(topic)
        if mask is None:
            mask = self._interest_state.members(topic)
            self._topic_members[topic] = mask
        return mask

    def _interest_mask(self, topics: frozenset) -> np.ndarray:
        """Boolean per-node mask of ``interested_in(topics)`` answers."""
        mask = self._interest_masks.get(topics)
        if mask is None:
            mask = np.zeros(len(self.interests), dtype=bool)
            for topic in topics:
                mask |= self._topic_mask(topic)
            self._interest_masks[topics] = mask
        return mask

    def _disseminate(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> None:
        """Deliver an ad and update every receiver's cache.

        Receivers that detect a version gap (a patch or refresh whose
        version outruns their cached copy) repair by pulling a fresh full ad
        from the source -- the unicast anti-entropy that keeps caches exact
        and contributes the steady trickle of full-ad bytes in Figure 7's
        breakdown.

        The receiver merge runs array-at-a-time over the pooled repository
        state: the store version, source liveness and per-node interest
        answers are identical for every receiver of one delivery, so the
        version-merge branch of :meth:`AdsRepository.accept` runs once over
        the whole receiver array -- one pair-table lookup, bulk row
        allocation for new entries, scatter writes of the entry columns.
        Per receiver remain only capped-cache eviction (receivers pushed
        over capacity) and repairs, which run in ``report.visited`` order
        like the reference's, so ledger sums accumulate identically.
        ``_disseminate_reference`` keeps the one-``accept``-per-receiver loop
        as the differential oracle (:func:`repro.sim.kernels.reference_mode`
        routes here to it).
        """
        if kernels.REFERENCE_ONLY or self.arena is None:
            # Reference mode, or an object-backed instance invoked outside
            # it: the per-receiver ``accept`` loop is the implementation
            # for the object backend.
            self._disseminate_reference(ad, now, budget=budget)
            return
        report = self.forwarder.deliver(ad, now, budget=budget)
        src = ad.source
        arena = self.arena
        index = arena.index
        cachers_src = self.cachers[src]
        code = arena.intern_topics(ad.topics)
        varr = report.visited_arr
        if varr is None:
            varr = np.fromiter(report.visited, np.int64, len(report.visited))
        # Invariant across the merge: repairs read the store but nothing
        # below writes it, and churn never interleaves mid-event.
        behind_after = ad.version < self.store.version(src)
        # Every node holding an entry for ``src`` is a member of
        # ``cachers[src]`` (every store pairs with an add, every drop with
        # a discard), so one bitset gather finds the holders the ad reached.
        holding = cachers_src.mask()
        if ad.ad_type is AdType.FULL:
            # Interested receivers store the ad; holders merge it whatever
            # their interests (a patch may have moved the source's topics).
            # Walk deliveries can revisit the source, which never caches
            # itself.
            recv = kernels.interested_receivers(
                varr, self._interest_mask(ad.topics) | holding, exclude=src
            ).astype(np.int64)
            rows, miss = index.lookup_or_insert(
                pair_key(recv, src), arena.alloc_many
            )
            # Storing a fresh entry and overwriting an existing one's fields
            # in place are value-identical.
            arena.version[rows] = ad.version
            arena.topics_code[rows] = code
            arena.cached_at[rows] = now
            arena.behind[rows] = behind_after
            cachers_src.update(recv)
            new_holders = recv[miss]
            arena.mirrors.append_many(new_holders, src, rows[miss])
            capacity = self.params.cache_capacity
            if capacity is not None:
                # Only a new entry can push a cache over its capacity, and
                # by exactly one: one eviction per such receiver.
                over = new_holders[arena.mirrors.size[new_holders] > capacity]
                victims = arena.evict_oldest(over, capacity)
                for node, ev in zip(over.tolist(), victims.tolist()):
                    self.cachers[ev].discard(node)
            lagging = recv if behind_after else recv[:0]
        else:
            # Only holders react to patches and refreshes.
            holders = varr[holding[varr]].astype(np.int64)
            rows = index.lookup(pair_key(holders, src))
            held = rows >= 0
            holders, rows = holders[held], rows[held]
            version = arena.version[rows]
            if ad.ad_type is AdType.PATCH:
                succ = rows[version + 1 == ad.version]
                gap = rows[version + 1 < ad.version]
                arena.version[succ] = ad.version
                arena.topics_code[succ] = code
                arena.cached_at[succ] = now
                arena.behind[succ] = behind_after
                # A gap means missed patches; older patches carry nothing.
                arena.cached_at[gap] = now
                arena.behind[gap] = True
            else:  # REFRESH: renew recency, detect missed patches
                arena.cached_at[rows] = now
                arena.behind[rows[version < ad.version]] = True
            lagging = holders[arena.behind[rows]]
        if lagging.size and self.overlay.is_live(src):
            need = set(lagging.tolist())
            plan = self._repair_plan(src)
            for node in report.visited:
                if node in need:
                    self._repair_entry(node, src, now, plan=plan)
        if ad.ad_type is AdType.PATCH:
            # Cachers the delivery missed now lag the source's filter.
            missed = cachers_src.mask()
            missed[varr] = False
            rows = index.lookup(pair_key(np.flatnonzero(missed), src))
            arena.behind[rows[rows >= 0]] = True

    def _disseminate_reference(
        self, ad: Ad, now: float, budget: Optional[int] = None
    ) -> None:
        """Reference dissemination: one ``repo.accept`` per receiver.

        The pre-batching implementation, retained as the differential
        oracle for :meth:`_disseminate` (bit-identical cache, cachers,
        behind-set and ledger state: the batched merge is ``accept``
        applied to the whole receiver array).
        """
        report = self.forwarder.deliver(ad, now, budget=budget)
        for node in report.visited:
            repo = self.repos[node]
            stored, evicted = repo.accept(ad, now)
            if stored:
                self.cachers[ad.source].add(node)
            for evicted_source in evicted:
                self.cachers[evicted_source].discard(node)
            if ad.source in repo.behind and self.overlay.is_live(ad.source):
                self._repair_entry(node, ad.source, now)
        if ad.ad_type is AdType.PATCH:
            # Cachers the delivery missed now lag the source's filter.
            for node in self.cachers[ad.source] - set(report.visited):
                self.repos[node].mark_behind(ad.source)

    def _repair_plan(self, source: int) -> Dict[str, object]:
        """Hoist the per-source half of :meth:`_repair_entry`.

        Everything here reads only store state, which is constant across
        one delivery's receiver loop -- so one plan serves every repair
        pull that a single dissemination triggers.
        """
        full = self.store.make_full_ad(source)
        if full is None:
            return {"full": None}
        return {
            "full": full,
            "full_reply": full.size_bytes(self.sizes),
            "history": [
                (version, len(changed))
                for version, changed in self.store.patch_history(source)
            ],
            "version": self.store.version(source),
            "topics": self.store.topics(source),
        }

    def _repair_entry(
        self,
        node: int,
        source: int,
        now: float,
        plan: Optional[Dict[str, object]] = None,
    ) -> None:
        """Heal a version gap by pulling the missed patches from the source.

        The reply carries the changed-bit lists of every patch the cache
        missed (2 bytes per bit, as on any patch ad); when the cache is so
        far behind that a fresh full ad is smaller, the source sends that
        instead.  Either way the entry ends at the current version.

        ``plan`` optionally carries the per-source invariants precomputed
        by :meth:`_repair_plan`; omitted, they are derived here exactly as
        the batched caller would have.
        """
        repo = self.repos[node]
        entry = repo.entry(source)
        if entry is None:
            return
        request_bytes = float(self.sizes.ads_request)
        self.ledger.record(
            now, TrafficCategory.ADS_REQUEST, self.sizes.ads_request, messages=1
        )
        lat = self.overlay.direct_latency_ms(node, source)
        if plan is None:
            plan = self._repair_plan(source)
        full = plan["full"]
        if full is None:
            # Source shares nothing any more: the stale entry is worthless.
            repo.remove(source)
            self.cachers[source].discard(node)
            if self.tracer.enabled:
                self.tracer.event(
                    "ad", "repair", now,
                    node=int(node), source=int(source),
                    request_bytes=request_bytes,
                    reply_bytes=0.0, reply_category=None,
                )
            return
        missed_bits = sum(
            n_bits
            for version, n_bits in plan["history"]
            if version > entry.version
        )
        patch_reply = self.sizes.ad_header + 2 * missed_bits
        full_reply = plan["full_reply"]
        if patch_reply <= full_reply:
            category, reply_bytes = TrafficCategory.PATCH_AD, patch_reply
        else:
            category, reply_bytes = TrafficCategory.FULL_AD, full_reply
        self.ledger.record(
            now + 2.0 * lat / 1000.0, category, reply_bytes, messages=1
        )
        if self.telemetry.enabled:
            # The source serves the repair; the request came from ``node``.
            self.telemetry.record_repair(
                now, int(source), request_bytes + float(reply_bytes)
            )
        if self.tracer.enabled:
            # The byte split lets the auditor attribute request and reply
            # to their ledger categories without re-deriving the sizes.
            self.tracer.event(
                "ad", "repair", now,
                node=int(node), source=int(source),
                request_bytes=request_bytes,
                reply_bytes=float(reply_bytes),
                reply_category=category.value,
            )
        stored, evicted = repo.accept_snapshot(
            source, plan["version"], plan["topics"], now
        )
        if stored:
            self.cachers[source].add(node)
        for ev in evicted:
            self.cachers[ev].discard(node)

    def _issue_full_ad(self, source: int, now: float) -> None:
        ad = self.store.make_full_ad(source)
        if ad is not None:
            self._advertised.add(source)
            self._disseminate(ad, now)

    def _issue_refresh_ad(self, source: int, now: float) -> None:
        ad = self.store.make_refresh_ad(source)
        if ad is None:
            return
        budget = None
        if self.params.forwarder in ("rw", "gsa"):
            budget = max(
                1,
                int(
                    self.forwarder.default_budget(ad)
                    * self.params.refresh_budget_fraction
                ),
            )
        self._disseminate(ad, now, budget=budget)

    # --------------------------------------------------------------- warmup
    def warmup(self, engine: SimulationEngine, start: float, duration: float) -> None:
        """Schedule initial full-ad dissemination and refresh timers.

        Full ads go out at jittered times in the first 60% of the window so
        even the slowest walk delivery completes before measurement starts.
        If ``bootstrap_ads_request`` is set, every node then performs the
        "brand new node" ads request (Section III-C) late in the window,
        merging its neighbours' caches -- this is the gossip step that makes
        local lookups hit at query time.
        """
        self._engine = engine
        rng = self.rng
        # One vectorised live gather instead of n is_live probes; the
        # ascending order matches the range loop it replaces, so the rng
        # draw sequence -- and every jittered schedule -- is unchanged.
        for node in self.overlay.live_nodes().tolist():
            if self.store.is_sharer(node):
                at = start + float(rng.random()) * max(0.6 * duration, 1e-9)
                engine.schedule_at(
                    at,
                    lambda n=node: self._issue_full_ad(n, self._engine.now),
                    name=f"full-ad-{node}",
                )
            if self.params.bootstrap_ads_request:
                at = start + (0.7 + 0.25 * float(rng.random())) * max(duration, 1e-9)
                engine.schedule_at(
                    at,
                    lambda n=node: self._ads_request(n, self._engine.now),
                    name=f"bootstrap-{node}",
                )
            self._start_refresh_timer(node, phase_base=start + duration)

    def _start_refresh_timer(self, node: int, phase_base: float) -> None:
        if self._engine is None or node in self._timers:
            return
        period = self.params.refresh_period_s
        # Jittered phase so refreshes spread across the period.
        phase = (
            phase_base
            - self._engine.now
            + float(self.rng.random()) * period
        )
        self._timers[node] = PeriodicTimer(
            self._engine,
            period=period,
            callback=lambda n=node: self._refresh_tick(n),
            phase=max(phase, 1e-9),
            name=f"refresh-{node}",
        )

    def _refresh_tick(self, node: int) -> None:
        if self.overlay.is_live(node):
            self._issue_refresh_ad(node, self._engine.now)

    # ---------------------------------------------------------------- churn
    def on_join(self, node: int, now: float) -> None:
        # A rejoining node's content did not change while it was offline
        # (observation 3, Section III-A), so peers that cached its ad still
        # hold a valid copy: a refresh ad (header-only) re-announces
        # liveness at a fraction of a full ad's cost.  Never-advertised
        # sharers -- and the occasional genuinely new peer -- pay for a
        # full ad.
        fresh = (
            node not in self._advertised
            or float(self.rng.random()) < self.params.fresh_join_fraction
        )
        if fresh:
            self._issue_full_ad(node, now)
        else:
            self._issue_refresh_ad(node, now)
        if self.params.ads_request_on_join:
            self._ads_request(node, now)
        if self._engine is not None and node not in self._timers:
            self._start_refresh_timer(node, phase_base=now)

    def on_leave(self, node: int, now: float) -> None:
        timer = self._timers.pop(node, None)
        if timer is not None:
            timer.stop()
        # The node's repo is retained for a possible rejoin (paper: "if a
        # node stays offline for a long time and then rejoins, the ads in
        # its cache could be mostly out of date" -- the ads request on
        # rejoin compensates).

    def on_content_change(self, node: int, doc, added: bool, now: float) -> None:
        ad = self.store.apply_content_change(node, doc, added)
        if ad is not None and self.overlay.is_live(node):
            self._disseminate(ad, now)

    # ------------------------------------------------------------ ads request
    def _neighbors_within_h(self, node: int) -> List[Tuple[int, float]]:
        """Live nodes within ``h`` overlay hops with one-way path latency."""
        h = self.params.ads_request_hops
        if h == 0:
            return []
        nbrs, lats = self.overlay.live_neighbors(node)
        frontier = {int(v): float(l) for v, l in zip(nbrs, lats)}
        result = dict(frontier)
        for _ in range(h - 1):
            nxt: Dict[int, float] = {}
            for v, d in frontier.items():
                vn, vl = self.overlay.live_neighbors(v)
                for w, l in zip(vn, vl):
                    w = int(w)
                    if w == node or w in result:
                        continue
                    cand = d + float(l)
                    if w not in nxt or cand < nxt[w]:
                        nxt[w] = cand
            result.update(nxt)
            frontier = nxt
        return sorted(result.items())

    def _ads_request(
        self,
        node: int,
        now: float,
        exclude: Optional[Set[int]] = None,
        positions: Optional[np.ndarray] = None,
    ) -> Tuple[Dict[int, float], int, float]:
        """Ask neighbours within h hops for novel ads.

        Two scopes (DESIGN.md section 3 documents the split):

        * **bootstrap/join** (``positions is None``) -- neighbours return
          every cached ad whose topics overlap the requester's interests:
          the paper's "brand new node" cache transfer;
        * **query fallback** (``positions`` given) -- neighbours return only
          cached ads whose filter matches all query-term positions, i.e.
          they run the requester's lookup on their own cache.  This keeps
          per-search fallback cost to a few small messages, consistent with
          the paper's reported search cost.

        Returns ``(new_source -> availability_ms, messages, bytes)`` where
        availability is the supplying neighbour's reply RTT.  ``exclude``
        lists sources the requester just disproved by confirmation -- they
        travel in the request digest, so neighbours do not send them back.

        Each neighbour's reply merges as one batch: the novel set is the
        neighbour's mirror minus a per-request mask of what the requester
        knows, the interest filter one gather over per-topic-code answers,
        and :meth:`_store_novel` copies the entries neighbour row -> own
        row with bulk allocation and scatter writes, evicting from a capped
        cache exactly as one :meth:`AdsRepository.accept_snapshot` per ad
        would.  The compressed-filter reply size is memoized per
        ``(source, version)``.
        ``_ads_request_reference`` keeps the method-call-per-ad loop as the
        differential oracle.
        """
        if kernels.REFERENCE_ONLY or self.arena is None:
            return self._ads_request_reference(
                node, now, exclude=exclude, positions=positions
            )
        repo = self.repos[node]
        repos = self.repos
        store = self.store
        store_version = store._version
        arena = self.arena
        index = arena.index
        ad_header = self.sizes.ad_header
        filter_bits = store.hasher.m
        size_memo = self._filter_size_memo
        reply_size_memo = self._reply_size_memo
        ledger = self.ledger
        telemetry = self.telemetry if self.telemetry.enabled else None
        neighbors = self._neighbors_within_h(node)
        new_sources: Dict[int, float] = {}
        n_messages = 0
        total_bytes = 0.0
        request_total = 0.0
        request_size = self.sizes.ads_request + int(
            math.ceil(len(repo) * self.params.digest_bytes_per_entry)
        )
        current_match = (
            store.match_current(positions) if positions is not None else None
        )
        # What a neighbour's reply leaves out: sources the requester caches,
        # has just disproved, or is.  ``known`` tracks the cached part as
        # the merge stores and evicts.
        static = np.zeros(len(repos), dtype=bool)
        static[list(exclude or ())] = True
        static[node] = True
        known = static.copy()
        known[repo._pairs()[0]] = True
        # ``interesting[code]``: does the requester's interest set meet
        # interned topic set ``code``?  Nothing below interns a new set, so
        # one answer per code serves every neighbour.
        interesting = None
        for nbr, one_way in neighbors:
            n_messages += 1
            total_bytes += request_size
            request_total += request_size
            ledger.record(
                now, TrafficCategory.ADS_REQUEST, request_size, messages=1
            )
            if positions is None:
                offered, nrows = repos[nbr]._pairs()
            else:
                offered = np.asarray(
                    repos[nbr].lookup(positions, current_match), dtype=np.int64
                )
                nrows = None
            pick = np.flatnonzero(~known[offered])
            # In source order, like the reference's ``sorted(offered - mine)``.
            pick = pick[np.argsort(offered[pick], kind="stable")]
            novel = offered[pick].astype(np.int64)
            if novel.size:
                if nrows is None:
                    nrows = index.lookup(pair_key(nbr, novel))
                else:
                    nrows = nrows[pick]
                codes = arena.topics_code[nrows]
                if interesting is None:
                    interests = repo.interests
                    interesting = np.fromiter(
                        (not interests.isdisjoint(t) for t in arena._topics_list),
                        dtype=bool,
                        count=len(arena._topics_list),
                    )
                keep = interesting[codes]
                novel, nrows, codes = novel[keep], nrows[keep], codes[keep]
                known[novel] = True
                evicted = self._store_novel(
                    repo, novel, arena.version[nrows], codes, now
                )
                known[evicted] = static[evicted]
            reply_bytes = float(ad_header)  # reply envelope
            rtt = 2.0 * one_way
            for s in novel.tolist():
                # The reply carries the source's *current* filter; its
                # set-bit count -- and therefore the compressed size -- can
                # only change when the source's version bumps, so (s,
                # version) keys the whole derivation.
                size_key = (s, int(store_version[s]))
                size = reply_size_memo.get(size_key)
                if size is None:
                    n_set = store.n_set_bits(s)
                    size = size_memo.get(n_set)
                    if size is None:
                        size = compressed_filter_size(n_set, filter_bits)
                        size_memo[n_set] = size
                    reply_size_memo[size_key] = size
                reply_bytes += ad_header + size
                if s not in new_sources or rtt < new_sources[s]:
                    new_sources[s] = rtt
            n_messages += 1
            total_bytes += reply_bytes
            ledger.record(
                now + rtt / 1000.0,
                TrafficCategory.ADS_REPLY,
                reply_bytes,
                messages=1,
            )
            if telemetry is not None:
                # The serving neighbour pays for the reply it assembled.
                telemetry.record_ads_request(
                    now, int(nbr), request_size + reply_bytes
                )
        if self.tracer.enabled:
            self.tracer.event(
                "ad",
                "ads_request",
                now,
                node=int(node),
                scope="query" if positions is not None else "bootstrap",
                neighbors=len(neighbors),
                new_sources=len(new_sources),
                messages=n_messages,
                cost_bytes=total_bytes,
                request_bytes=request_total,
                reply_bytes=total_bytes - request_total,
            )
        return new_sources, n_messages, total_bytes


    def _store_novel(
        self,
        repo: ArenaRepository,
        sources: np.ndarray,
        versions: np.ndarray,
        codes: np.ndarray,
        now: float,
    ) -> np.ndarray:
        """Store ads-reply entries ``repo`` holds no entry for.

        The reference stores the ads one by one, each followed by an LRU
        eviction that spares it.  Every new entry carries ``now``, the
        latest timestamp, and enters after every held entry, so those
        evictions take exactly the first ``excess`` entries of the stable
        timestamp order over the held entries then the new ones -- never an
        ad not yet stored, nor the one just stored.  So one batch does it:
        evict that prefix, then bulk-store the surviving new ads.  Returns
        the evicted sources (new ones included: stored, then evicted).
        """
        evicted = sources[:0]
        if not sources.size:
            return evicted
        arena = self.arena
        node = repo.owner
        cachers = self.cachers
        excess = 0
        if repo.capacity is not None:
            excess = len(repo) + sources.size - repo.capacity
        if excess > 0:
            held, held_rows = repo._pairs()
            ts = np.concatenate(
                [arena.cached_at[held_rows], np.full(sources.size, now)]
            )
            pick = np.argsort(ts, kind="stable")[:excess]
            old = pick[pick < held.size]
            fresh = pick[pick >= held.size] - held.size
            gone, gone_rows = held[old].astype(np.int64), held_rows[old]
            evicted = np.concatenate([gone, sources[fresh]])
            kept = np.ones(held.size, dtype=bool)
            kept[old] = False
            arena.mirrors.keep(node, kept)
            arena.index.delete_many(pair_key(node, gone))
            arena.release_many(gone_rows)
            for ev in gone.tolist():
                cachers[ev].discard(node)
            stays = np.ones(sources.size, dtype=bool)
            stays[fresh] = False
            sources, versions, codes = sources[stays], versions[stays], codes[stays]
        rows = arena.alloc_many(sources.size)
        arena.index.insert_many(pair_key(node, sources), rows)
        arena.mirrors.extend(node, sources, rows)
        arena.version[rows] = versions
        arena.topics_code[rows] = codes
        arena.cached_at[rows] = now
        arena.behind[rows] = versions < self.store._version[sources]
        for s in sources.tolist():
            cachers[s].add(node)
        return evicted

    def _ads_request_reference(
        self,
        node: int,
        now: float,
        exclude: Optional[Set[int]] = None,
        positions: Optional[np.ndarray] = None,
    ) -> Tuple[Dict[int, float], int, float]:
        """Reference ads request: one ``accept_snapshot`` call per ad.

        The pre-batching implementation, retained as the differential
        oracle for :meth:`_ads_request` (same contract, bit-identical
        repository/ledger state and return value).
        """
        exclude = exclude or set()
        repo = self.repos[node]
        neighbors = self._neighbors_within_h(node)
        new_sources: Dict[int, float] = {}
        n_messages = 0
        total_bytes = 0.0
        request_total = 0.0
        request_size = self.sizes.ads_request + int(
            math.ceil(len(repo) * self.params.digest_bytes_per_entry)
        )
        current_match = (
            self.store.match_current(positions) if positions is not None else None
        )
        for nbr, one_way in neighbors:
            n_messages += 1
            total_bytes += request_size
            request_total += request_size
            self.ledger.record(
                now, TrafficCategory.ADS_REQUEST, request_size, messages=1
            )
            nbr_repo = self.repos[nbr]
            if positions is None:
                offered = nbr_repo.entries.keys()
            else:
                offered = nbr_repo.lookup(positions, current_match)
            novel = [
                s
                for s in sorted(set(offered) - repo.entries.keys() - exclude)
                if s != node
            ]
            reply_bytes = float(self.sizes.ad_header)  # reply envelope
            rtt = 2.0 * one_way
            for s in novel:
                entry = nbr_repo.entries[s]
                if not repo.interested_in(entry.topics):
                    continue
                stored, evicted = repo.accept_snapshot(
                    s, entry.version, entry.topics, now
                )
                reply_bytes += self.sizes.ad_header + compressed_filter_size(
                    self.store.n_set_bits(s), self.store.hasher.m
                )
                if stored:
                    self.cachers[s].add(node)
                    for ev in evicted:
                        self.cachers[ev].discard(node)
                    if s not in new_sources or rtt < new_sources[s]:
                        new_sources[s] = rtt
            n_messages += 1
            total_bytes += reply_bytes
            self.ledger.record(
                now + rtt / 1000.0,
                TrafficCategory.ADS_REPLY,
                reply_bytes,
                messages=1,
            )
            if self.telemetry.enabled:
                # The serving neighbour pays for the reply it assembled.
                self.telemetry.record_ads_request(
                    now, int(nbr), request_size + reply_bytes
                )
        if self.tracer.enabled:
            self.tracer.event(
                "ad",
                "ads_request",
                now,
                node=int(node),
                scope="query" if positions is not None else "bootstrap",
                neighbors=len(neighbors),
                new_sources=len(new_sources),
                messages=n_messages,
                cost_bytes=total_bytes,
                request_bytes=request_total,
                reply_bytes=total_bytes - request_total,
            )
        return new_sources, n_messages, total_bytes

    # ---------------------------------------------------------------- search
    def _search_impl(
        self, requester: int, terms: Sequence[str], now: float
    ) -> SearchOutcome:
        if self._local_hit(requester, terms):
            return self._local_outcome()

        positions = self.store.hasher.positions_array(terms)
        current_match = self.store.match_current(positions)
        repo = self.repos[requester]

        candidates = repo.lookup(positions, current_match)
        avail = {s: 0.0 for s in candidates}

        n_messages = 0
        total_bytes = 0.0
        confirmed: List[Tuple[int, float]] = []  # (source, response_ms)
        tried: Set[int] = set()
        # Confirmation accounting for the trace (attempted / confirmed /
        # failure classes); only maintained when tracing is on.
        stats = {
            "attempted": 0,
            "confirmed": 0,
            "failed_dead": 0,
            "failed_bloom_fp": 0,
            "failed_split": 0,
        }

        def classify_failure(s: int) -> str:
            """A live source's filter matched but its content did not:
            either a term is genuinely absent from every document the
            source shares (a Bloom false positive on that term) or every
            term exists but spread across documents (a cross-doc split)."""
            shared = self.content.docs_on(s)
            for term in terms:
                if not any(
                    term in self.content.document(d).keywords for d in shared
                ):
                    return "failed_bloom_fp"
            return "failed_split"

        def confirm_round(cands: Dict[int, float]) -> None:
            nonlocal n_messages, total_bytes
            traced = self.tracer.enabled
            telemetry = self.telemetry
            cap = self.params.max_confirmations
            pending = [s for s in cands if s not in tried]
            if kernels.REFERENCE_ONLY or not pending:
                # Reference nearest-first ordering: per-pair latency calls
                # under a stable sort.
                order = sorted(
                    pending,
                    key=lambda s: self.overlay.direct_latency_ms(requester, s),
                )[:cap]
                ordered = [
                    (s, self.overlay.direct_latency_ms(requester, s))
                    for s in order
                ]
            else:
                # Batched ordering: gather all candidate latencies in one
                # vectorized call and stable-argsort.  pairwise latencies
                # are bit-equal to per-pair ones and both sorts are
                # stable over the same iteration order, so the selection
                # and its order match the reference exactly.
                lats = self.overlay.direct_latencies_ms(
                    requester, np.asarray(pending, dtype=np.int64)
                )
                idx = np.argsort(lats, kind="stable")[:cap]
                ordered = [(pending[i], float(lats[i])) for i in idx]
            for s, lat in ordered:
                tried.add(s)
                n_messages += 1
                total_bytes += self.sizes.confirmation_request
                self.ledger.record(
                    now,
                    TrafficCategory.CONFIRMATION,
                    self.sizes.confirmation_request,
                    messages=1,
                )
                if traced:
                    stats["attempted"] += 1
                if not self.overlay.is_live(s):
                    # Departed source: retire the stale ad.
                    repo.remove(s)
                    self.cachers[s].discard(requester)
                    if traced:
                        stats["failed_dead"] += 1
                    if telemetry.enabled:
                        telemetry.record_confirmation(
                            now, requester, int(s),
                            self.sizes.confirmation_request,
                        )
                    continue
                n_messages += 1
                total_bytes += self.sizes.confirmation_reply
                self.ledger.record(
                    now + 2.0 * lat / 1000.0,
                    TrafficCategory.CONFIRMATION,
                    self.sizes.confirmation_reply,
                    messages=1,
                )
                if telemetry.enabled:
                    telemetry.record_confirmation(
                        now, requester, int(s),
                        self.sizes.confirmation_request
                        + self.sizes.confirmation_reply,
                    )
                if self.content.node_matches(s, terms):
                    confirmed.append((s, cands[s] + 2.0 * lat))
                    if traced:
                        stats["confirmed"] += 1
                else:
                    # False positive or cross-document term split.
                    repo.remove(s)
                    self.cachers[s].discard(requester)
                    if traced:
                        stats[classify_failure(s)] += 1

        confirm_round(avail)

        if len(confirmed) < self.params.more_results_threshold:
            new_sources, req_msgs, req_bytes = self._ads_request(
                requester, now, exclude=tried, positions=positions
            )
            n_messages += req_msgs
            total_bytes += req_bytes
            if new_sources:
                fresh = repo.lookup(positions, self.store.match_current(positions))
                round2 = {
                    s: new_sources.get(s, 0.0)
                    for s in fresh
                    if s not in tried
                }
                confirm_round(round2)

        if self.tracer.enabled:
            # Nested inside the query span: ties the confirmation byte
            # movement (ledger_delta) back to individual attempts and feeds
            # the measured Bloom false-positive rate.
            self.tracer.event("query", "confirm_stats", now, **stats)
        if not confirmed:
            return self._failure(n_messages, total_bytes)
        response_time = min(t for _, t in confirmed)
        return SearchOutcome(
            success=True,
            response_time_ms=response_time,
            messages=n_messages,
            cost_bytes=total_bytes,
            results=len(confirmed),
        )

"""The byte-caching encoder (Fig. 2 / Fig. 7 logic).

The encoder is policy-parameterised: the Redundancy Identification and
Elimination procedure and the Cache Update procedure are exactly Spring
& Wetherall's, with the paper's three loss-robust algorithms expressed
as small hooks (see :mod:`repro.core.policies.base`):

* *before_packet* — Cache Flush's retransmission-triggered flush;
* *may_encode*    — k-distance's unencoded reference packets;
* *entry_eligible* — TCP-seq's "only encode against a strictly earlier
  segment" rule and k-distance's reference-window rule;
* *should_cache_now* — the ACK-gated extension's deferred cache update.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from .cache import ByteCache
from .fingerprint import FingerprintScheme
from .polyhash import AnchorSet
from .region import Region, expand_bounds
from .ringtable import OFFSET_BITS, OFFSET_MASK, RingEntry
from .wire import MIN_REGION_LENGTH, SHIM_SIZE, encode_payload, wrap_raw
from .policies.base import EncoderPolicy, PacketMeta


class _SplitPairs:
    """A packet's anchors, resolved against the ring index.

    Three parallel lists: the ascending ``offsets`` (so the region loop
    can ``bisect`` past every anchor an accepted region swallowed in one
    C call), their ``fingerprints``, and ``pointers`` — the
    ``store_id << 32 | offset`` each fingerprint resolved to when the
    packet was probed, ``None`` for a miss.
    """

    __slots__ = ("offsets", "fingerprints", "pointers")

    def __init__(self, offsets: Sequence[int], fingerprints: Sequence[int],
                 pointers: Sequence[Optional[int]]) -> None:
        self.offsets = offsets
        self.fingerprints = fingerprints
        self.pointers = pointers


_EMPTY_SPLIT = _SplitPairs((), (), ())


@dataclass
class EncodeResult:
    """Outcome of encoding one packet payload."""

    data: bytes                  # shimmed bytes to put on the wire
    encoded: bool                # True if any region was eliminated
    bytes_in: int                # original payload size
    bytes_out: int               # shimmed wire payload size
    regions: List[Region] = field(default_factory=list)
    dependencies: Set[int] = field(default_factory=set)   # packet ids referenced
    cached: bool = True          # False when the cache update was deferred


@dataclass
class EncoderStats:
    """Counters accumulated by an encoder over a run."""

    packets: int = 0
    packets_encoded: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    regions: int = 0
    matched_bytes: int = 0
    collisions: int = 0          # fingerprint hits rejected by byte compare
    ineligible_hits: int = 0     # hits rejected by the policy


class ByteCachingEncoder:
    """Encodes packet payloads against a local byte cache."""

    def __init__(self, scheme: FingerprintScheme, cache: ByteCache,
                 policy: EncoderPolicy) -> None:
        self.scheme = scheme
        self.cache = cache
        self.policy = policy
        self.stats = EncoderStats()
        #: Optional :class:`repro.metrics.profiling.StageProfiler`;
        #: when None (the default) the timing branches cost one
        #: attribute load and an identity check per packet.
        self.profiler = None
        #: Optional :class:`repro.verify.oracles.VerificationHarness`;
        #: same contract — None (the default) costs one attribute load
        #: and an ``is None`` check per packet / emitted region.
        self.verifier = None
        #: Optional causal span recorder (duck-typed,
        #: :class:`repro.metrics.spans.SpanRecorder`).  When set, the
        #: per-packet pass emits its table_probe / region_expand /
        #: wire_pack stage spans under the gateway's encode span, in one
        #: ``encode_stages`` call; when None (and no profiler) a stage
        #: boundary costs one flag test.
        self.spans: Optional[Any] = None
        policy.attach_encoder(self)

    def encode(self, payload: bytes, meta: PacketMeta,
               force_raw: bool = False) -> EncodeResult:
        """Run the full encoder pass over one outgoing payload.

        With ``force_raw`` the elimination pass is skipped entirely (the
        payload ships shimmed-raw) but the Cache Update pass still runs
        — the resilience layer's post-resync grace window uses this to
        rebuild reference state without emitting regions.
        """
        profiler = self.profiler
        if profiler is not None:
            started = perf_counter()
            anchors = self.scheme.anchors(payload)
            profiler.add("fingerprint", perf_counter() - started)
        else:
            anchors = self.scheme.anchors(payload)
        stats = self.stats
        stats.packets += 1
        stats.bytes_in += len(payload)
        verifier = self.verifier
        if verifier is not None:
            verifier.on_packet(meta)

        self.policy.before_packet(meta, self.cache)

        # One clock read per stage boundary serves both observers (the
        # end of a stage is the start of the next); the stage times go
        # out after wire packing, to the profiler and in one span call.
        spans = self.spans
        timed = profiler is not None or spans is not None
        if timed:
            mark = perf_counter()
        probe = expand = None
        n_regions = n_dependencies = matched = 0
        regions: List[Region] = []
        dependencies: Set[int] = set()
        if not force_raw and self.policy.may_encode(meta):
            pairs = self._candidate_pairs(anchors)
            if timed:
                now = perf_counter()
                probe = now - mark
                mark = now
            regions, dependencies, matched = self._find_regions(
                payload, pairs, meta)
            if timed:
                now = perf_counter()
                expand = now - mark
                mark = now
                # Counted before a net loss below empties them.
                n_regions, n_dependencies = len(regions), len(dependencies)

        if regions:
            data = encode_payload(payload, regions)
            if len(data) >= len(payload) + SHIM_SIZE:
                # Net loss after headers; ship raw instead.
                regions = []
                dependencies = set()
                data = wrap_raw(payload)
        else:
            data = wrap_raw(payload)
        if timed:
            now = perf_counter()
            pack = now - mark
            mark = now
            if profiler is not None:
                if probe is not None:
                    profiler.add("table_probe", probe)
                    profiler.add("region_expand", expand)
                profiler.add("wire_pack", pack)
            if spans is not None:
                spans.encode_stages("encoder-core", probe, expand, pack,
                                    n_regions, n_dependencies, len(data))

        cached = False
        if self.policy.should_cache_now(meta):
            self.insert_into_cache(payload, anchors, meta)
            cached = True
        else:
            self.policy.defer_cache(payload, anchors, meta)
        if profiler is not None:
            profiler.add("cache_ops", perf_counter() - mark)

        stats.bytes_out += len(data)
        if regions:
            stats.packets_encoded += 1
            stats.regions += len(regions)
            stats.matched_bytes += matched

        # Positional: the dataclass __init__ binds keywords at more
        # than twice the cost, once per packet.
        return EncodeResult(data, bool(regions), len(payload), len(data),
                            regions, dependencies, cached)

    def insert_into_cache(self, payload: bytes, anchors: AnchorSet,
                          meta: PacketMeta) -> None:
        """Cache Update Procedure (Fig. 2 part C / Fig. 7 part C)."""
        self.cache.insert_packet(
            payload, anchors,
            tcp_seq=meta.tcp_seq,
            flow=meta.flow,
            packet_counter=meta.counter,
            external_id=meta.packet_id,
        )

    # -- internal ---------------------------------------------------------

    def _candidate_pairs(self, anchors: AnchorSet) -> _SplitPairs:
        """The ``table_probe`` stage: resolve a packet's anchors at once.

        One ``map`` over the fingerprint index (a C loop, no per-anchor
        bytecode) yields the pointer behind every anchor;
        :meth:`_find_regions` reads them by position.  A packet whose
        anchors all miss — most of fresh traffic — comes back empty, so
        the region loop binds nothing for it.
        """
        fps = anchors.fps_list()
        pointers = list(map(self.cache.table._index.get, fps))
        if pointers.count(None) == len(pointers):
            return _EMPTY_SPLIT
        return _SplitPairs(anchors.offsets.tolist(), fps, pointers)

    def _find_regions(self, payload: bytes, anchors: _SplitPairs,
                      meta: PacketMeta
                      ) -> Tuple[List[Region], Set[int], int]:
        """Redundancy Identification and Elimination (Fig. 2 part B).

        Returns the accepted regions, the packet ids they depend on and
        the bytes they cover.
        """
        regions: List[Region] = []
        dependencies: Set[int] = set()
        pos = 0  # first byte not yet covered by an accepted region
        matched = 0
        offs_l = anchors.offsets
        fps_l = anchors.fingerprints
        pointers = anchors.pointers
        if not offs_l:
            # Every anchor missed (or there was none) — skip the local
            # binding below (fresh traffic hits this for most packets).
            return regions, dependencies, matched
        cache = self.cache
        policy = self.policy
        entry_eligible = policy.entry_eligible
        stats = self.stats
        verifier = self.verifier
        window = self.scheme.window
        min_length = MIN_REGION_LENGTH
        payload_len = len(payload)
        ring = cache.table
        store_get = cache.store.get
        records = cache.store.records
        # entry_eligible reads per-packet-record facts only (see the
        # hook's contract), so one verdict per distinct source packet
        # serves every other anchor of that packet in this one: a
        # retransmitted segment hits its own cached copy ~90 times.
        verdicts: Dict[int, bool] = {}
        # The source packet of the last hit, when that hit was refused
        # and nothing has read the store since.  Another hit on it
        # skips the store read and the verdict: the store still holds
        # it, its verdict is cached, and touching the most recently
        # used key of an LRU store again changes nothing.
        refused: Optional[int] = None
        n = len(offs_l)
        i = 0
        while i < n:
            offset = offs_l[i]
            if offset < pos:
                # Anchor offsets are ascending, so one bisect replaces
                # the linear scan over every anchor the last accepted
                # region swallowed.
                i = bisect_left(offs_l, pos, i + 1)
                continue
            # Inlined ByteCache.lookup (the registered hot loop; see
            # that method for the checks), starting from the pointer
            # _candidate_pairs resolved.  A pointer gone stale since —
            # this loop removed the index entry at an earlier,
            # duplicate anchor — fails the store check again and lands
            # on the same ``continue``.
            pointer = pointers[i]
            if pointer is None:
                i += 1
                continue
            fingerprint = fps_l[i]
            i += 1
            sid = pointer >> OFFSET_BITS
            if sid == refused:
                stats.ineligible_hits += 1
                continue
            stored = store_get(sid)
            if stored is None:
                ring.remove(fingerprint)
                continue
            eligible = verdicts.get(sid)
            if eligible is None:
                eligible = verdicts[sid] = entry_eligible(
                    RingEntry(ring, fingerprint, pointer), meta)
            if not eligible:
                stats.ineligible_hits += 1
                refused = sid
                continue
            refused = None
            entry_offset = pointer & OFFSET_MASK
            if (offset == entry_offset and payload_len == len(stored)
                    and payload == stored):
                # Identical payloads (the repeated-transfer case): the
                # match trivially spans everything past ``pos``, which
                # is exactly what expand_bounds returns for two equal
                # buffers with equal anchor offsets — skip its slice
                # allocations and compares.
                bounds = (pos, pos, payload_len - pos)
            else:
                bounds = expand_bounds(payload, offset, stored, entry_offset,
                                       window, pos)
                if bounds is None:
                    stats.collisions += 1
                    continue
            offset_new, offset_stored, length = bounds
            if length <= min_length:
                continue
            if not policy.region_acceptable(length, payload_len, meta):
                stats.ineligible_hits += 1
                continue
            region = Region(fingerprint, offset_new, offset_stored, length)
            if verifier is not None:
                # The only consumer of a per-anchor entry view.
                verifier.on_region(meta, RingEntry(ring, fingerprint, pointer),
                                   region)
            regions.append(region)
            external = records[sid][3]   # stored, so recorded
            if external is not None:
                dependencies.add(external)
            pos = offset_new + length
            matched += length
        return regions, dependencies, matched

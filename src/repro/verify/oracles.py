"""Online invariant oracles for byte-caching runs.

The paper's correctness argument is a set of *safety properties*: the
naive Spring & Wetherall encoder violates decodability under loss
(§IV), and each §V algorithm restores one specific property —
strictly-earlier references (TCP-seq), reference-group bounds
(k-distance), flush-on-retransmission (Cache Flush).  This module
machine-checks those properties *while a run executes*, the way the
network-coded TCP stacks in PAPERS.md validate their coded pipeline
against an uncoded oracle.

Arming is one flag — ``ExperimentConfig(verify=True)`` — and the
disabled cost is one attribute load + ``is None`` check per packet and
per emitted region (the same contract as the profiler and telemetry
hooks; the e2e harness's ``py_calls_per_op`` budget holds it).

Five oracle families:

* **byte integrity** — the delivered application stream must be a
  byte-exact prefix of the source object (checked incrementally as TCP
  delivers, so the violation fires at the first wrong byte, not at the
  end of the run);
* **cache coherence** — at quiescent points (nothing in flight on the
  forward bottleneck, neither gateway down or mid-resync, epochs
  agreed) every fingerprint present in *both* caches must resolve to
  byte-identical window bytes.  Since a fingerprint is computed over
  its window, a mismatch means a poisoned store (or a 64-bit
  collision) — decoder-side *gaps* are legal, they are exactly the
  modelled perceived loss;
* **shard invariants** — on every tick, a cache that declares
  ``check_invariants()`` (the sharded serving cache) must report none
  broken: bytes within each shard's budget, one home per store id;
* **per-policy safety** — tcp_seq / k_distance / cache_flush emission
  rules, re-checked independently on every emitted region;
* **circular dependency** — the policy-independent §IV property: no
  emitted region may source a same-flow segment at an equal-or-later
  sequence number.  All three paper policies imply it; the naive policy
  violates it on the first lossy retransmission, which is how
  ``verify=True`` pinpoints the livelock.

A violation raises :class:`InvariantViolation` carrying the oracle
name, a structured context and the flight-recorder dump, so a failed
run is diagnosable from the exception alone.
"""

from __future__ import annotations

from itertools import islice, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..core.ringtable import OFFSET_BITS, OFFSET_MASK

Verdict = Optional[Tuple[str, Dict[str, Any]]]

#: Encoder-index entries a full coherence pass compares at a time.
_FULL_PASS_BATCH = 4096

#: Sim-time seconds between two invariant and coherence ticks.
COHERENCE_INTERVAL = 0.5


class InvariantViolation(Exception):
    """A machine-checked safety property failed during a run.

    Carries everything needed to diagnose the failure without re-running:
    the oracle that tripped, a structured ``context`` dict, and the
    flight-recorder dump (the last N trace events before the violation).
    """

    def __init__(self, oracle: str, message: str,
                 context: Optional[Dict[str, Any]] = None,
                 flight_recorder: Optional[List[Dict[str, Any]]] = None):
        self.oracle = oracle
        self.message = message
        self.context = dict(context or {})
        self.flight_recorder = list(flight_recorder or [])
        super().__init__(f"[{oracle}] {message}")

    def summary(self) -> Dict[str, Any]:
        """JSON-friendly form (fuzz case files embed this)."""
        return {
            "oracle": self.oracle,
            "message": self.message,
            "context": self.context,
            "flight_recorder_events": len(self.flight_recorder),
        }


# ---------------------------------------------------------------------------
# per-region oracles
# ---------------------------------------------------------------------------

class EncoderOracle:
    """Base class: observes the encoder's packet/region stream.

    ``on_region`` returns ``None`` when the region is fine, or a
    ``(message, context)`` verdict; the harness raises.  Oracles keep
    their own state (they do *not* trust the policy's bookkeeping —
    that is the thing under test) and only read immutable geometry
    parameters, e.g. ``k`` and ``mss``, from the policy.
    """

    name = "oracle"

    def on_packet(self, meta) -> None:
        """Observe one outgoing data packet before region finding."""

    def on_region(self, meta, entry, region) -> Verdict:
        """Judge one emitted region (entry = its cache source)."""
        return None


class CircularDependencyOracle(EncoderOracle):
    """§IV: no region may source a same-flow equal-or-later segment.

    A retransmission encoded against the cached copy of itself (or of a
    later segment the receiver may never assemble) is the circular
    dependency that livelocks the naive policy; every §V algorithm
    implies this property, so it is armed for all of them.
    """

    name = "circular_dependency"

    def on_region(self, meta, entry, region) -> Verdict:
        if meta.tcp_seq is None or entry.tcp_seq is None:
            return None
        if entry.flow != meta.flow:
            return None
        if entry.tcp_seq >= meta.tcp_seq:
            kind = ("itself" if entry.tcp_seq == meta.tcp_seq
                    else "a later segment")
            return (
                f"circular dependency: segment seq={meta.tcp_seq} encoded "
                f"against a cached copy of {kind} (source seq="
                f"{entry.tcp_seq}) — the §IV livelock: if the original "
                f"was lost, no copy can ever be decoded",
                {"packet_id": meta.packet_id, "seq_new": meta.tcp_seq,
                 "seq_stored": entry.tcp_seq, "flow": list(meta.flow or ()),
                 "region_length": region.length,
                 "offset_new": region.offset_new})
        return None


class TcpSeqOracle(EncoderOracle):
    """§V-B: every emitted region satisfies ``seq_stored < seq_new``,
    and a retransmission sources no other flow.

    A retransmission is a segment whose ``tcp_seq`` is not above the
    highest already sent on its flow — checked against the oracle's own
    per-flow high-water mark, not the policy's.
    """

    name = "tcp_seq"

    def __init__(self, policy=None) -> None:
        self._high_seq: Dict[Any, int] = {}
        self._resending = False

    def on_packet(self, meta) -> None:
        if meta.tcp_seq is None:
            return
        high = self._high_seq.get(meta.flow)
        self._resending = high is not None and meta.tcp_seq <= high
        if not self._resending:
            self._high_seq[meta.flow] = meta.tcp_seq

    def on_region(self, meta, entry, region) -> Verdict:
        context = {"packet_id": meta.packet_id, "seq_new": meta.tcp_seq,
                   "seq_stored": entry.tcp_seq,
                   "region_length": region.length}
        if meta.tcp_seq is None:
            return ("tcp_seq emitted a region on a packet with no "
                    "sequence number (the Fig. 7 guard is unevaluable)",
                    context)
        if entry.flow != meta.flow:
            if self._resending:
                context["high_seq"] = self._high_seq.get(meta.flow)
                return (f"tcp_seq cross-flow safety broken: retransmission "
                        f"seq_new={meta.tcp_seq} sources another flow's "
                        f"segment (§IV-C: a lost source there leaves "
                        f"this copy undecodable too)", context)
            return None
        if entry.tcp_seq is None or entry.tcp_seq >= meta.tcp_seq:
            return (f"tcp_seq safety broken: region sources seq_stored="
                    f"{entry.tcp_seq}, not strictly earlier than seq_new="
                    f"{meta.tcp_seq} (Fig. 7 line B.7)", context)
        return None


class KDistanceOracle(EncoderOracle):
    """§V-C: region sources lie inside the current reference group.

    Tracks the per-flow stream base itself; reads only the group
    geometry (``k``, ``mss``) from the policy — live, because the
    adaptive variant retunes ``k`` in ``before_packet``, which runs
    before any region of that packet is found.
    """

    name = "k_distance"

    def __init__(self, policy) -> None:
        self._policy = policy
        self._base: Dict[Any, int] = {}

    def on_packet(self, meta) -> None:
        if meta.tcp_seq is None:
            return
        base = self._base.get(meta.flow)
        if base is None or meta.tcp_seq < base:
            self._base[meta.flow] = meta.tcp_seq

    def on_region(self, meta, entry, region) -> Verdict:
        policy = self._policy
        context = {"packet_id": meta.packet_id, "seq_new": meta.tcp_seq,
                   "seq_stored": entry.tcp_seq, "k": policy.k,
                   "region_length": region.length}
        if meta.tcp_seq is not None:
            if entry.flow != meta.flow or entry.tcp_seq is None:
                return ("k_distance emitted a region sourcing a segment "
                        "outside the flow's stream order", context)
            base = self._base.get(meta.flow, meta.tcp_seq)
            group_bytes = policy.k * policy.mss
            group_start = (base + (meta.tcp_seq - base)
                           // group_bytes * group_bytes)
            context["group_start"] = group_start
            if not group_start <= entry.tcp_seq < meta.tcp_seq:
                return (f"k_distance group bound broken: source seq="
                        f"{entry.tcp_seq} outside [{group_start}, "
                        f"{meta.tcp_seq}) for k={policy.k}", context)
            return None
        # Counter mode (no sequence numbers): sources must be no older
        # than the latest reference packet.
        last_reference = policy._last_reference_counter
        context["last_reference_counter"] = last_reference
        if entry.packet_counter < last_reference:
            return (f"k_distance counter bound broken: source counter="
                    f"{entry.packet_counter} predates the latest "
                    f"reference ({last_reference})", context)
        return None


class CacheFlushOracle(EncoderOracle):
    """§V-A: after a non-increasing sequence number, no region may
    source an entry cached before that point until the cache re-seeds.

    A correct flush empties the cache, so every entry referenced
    afterwards carries a packet counter at or past the retransmission
    that triggered it — checked against the oracle's own retransmission
    detector, not the policy's.
    """

    name = "cache_flush"

    def __init__(self, policy=None) -> None:
        self._last_seq: Dict[Any, int] = {}
        self._flush_floor = -1   # min packet_counter a source may carry

    def on_packet(self, meta) -> None:
        if meta.tcp_seq is None or meta.flow is None:
            return
        last = self._last_seq.get(meta.flow)
        if last is not None and meta.tcp_seq <= last:
            self._flush_floor = meta.counter
        self._last_seq[meta.flow] = meta.tcp_seq

    def on_region(self, meta, entry, region) -> Verdict:
        if entry.packet_counter < self._flush_floor:
            return (
                f"cache_flush safety broken: packet counter={meta.counter} "
                f"encoded against a pre-flush entry (source counter="
                f"{entry.packet_counter} < flush floor {self._flush_floor} "
                f"set by a retransmission)",
                {"packet_id": meta.packet_id, "seq_new": meta.tcp_seq,
                 "source_counter": entry.packet_counter,
                 "flush_floor": self._flush_floor,
                 "region_length": region.length})
        return None


#: Oracle constructors by the names policies declare in
#: ``EncoderPolicy.verify_oracles`` (every factory takes the policy).
ORACLE_FACTORIES = {
    "circular_dependency": lambda policy: CircularDependencyOracle(),
    "tcp_seq": TcpSeqOracle,
    "k_distance": KDistanceOracle,
    "cache_flush": CacheFlushOracle,
}


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

class VerificationHarness:
    """Wires the oracles into one run and raises on the first violation.

    Attached by the runner when ``ExperimentConfig(verify=True)``:

    * it becomes the encoder's and decoder's ``verifier`` (hot-path
      hooks: ``on_packet`` / ``on_region`` / drop notifications);
    * it observes the delivered client stream (byte-integrity oracle);
    * it ticks on sim time: every tick runs each cache's own invariant
      check where the cache declares one (the sharded serving cache),
      and at quiescent points it cross-checks the two caches (coherence
      oracle);
    * violations raise :class:`InvariantViolation` carrying the flight
      recorder (shared with telemetry when both are armed).
    """

    def __init__(self, sim=None, recorder=None):
        self.sim = sim
        self.recorder = recorder
        # Duck-typed causal span recorder (repro.metrics.spans); the
        # runner arms it alongside the harness so a violation's context
        # names the active trace/span — a replayable causal chain, not
        # just a counter snapshot.
        self.spans = None
        self.oracles: List[EncoderOracle] = []
        self.violations = 0
        self.coherence_checks = 0
        self.invariant_checks = 0
        self.regions_checked = 0
        self.undecodable_seen = 0
        self.stale_seen = 0
        self._encoder_gw = None
        self._decoder_gw = None
        self._enc_core = None
        self._dec_core = None
        self._links: Tuple = ()
        #: Where the last clean coherence check left off: both tables
        #: and epochs, and each log's mark (None: the next check is a
        #: full pass).
        self._marks: Optional[tuple] = None

    # -- wiring -----------------------------------------------------------

    def attach_pair(self, encoder_gateway, decoder_gateway) -> None:
        """Attach to a live gateway pair (the runner path)."""
        self._encoder_gw = encoder_gateway
        self._decoder_gw = decoder_gateway
        self.attach_cores(encoder_gateway.encoder, decoder_gateway.decoder)

    def attach_cores(self, encoder, decoder=None) -> None:
        """Attach to bare encoder/decoder cores (the unit-test path)."""
        self._enc_core = encoder
        self._dec_core = decoder
        self._marks = None
        encoder.verifier = self
        if decoder is not None:
            decoder.verifier = self
        self.oracles = [ORACLE_FACTORIES[name](encoder.policy)
                        for name in encoder.policy.verify_oracles]

    def watch_links(self, *links) -> None:
        """Links whose in-flight accounting gates the coherence checks
        (read through ``Link.settled``)."""
        self._links = tuple(links)

    def start(self) -> None:
        """Begin the periodic invariant and coherence ticks."""
        if self.sim is not None:
            self.sim.after(COHERENCE_INTERVAL, self._tick)

    # -- hot-path hooks (encoder/decoder call sites guard `is None`) ------

    def on_packet(self, meta) -> None:
        for oracle in self.oracles:
            oracle.on_packet(meta)

    def on_region(self, meta, entry, region) -> None:
        self.regions_checked += 1
        for oracle in self.oracles:
            verdict = oracle.on_region(meta, entry, region)
            if verdict is not None:
                self.fail(oracle.name, verdict[0], **verdict[1])

    def on_undecodable(self, meta, missing) -> None:
        """Decoder dropped a packet with unresolvable references."""
        self.undecodable_seen += 1
        self._note("undecodable", packet_id=meta.packet_id,
                   missing=len(missing))

    def on_stale(self, meta, suspects) -> None:
        """Decoder dropped a reconstruction that failed the checksum."""
        self.stale_seen += 1
        self._note("stale_decode", packet_id=meta.packet_id,
                   suspects=len(suspects))

    def integrity_sink(self, expected: bytes) -> Callable[[bytes], None]:
        """Byte-integrity oracle for one fetch of ``expected``: the
        returned sink takes that fetch's in-order chunks as they reach
        the client.  It keeps its own offset, so overlapping fetches
        are each held to their own object."""
        delivered = 0

        def sink(chunk: bytes) -> None:
            nonlocal delivered
            offset = delivered
            want = expected[offset:offset + len(chunk)]
            if chunk != want:
                first_diff = offset + next(
                    (i for i, (a, b) in enumerate(zip(chunk, want))
                     if a != b), min(len(chunk), len(want)))
                self.fail("byte_integrity",
                          f"delivered stream diverges from the source "
                          f"object at byte {first_diff} (chunk at offset "
                          f"{offset}, length {len(chunk)})",
                          offset=offset, first_diff=first_diff,
                          chunk_length=len(chunk))
            delivered = offset + len(chunk)

        return sink

    # -- coherence oracle --------------------------------------------------

    def quiescent(self) -> bool:
        """True when cache-to-cache comparison is meaningful: nothing in
        flight on the watched links, neither gateway down or resyncing,
        and the cache epochs agree."""
        for link in self._links:
            stats = link.stats
            queued, lost = link.settled()
            in_flight = (stats.packets_offered - stats.packets_delivered
                         - lost - stats.packets_queue_dropped)
            if in_flight != 0 or queued != 0:
                return False
        for gateway in (self._encoder_gw, self._decoder_gw):
            if gateway is None:
                continue
            if gateway.down:
                return False
            resilience = gateway.resilience
            if resilience is not None and getattr(resilience, "resyncing",
                                                  False):
                return False
        if self._enc_core is None or self._dec_core is None:
            return False
        return self._enc_core.cache.epoch == self._dec_core.cache.epoch

    def check_invariants(self) -> None:
        """Run ``check_invariants()`` on each side whose cache declares it.

        The sharded serving cache does: per-shard byte budgets, store
        ids unique and homed, one packet record per stored payload.  The
        first problem fails as ``serving_shards`` with the cache's
        occupancy in the context.
        """
        for role, core in (("encoder", self._enc_core),
                           ("decoder", self._dec_core)):
            check = (None if core is None
                     else getattr(core.cache, "check_invariants", None))
            if check is None:
                continue
            self.invariant_checks += 1
            problems = check()
            if problems:
                self.fail("serving_shards",
                          f"{role} cache violates shard invariants: "
                          f"{problems[0]}",
                          role=role, problems=problems,
                          occupancy=core.cache.shard_occupancy())

    def check_coherence(self) -> bool:
        """Cross-check the caches; returns True if a check was performed.

        Every fingerprint present in *both* tables must resolve to
        byte-identical window bytes.  Decoder-side absences are legal
        (lost carrier packets are the modelled perceived loss); a byte
        mismatch means a poisoned store.

        Only the fingerprints written to either side's log since the
        last clean check are examined.  Any other fingerprint still has
        the pointers that check passed, or has left an index since;
        payloads are immutable and store ids never reused, so its
        verdict cannot have changed.  The first check is a full pass
        over the encoder index, and so is one after a log was emptied
        or renumbered (flush, restart, compaction), an epoch changed or
        a cache was replaced.  Either way the violation raised is the
        full scan's: the first mismatch in encoder-index order.  Stores
        are read with ``peek``, so the check cannot perturb LRU order or
        the caches' lazy removal.
        """
        if not self.quiescent():
            return False
        enc_cache = self._enc_core.cache
        dec_cache = self._dec_core.cache
        enc_table, dec_table = enc_cache.table, dec_cache.table
        enc_index, dec_index = enc_table.pointers, dec_table.pointers
        self.coherence_checks += 1
        # What must not change for a check to read on from the last
        # one's log marks.
        state = enc_table, dec_table, enc_cache.epoch, dec_cache.epoch
        rows = None
        marks = self._marks
        if marks is not None and marks[0] == state:
            enc_rows = enc_table.rows_since(marks[1])
            dec_rows = dec_table.rows_since(marks[2])
            if enc_rows is not None and dec_rows is not None:
                rows = enc_rows, dec_rows
        if rows is None:
            batches = _index_pointers(enc_index, dec_index)
        else:
            batches = [_new_pointers(rows[0], rows[1], enc_index,
                                     dec_index)]
        for fps, enc, dec in batches:
            bad = _mismatches(fps, enc, dec, enc_cache.store.peek,
                              dec_cache.store.peek,
                              self._enc_core.scheme.window)
            if bad:
                self._fail_coherence(next(fp for fp in enc_index
                                          if fp in bad))
        self._marks = state, enc_table.log_mark(), dec_table.log_mark()
        return True

    def _fail_coherence(self, fingerprint: int) -> None:
        enc_cache = self._enc_core.cache
        dec_cache = self._dec_core.cache
        window = self._enc_core.scheme.window
        enc_pointer = enc_cache.table.pointers[fingerprint]
        dec_pointer = dec_cache.table.pointers[fingerprint]
        enc_offset = enc_pointer & OFFSET_MASK
        dec_offset = dec_pointer & OFFSET_MASK
        enc_window = enc_cache.store.peek(enc_pointer >> OFFSET_BITS)[
            enc_offset:enc_offset + window]
        dec_window = dec_cache.store.peek(dec_pointer >> OFFSET_BITS)[
            dec_offset:dec_offset + window]
        self.fail(
            "cache_coherence",
            f"fingerprint {fingerprint:#x} resolves to different bytes on "
            f"the two sides (epoch {enc_cache.epoch}): the decoder cache "
            f"is poisoned — any region sourcing it would reconstruct "
            f"wrong bytes",
            fingerprint=fingerprint,
            epoch=enc_cache.epoch,
            encoder_offset=enc_offset,
            decoder_offset=dec_offset,
            encoder_window=enc_window.hex(),
            decoder_window=dec_window.hex())

    def finalize(self, outcomes=()) -> None:
        """End-of-run checks over every fetch's outcome (the runner
        calls this after ``sim.run``).

        A stall is a *performance* outcome, not an integrity violation —
        the §IV livelock is caught earlier, at the region that creates
        the circular dependency.  Here we assert only that whatever was
        delivered was correct, check the caches' invariants once more
        and take one last coherence look if the run ended quiescent.
        """
        for outcome in outcomes:
            if outcome.content_ok is False:
                self.fail("byte_integrity",
                          "delivered object differs from the source object",
                          name=outcome.name,
                          bytes_received=outcome.bytes_received,
                          expected_size=outcome.expected_size)
        self.check_invariants()
        self.check_coherence()

    # -- violation plumbing -----------------------------------------------

    def fail(self, oracle: str, message: str, **context: Any) -> None:
        """Record and raise one violation (never returns)."""
        self.violations += 1
        context.setdefault("sim_time",
                           self.sim.now if self.sim is not None else None)
        context.setdefault("undecodable_seen", self.undecodable_seen)
        context.setdefault("stale_seen", self.stale_seen)
        if self.spans is not None:
            trace_id, span_id = self.spans.current_ids()
            context.setdefault("trace_id", trace_id)
            context.setdefault("span_id", span_id)
        self._note("violation", oracle=oracle, message=message)
        dump = self.recorder.dump(64) if self.recorder is not None else []
        raise InvariantViolation(oracle, message, context=context,
                                 flight_recorder=dump)

    def _note(self, event: str, **detail: Any) -> None:
        if self.recorder is not None:
            now = self.sim.now if self.sim is not None else 0.0
            self.recorder.record(now, "verify", event, detail)

    # -- internal ----------------------------------------------------------

    def _tick(self) -> None:
        self.check_invariants()
        self.check_coherence()
        self.sim.after(COHERENCE_INTERVAL, self._tick)


def _index_pointers(enc_index: Dict[int, int], dec_index: Dict[int, int]
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every fingerprint the encoder indexes, with both sides' pointers
    (-1: not indexed), in index order and :data:`_FULL_PASS_BATCH` at a
    time, so a full pass holds no whole-table array."""
    keys = iter(enc_index)
    values = iter(enc_index.values())
    while True:
        fps = list(islice(keys, _FULL_PASS_BATCH))
        if not fps:
            return
        n = len(fps)
        yield (np.fromiter(fps, np.uint64, n),
               np.fromiter(islice(values, n), np.int64, n),
               np.fromiter(map(dec_index.get, fps, repeat(-1)), np.int64, n))


def _new_pointers(enc_rows: Tuple[np.ndarray, np.ndarray],
                  dec_rows: Tuple[np.ndarray, np.ndarray],
                  enc_index: Dict[int, int], dec_index: Dict[int, int]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fingerprints of either side's new log rows, with both sides'
    pointers (-1: not indexed).

    A side's pointer for a fingerprint it has new rows for is its
    newest row's: only an insert writes a pointer, and the index drops
    one only once its packet has left the store, which the payload
    read then finds absent, as the index lookup would.  Only the
    fingerprints new on the other side alone are looked up.
    """
    fps, enc = _newest(*enc_rows)
    dec_fps, dec_ptrs = _newest(*dec_rows)
    at = fps.searchsorted(dec_fps)
    common = at < len(fps)
    common[common] = fps[at[common]] == dec_fps[common]
    dec = np.empty(len(fps), np.int64)
    looked_up = np.ones(len(fps), bool)
    looked_up[at[common]] = False
    dec[at[common]] = dec_ptrs[common]
    dec[looked_up] = _lookup(dec_index, fps[looked_up])
    only = ~common
    return (np.concatenate((fps, dec_fps[only])),
            np.concatenate((enc, _lookup(enc_index, dec_fps[only]))),
            np.concatenate((dec, dec_ptrs[only])))


def _newest(fps: np.ndarray, pointers: np.ndarray
            ) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct fingerprints of some log rows, sorted, and the
    pointer of each one's newest (highest) row."""
    order = fps.argsort()
    ordered = fps[order]
    starts = _run_starts(ordered)
    if not len(starts):
        return ordered, pointers[:0]
    return ordered[starts], pointers[np.maximum.reduceat(order, starts)]


def _lookup(index: Dict[int, int], fps: np.ndarray) -> np.ndarray:
    """The pointers ``index`` holds for ``fps`` (-1: none)."""
    return np.fromiter(map(index.get, fps.tolist(), repeat(-1)), np.int64,
                       len(fps))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``ordered`` begins."""
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first.nonzero()[0]


def _mismatches(fps: np.ndarray, enc: np.ndarray, dec: np.ndarray,
                enc_peek: Callable[[int], Optional[bytes]],
                dec_peek: Callable[[int], Optional[bytes]],
                window: int) -> Set[int]:
    """The fingerprints whose windows differ on the two sides, given
    each one's encoder and decoder pointer (-1: not indexed).

    A fingerprint whose two pointers carry the same offset is settled
    by its packet pair: one ``bytes`` compare per (encoder store id,
    decoder store id) settles all of them when the payloads are equal.
    Every other fingerprint, and every pair whose payloads differ, gets
    its window compared.  A pointer or payload absent on either side is
    legal and skipped.
    """
    rows = ((enc >= 0) & (dec >= 0)).nonzero()[0]
    enc = enc[rows]
    dec = dec[rows]
    # Store ids fit 31 bits (a pointer is a non-negative int64), so a
    # pair of them packs into one int64 key.
    pairs = ((enc >> OFFSET_BITS) << OFFSET_BITS) | (dec >> OFFSET_BITS)
    aligned = ((enc ^ dec) & OFFSET_MASK) == 0
    distinct = np.sort(pairs[aligned])
    differing = []
    for pair in distinct[_run_starts(distinct)].tolist():
        enc_payload = enc_peek(pair >> OFFSET_BITS)
        dec_payload = dec_peek(pair & OFFSET_MASK)
        if (enc_payload is not None and dec_payload is not None
                and enc_payload != dec_payload):
            differing.append(pair)
    unsettled = ~aligned
    if differing:
        unsettled |= aligned & np.isin(pairs, differing)
    picked = unsettled.nonzero()[0]
    bad: Set[int] = set()
    for fp, enc_pointer, dec_pointer in zip(fps[rows[picked]].tolist(),
                                            enc[picked].tolist(),
                                            dec[picked].tolist()):
        enc_payload = enc_peek(enc_pointer >> OFFSET_BITS)
        if enc_payload is None:
            continue
        dec_payload = dec_peek(dec_pointer >> OFFSET_BITS)
        if dec_payload is None:
            continue
        enc_offset = enc_pointer & OFFSET_MASK
        dec_offset = dec_pointer & OFFSET_MASK
        if (enc_payload[enc_offset:enc_offset + window]
                != dec_payload[dec_offset:dec_offset + window]):
            bad.add(fp)
    return bad

"""Gateway failure & cache-divergence resilience.

The per-packet policies (§V) keep encoder and decoder caches consistent
against *packet-level* divergence — loss, corruption, re-ordering of
individual data packets.  Real middlebox deployments also lose
*cache-level* sync: a decoder gateway restarts with a cold cache,
control messages are themselves lost on the wireless segment, or
asymmetric eviction leaves the encoder referencing entries the decoder
no longer holds.  Each produces the same persistent-stall pathology the
paper documents (Fig. 4–6), except unrecoverable by any per-packet
policy.  This module adds the explicit recovery protocol between the
in-path boxes that TCP/NC and TCP-Forward argue is required to mask
wireless-segment failures from end-to-end TCP:

* **Epoch-stamped caches** — :class:`~repro.core.cache.ByteCache`
  carries a generation number; every encoded payload is stamped with
  the encoder's epoch (one shim byte of wire overhead).  A decoder that
  sees a foreign epoch on a region-bearing payload *drops and signals*
  instead of mis-decoding against the wrong cache generation.
* **Resync protocol** over ``PROTO_DRE_CONTROL`` — a decoder that
  detects divergence (epoch mismatch, or the undecodable-rate watchdog
  tripping) flushes its cache and sends ``cache_resync``; the encoder
  flushes, bumps its epoch, and acknowledges with the new epoch.  The
  request is retried with timeout + exponential backoff because control
  messages ride the same lossy links as data.
* **Graceful degradation** — the encoder heartbeats its peer; while the
  peer is unresponsive the encoder falls back to pass-through
  (unencoded) forwarding so TCP keeps flowing at zero compression
  rather than stalling, then flushes/bumps and re-enables encoding once
  the peer answers again.  A short post-flush *grace window* ships
  payloads raw (but shimmed and cached) so the first references after a
  resync land on entries the decoder provably holds.

Failure injection lives in :mod:`repro.sim.faults`
(``schedule_gateway_restart``, ``schedule_asymmetric_eviction``,
``match_control``); recovery metrics surface through
:class:`~repro.metrics.collectors.TransferResult`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .middlebox import DecoderGateway, EncoderGateway

CONTROL_KIND_HEARTBEAT = "heartbeat"
CONTROL_KIND_HEARTBEAT_ACK = "heartbeat_ack"
CONTROL_KIND_RESYNC = "cache_resync"
CONTROL_KIND_RESYNC_ACK = "cache_resync_ack"

#: Control kinds consumed by the resilience layer rather than the policy.
RESILIENCE_CONTROL_KINDS = frozenset({
    CONTROL_KIND_HEARTBEAT,
    CONTROL_KIND_HEARTBEAT_ACK,
    CONTROL_KIND_RESYNC,
    CONTROL_KIND_RESYNC_ACK,
})

#: Encoder data-path modes (see :meth:`EncoderResilience.encode_mode`).
MODE_ENCODE = "encode"        # normal operation
MODE_RAW = "raw"              # post-flush grace: shimmed raw, still cached
MODE_BYPASS = "bypass"        # degraded: untouched pass-through, no caching


@dataclass
class ResilienceConfig:
    """Tunables for the recovery protocol (times in simulated seconds)."""

    heartbeat_interval: float = 0.25
    #: No heartbeat ack for this long -> peer presumed down -> degraded.
    heartbeat_timeout: float = 0.75
    #: Retransmit an unanswered ``cache_resync`` after this long ...
    resync_timeout: float = 0.25
    #: ... growing by this factor per retry (control rides lossy links) ...
    resync_backoff: float = 2.0
    #: ... giving up (until the next divergence signal) after this many.
    resync_max_retries: int = 6
    #: Encoder ships raw-but-cached payloads this long after a flush so
    #: the first post-resync references are against entries the decoder
    #: has certainly seen.
    resync_grace: float = 0.1
    #: Sliding window of region-bearing decode outcomes ...
    watchdog_window: int = 16
    #: ... tripping a resync when this fraction of them were undecodable.
    watchdog_threshold: float = 0.5


@dataclass
class ResilienceStats:
    """Recovery accounting, one instance per gateway side."""

    # -- encoder side
    heartbeats_sent: int = 0
    heartbeat_acks_received: int = 0
    degraded: bool = False          # current heartbeat state
    degraded_entries: int = 0       # times pass-through mode was entered
    degraded_packets: int = 0       # data packets forwarded unencoded
    degraded_time: float = 0.0      # total seconds spent degraded
    grace_packets: int = 0          # data packets shipped raw post-flush
    resyncs_handled: int = 0        # flush+bump exchanges served

    # -- decoder side
    heartbeats_answered: int = 0
    resyncs_initiated: int = 0
    resyncs_completed: int = 0
    resync_retries: int = 0
    resync_failures: int = 0        # gave up after resync_max_retries
    resync_times: List[float] = field(default_factory=list)
    epoch_mismatch_dropped: int = 0
    desync_dropped: int = 0         # region packets dropped mid-resync
    watchdog_trips: int = 0

    @property
    def time_to_resync(self) -> Optional[float]:
        """Mean seconds from divergence detection to acknowledged resync."""
        if not self.resync_times:
            return None
        return sum(self.resync_times) / len(self.resync_times)


class EncoderResilience:
    """Encoder-side controller: heartbeats, degradation, resync serving."""

    def __init__(self, gateway: "EncoderGateway", config: ResilienceConfig):
        self.gateway = gateway
        self.config = config
        self.stats = ResilienceStats()
        self._degraded_since: Optional[float] = None
        self._last_ack_time = gateway.sim.now
        self._last_resync_id: Optional[object] = None
        self._grace_until = -1.0
        self._heartbeat_seq = 0
        #: Heartbeat clock-rate multiplier (1.0 = nominal).  A chaos
        #: campaign sets this >1 to model a slow/drifting middlebox
        #: clock: ticks stretch, acks thin out, and the encoder's own
        #: timeout check can false-trip into degraded mode.  See
        #: repro.sim.faults.schedule_clock_skew.
        self.clock_skew = 1.0
        #: (bytes_before, bytes_after) gateway snapshot at the moment of
        #: the last flush+bump — lets callers measure the post-resync
        #: compression ratio in isolation.
        self.resync_marker: Optional[tuple] = None
        gateway.sim.after(config.heartbeat_interval, self._heartbeat_tick)

    @property
    def epoch(self) -> int:
        return self.gateway.cache.epoch

    @property
    def degraded(self) -> bool:
        return self.stats.degraded

    def encode_mode(self) -> str:
        """How the gateway should treat the current data packet."""
        if self.stats.degraded:
            return MODE_BYPASS
        if self.gateway.sim.now < self._grace_until:
            return MODE_RAW
        return MODE_ENCODE

    def on_control(self, kind: str, payload: object) -> None:
        if kind == CONTROL_KIND_HEARTBEAT_ACK:
            self._last_ack_time = self.gateway.sim.now
            self.stats.heartbeat_acks_received += 1
            if self.stats.degraded:
                self._recover()
        elif kind == CONTROL_KIND_RESYNC:
            # Idempotent per request id: retries of an already-served
            # request must not flush (and bump) a second time, or the
            # ack the decoder is waiting for would carry a dead epoch.
            if payload != self._last_resync_id:
                self._last_resync_id = payload
                self._flush_and_bump()
                self.stats.resyncs_handled += 1
                spans = self.gateway.spans
                if spans is not None:
                    spans.event("resync_served", self.gateway.name,
                                payload, self.epoch)
            self.gateway.send_control(CONTROL_KIND_RESYNC_ACK,
                                      (payload, self.epoch))

    def on_restart(self) -> None:
        """Cold restart: epoch restarts at zero with an empty cache."""
        now = self.gateway.sim.now
        if self._degraded_since is not None:
            self.stats.degraded_time += now - self._degraded_since
            self._degraded_since = None
        self.stats.degraded = False
        self._last_ack_time = now
        self._last_resync_id = None
        self._grace_until = now + self.config.resync_grace

    # ------------------------------------------------------------------

    def _flush_and_bump(self) -> None:
        gateway = self.gateway
        gateway.cache.flush()
        gateway.cache.bump_epoch()
        self._grace_until = gateway.sim.now + self.config.resync_grace
        self.resync_marker = (gateway.stats.bytes_before,
                              gateway.stats.bytes_after)

    def _recover(self) -> None:
        """Peer answered again: flush, bump, and resume encoding.

        The decoder will observe the new epoch on the next region-bearing
        packet and run the resync handshake to adopt it; until then the
        grace window keeps encodings raw so nothing is lost to the race.
        """
        now = self.gateway.sim.now
        self.stats.degraded = False
        if self._degraded_since is not None:
            self.stats.degraded_time += now - self._degraded_since
            self._degraded_since = None
        self._flush_and_bump()
        self.gateway.tracer.emit(self.gateway.name, "degraded_recover",
                                 epoch=self.epoch)
        spans = self.gateway.spans
        if spans is not None:
            spans.event("degraded_recover", self.gateway.name, self.epoch)

    def _heartbeat_tick(self) -> None:
        gateway = self.gateway
        gateway.sim.after(self.config.heartbeat_interval * self.clock_skew,
                          self._heartbeat_tick)
        if gateway.down:
            return
        self._heartbeat_seq += 1
        self.stats.heartbeats_sent += 1
        gateway.send_control(CONTROL_KIND_HEARTBEAT, self._heartbeat_seq)
        if (not self.stats.degraded
                and gateway.sim.now - self._last_ack_time
                > self.config.heartbeat_timeout):
            self.stats.degraded = True
            self.stats.degraded_entries += 1
            self._degraded_since = gateway.sim.now
            gateway.tracer.emit(gateway.name, "degraded_enter",
                                last_ack_age=gateway.sim.now
                                - self._last_ack_time)
            spans = gateway.spans
            if spans is not None:
                spans.event("degraded_enter", gateway.name,
                            gateway.sim.now - self._last_ack_time)


class DecoderResilience:
    """Decoder-side controller: epoch gating, watchdog, resync client."""

    def __init__(self, gateway: "DecoderGateway", config: ResilienceConfig):
        self.gateway = gateway
        self.config = config
        self.stats = ResilienceStats()
        self.resyncing = False
        self._resync_id = 0
        self._resync_started = 0.0
        self._retry_event = None
        self._retry_delay = config.resync_timeout
        self._retries = 0
        self._window: deque = deque(maxlen=config.watchdog_window)
        #: Open span for the in-flight resync handshake (a multi-event
        #: control-plane unit: start -> retries -> ack / give-up).
        self._resync_span = None

    @property
    def epoch(self) -> int:
        return self.gateway.cache.epoch

    def on_control(self, kind: str, payload: object) -> None:
        if kind == CONTROL_KIND_HEARTBEAT:
            self.stats.heartbeats_answered += 1
            self.gateway.send_control(CONTROL_KIND_HEARTBEAT_ACK, payload)
        elif kind == CONTROL_KIND_RESYNC_ACK:
            resync_id, epoch = payload  # type: ignore[misc]
            if not self.resyncing or resync_id != self._resync_id:
                return  # stale ack from an abandoned attempt
            self.gateway.cache.epoch = epoch
            self.resyncing = False
            if self._retry_event is not None:
                self._retry_event.cancel()
                self._retry_event = None
            self.stats.resyncs_completed += 1
            self.stats.resync_times.append(
                self.gateway.sim.now - self._resync_started)
            self._window.clear()
            self.gateway.tracer.emit(
                self.gateway.name, "resync_complete", epoch=epoch,
                elapsed=self.gateway.sim.now - self._resync_started)
            spans = self.gateway.spans
            if spans is not None:
                spans.end(self._resync_span, "completed", epoch)
                self._resync_span = None

    def gate_encoded(self, wire_epoch: Optional[int]) -> bool:
        """Admission check for a *region-bearing* payload.

        Returns False when the packet must be dropped: decoding against
        a diverged cache generation would either fail or, worse,
        mis-decode.  Raw (shim-only) payloads are never gated — they
        carry no references and always forward.
        """
        if self.resyncing:
            self.stats.desync_dropped += 1
            return False
        if wire_epoch is not None and wire_epoch != self.epoch:
            self.stats.epoch_mismatch_dropped += 1
            self.start_resync()
            return False
        return True

    def record_outcome(self, ok: bool) -> None:
        """Feed the undecodable-rate watchdog one region-packet outcome.

        Catches divergence the epoch cannot see: a decoder that restarted
        into the *same* epoch number, or asymmetric eviction — the epoch
        matches but references keep missing.
        """
        if self.resyncing:
            return
        self._window.append(0 if ok else 1)
        config = self.config
        if (len(self._window) == config.watchdog_window
                and sum(self._window)
                >= config.watchdog_threshold * config.watchdog_window):
            self.stats.watchdog_trips += 1
            self.gateway.tracer.emit(
                self.gateway.name, "watchdog_trip",
                undecodable=sum(self._window),
                window=config.watchdog_window)
            spans = self.gateway.spans
            if spans is not None:
                spans.event("watchdog_trip", self.gateway.name,
                            sum(self._window), config.watchdog_window)
            self.start_resync()

    def start_resync(self) -> None:
        """Flush, then request a flush+bump from the encoder (retried)."""
        if self.resyncing:
            return
        self.resyncing = True
        self._resync_id += 1
        self._resync_started = self.gateway.sim.now
        self._retries = 0
        self._retry_delay = self.config.resync_timeout
        self.gateway.cache.flush()
        self._window.clear()
        self.stats.resyncs_initiated += 1
        self.gateway.tracer.emit(self.gateway.name, "resync_start",
                                 resync_id=self._resync_id)
        spans = self.gateway.spans
        if spans is not None:
            self._resync_span = spans.open("resync", self.gateway.name,
                                           self._resync_id)
        self._send_request()

    def on_restart(self) -> None:
        """Cold restart: forget any in-flight resync, epoch back to zero."""
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        self.resyncing = False
        self._window.clear()
        spans = self.gateway.spans
        if spans is not None and self._resync_span is not None:
            spans.end(self._resync_span, "aborted_by_restart")
            self._resync_span = None

    # ------------------------------------------------------------------

    def _send_request(self) -> None:
        self.gateway.send_control(CONTROL_KIND_RESYNC, self._resync_id)
        self._retry_event = self.gateway.sim.after(self._retry_delay,
                                                   self._retry)

    def _retry(self) -> None:
        self._retry_event = None
        if not self.resyncing:
            return
        if self._retries >= self.config.resync_max_retries:
            # Give up for now; the next epoch mismatch or watchdog trip
            # starts a fresh attempt (with a fresh id).
            self.resyncing = False
            self.stats.resync_failures += 1
            self.gateway.tracer.emit(self.gateway.name, "resync_give_up",
                                     resync_id=self._resync_id,
                                     retries=self._retries)
            spans = self.gateway.spans
            if spans is not None:
                spans.end(self._resync_span, "gave_up", None,
                          self._retries)
                self._resync_span = None
            return
        self._retries += 1
        self.stats.resync_retries += 1
        self._retry_delay *= self.config.resync_backoff
        spans = self.gateway.spans
        if spans is not None:
            spans.child_event(self._resync_span, "resync_retry",
                              self.gateway.name, self._retries,
                              self._retry_delay)
        self._send_request()

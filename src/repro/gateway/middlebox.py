"""Byte-caching gateways (the appliances of Fig. 1 / Fig. 3).

Two on-path middleboxes bracket the resource-constrained segment:

* :class:`EncoderGateway` intercepts data-bearing IP packets flowing in
  the configured direction, runs the policy-parameterised encoder over
  the transport payload, and forwards the (possibly much smaller)
  packet.  It also shows the reverse packet stream to its policy (the
  ACK-gated extension listens there) and consumes control messages from
  the peer gateway.
* :class:`DecoderGateway` reconstructs the original payload, caches it,
  and forwards.  Undecodable packets are dropped (§IV-A t3) — the
  source of the *perceived* packet loss studied in §VII.

The gateways operate at the IP layer (§II-B): the TCP connection stays
end-to-end and endpoints never learn the gateways exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core.cache import ByteCache
from ..core.decoder import ByteCachingDecoder, DecodeStatus
from ..core.encoder import ByteCachingEncoder
from ..core.fingerprint import FingerprintScheme
from ..core.policies.base import (DecoderPolicy, EncoderPolicy, PacketMeta,
                                  PolicyServices)
from ..core.wire import (EPOCH_STAMP_SIZE, SHIM_SIZE, WireFormatError,
                         parse_payload)
from ..net.packet import (ControlMessage, IPPacket, PROTO_DRE_CONTROL,
                          PROTO_TCP, PROTO_UDP)
from ..sim.engine import Simulator
from ..sim.node import Middlebox
from .resilience import (MODE_BYPASS, MODE_RAW, RESILIENCE_CONTROL_KINDS,
                         DecoderResilience, EncoderResilience,
                         ResilienceConfig)


def _default_forward_pred(data_dst: Optional[str]) -> Callable[[IPPacket], bool]:
    """Forward direction = data packets heading to ``data_dst`` (if set)."""
    def pred(pkt: IPPacket) -> bool:
        if data_dst is not None and pkt.dst != data_dst:
            return False
        return pkt.proto in (PROTO_TCP, PROTO_UDP)
    return pred


def _payload_of(pkt: IPPacket):
    """Transport payload object carrying ``.data`` or None."""
    if pkt.proto in (PROTO_TCP, PROTO_UDP):
        return pkt.payload
    return None


def _flow_of(pkt: IPPacket) -> tuple:
    payload = pkt.payload
    return (pkt.src, payload.src_port, pkt.dst, payload.dst_port)


@dataclass
class GatewayStats:
    """Wire-level accounting at a gateway."""

    data_packets: int = 0
    encoded_packets: int = 0
    passthrough_packets: int = 0
    bytes_before: int = 0          # wire size entering the gateway
    bytes_after: int = 0           # wire size leaving it
    control_messages_sent: int = 0
    control_bytes_sent: int = 0
    control_messages_received: int = 0
    control_bytes_received: int = 0
    decoded_ok: int = 0
    undecodable_dropped: int = 0
    checksum_dropped: int = 0
    malformed_dropped: int = 0
    desync_dropped: int = 0        # epoch mismatch / mid-resync drops
    dropped_while_down: int = 0    # packets offered during a crash window
    buffered: int = 0
    reinjected: int = 0

    @property
    def dropped_total(self) -> int:
        return (self.undecodable_dropped + self.checksum_dropped
                + self.malformed_dropped + self.desync_dropped)


class _GatewayBase(Middlebox):
    """Shared plumbing: addressing, control channel, direction filter."""

    def __init__(self, sim: Simulator, name: str, address: str,
                 scheme: FingerprintScheme, cache: ByteCache,
                 data_dst: Optional[str] = None,
                 forward_pred: Optional[Callable[[IPPacket], bool]] = None):
        super().__init__(sim, name)
        self.address = address
        self.scheme = scheme
        self.cache = cache
        self.peer_address: Optional[str] = None
        self.forward_pred = (forward_pred if forward_pred is not None
                             else _default_forward_pred(data_dst))
        self.stats = GatewayStats()
        #: True while the gateway is crashed: every offered packet is
        #: dropped (see repro.sim.faults.schedule_gateway_restart).
        self.down = False
        #: Set by subclasses when a ResilienceConfig is supplied.
        self.resilience = None
        #: Duck-typed repro.metrics.spans.SpanRecorder (PR 3 contract:
        #: disabled path is one attribute load + `is not None`).
        self.spans = None

    def set_peer(self, peer_address: str) -> None:
        """Address of the other gateway (for control messages)."""
        self.peer_address = peer_address

    def fail(self) -> None:
        """Crash the gateway: drop everything until :meth:`restart`."""
        self.down = True

    def restart(self) -> None:
        """Come back up with a cold cache (and epoch reset to zero)."""
        self.down = False
        self.cache.flush()
        self.cache.epoch = 0
        if self.resilience is not None:
            self.resilience.on_restart()

    def handle(self, pkt: IPPacket) -> None:
        if self.down:
            self.stats.dropped_while_down += 1
            self.note("drop_gateway_down", packet_id=pkt.packet_id)
            spans = self.spans
            if spans is not None:
                spans.packet_event("drop_gateway_down", self.name,
                                   pkt.packet_id)
            return
        super().handle(pkt)

    def _handle_control(self, pkt: IPPacket) -> Optional[IPPacket]:
        """Consume a control packet addressed to us; forward otherwise."""
        if pkt.dst != self.address:
            return pkt
        message: ControlMessage = pkt.payload  # type: ignore[assignment]
        self.stats.control_messages_received += 1
        self.stats.control_bytes_received += pkt.wire_size
        if (self.resilience is not None
                and message.kind in RESILIENCE_CONTROL_KINDS):
            self.resilience.on_control(message.kind, message.payload)
        else:
            self.policy.on_control(message.kind, message.payload, self.cache)
        return None

    def send_control(self, kind: str, payload: object) -> None:
        if self.peer_address is None:
            return
        message = ControlMessage(kind=kind, payload=payload)
        pkt = IPPacket(src=self.address, dst=self.peer_address,
                       proto=PROTO_DRE_CONTROL, payload=message,
                       created_at=self.sim.now)
        self.stats.control_messages_sent += 1
        self.stats.control_bytes_sent += pkt.wire_size
        self.forward(pkt)

    def _services(self) -> PolicyServices:
        return PolicyServices(send_control=self.send_control,
                              clock=lambda: self.sim.now)


class EncoderGateway(_GatewayBase):
    """The encoding appliance, deployed at the content side (Fig. 3)."""

    def __init__(self, sim: Simulator, name: str, address: str,
                 scheme: FingerprintScheme, cache: ByteCache,
                 policy: EncoderPolicy,
                 data_dst: Optional[str] = None,
                 forward_pred: Optional[Callable[[IPPacket], bool]] = None,
                 resilience: Optional[ResilienceConfig] = None):
        super().__init__(sim, name, address, scheme, cache,
                         data_dst, forward_pred)
        self.policy = policy
        policy.attach_services(self._services())
        # Savings accounting nets out the per-packet wire overhead: the
        # 2-byte shim, plus the epoch stamp when resilience is armed.
        shim_overhead = SHIM_SIZE + (EPOCH_STAMP_SIZE
                                     if resilience is not None else 0)
        self.encoder = ByteCachingEncoder(scheme, cache, policy,
                                          shim_overhead=shim_overhead)
        if resilience is not None:
            self.resilience = EncoderResilience(self, resilience)
        self._data_counter = 0

    def process(self, pkt: IPPacket) -> Optional[IPPacket]:
        if pkt.proto == PROTO_DRE_CONTROL:
            return self._handle_control(pkt)

        payload = _payload_of(pkt)
        if payload is None:
            return pkt

        if not self.forward_pred(pkt):
            self.policy.on_reverse_packet(pkt, self.cache)
            return pkt

        if not payload.data:
            return pkt  # SYN / bare ACK / FIN: nothing to encode

        self.stats.data_packets += 1
        self.stats.bytes_before += pkt.wire_size
        mode = (self.resilience.encode_mode()
                if self.resilience is not None else None)
        if mode == MODE_BYPASS:
            # Peer unresponsive: forward untouched (no shim, no cache
            # update) so TCP keeps flowing at zero compression instead
            # of feeding packets to a gateway that cannot decode them.
            self.stats.passthrough_packets += 1
            self.resilience.stats.degraded_packets += 1
            self.stats.bytes_after += pkt.wire_size
            return pkt
        meta = PacketMeta(
            packet_id=pkt.packet_id,
            flow=_flow_of(pkt),
            tcp_seq=payload.seq if pkt.proto == PROTO_TCP else None,
            counter=self._data_counter,
        )
        self._data_counter += 1
        spans = self.spans
        span = None
        if spans is not None:
            # Roots this packet's trace (flow-sampled); the codec's
            # stage sub-spans attach underneath via the context stack.
            span = spans.packet_begin("encode", self.name, pkt.packet_id,
                                      meta.flow, meta.tcp_seq)
        try:
            result = self.encoder.encode(payload.data, meta,
                                         force_raw=(mode == MODE_RAW))
        except BaseException:
            # An armed oracle or a policy error must not leave a dead
            # span as the context of everything recorded afterwards.
            if spans is not None:
                spans.end(span)
            raise
        if mode == MODE_RAW:
            self.resilience.stats.grace_packets += 1
        payload.data = result.data
        payload.dre_encoded = True
        tag = self.policy.wire_tag(meta)
        if tag is not None and hasattr(payload, "options_size"):
            # The tag rides in the shim; charge 4 bytes of wire overhead.
            payload.dre_wire_tag = tag
            payload.options_size += 4
        if self.resilience is not None:
            # The epoch rides in the shim; charge its wire overhead.
            payload.dre_epoch = self.cache.epoch
            if hasattr(payload, "options_size"):
                payload.options_size += EPOCH_STAMP_SIZE
        if result.encoded:
            self.stats.encoded_packets += 1
            if self.recorder is not None:
                # Guarded so the disabled path skips the sorted() copy.
                self.note("encode", packet_id=pkt.packet_id,
                          deps=sorted(result.dependencies),
                          saved=result.bytes_in - result.bytes_out)
            if spans is not None:
                # The paper's causal arrow: this packet now depends on
                # the traces of the cache entries it was encoded against
                # (the §VII dependency graph is rebuilt from these links:
                # metrics.depgraph.graph_from_spans).
                spans.link_deps(span, result.dependencies)
        else:
            self.stats.passthrough_packets += 1
        if spans is not None:
            spans.end(span, result.encoded, result.bytes_in,
                      result.bytes_out)
        self.stats.bytes_after += pkt.wire_size
        return pkt


class DecoderGateway(_GatewayBase):
    """The decoding appliance, deployed at the client side (Fig. 3)."""

    def __init__(self, sim: Simulator, name: str, address: str,
                 scheme: FingerprintScheme, cache: ByteCache,
                 policy: Optional[DecoderPolicy] = None,
                 data_dst: Optional[str] = None,
                 forward_pred: Optional[Callable[[IPPacket], bool]] = None,
                 resilience: Optional[ResilienceConfig] = None):
        super().__init__(sim, name, address, scheme, cache,
                         data_dst, forward_pred)
        self.policy = policy if policy is not None else DecoderPolicy()
        self.policy.attach_services(self._services())
        if resilience is not None:
            self.resilience = DecoderResilience(self, resilience)
        # The NACK policy re-injects buffered packets once repaired.
        if hasattr(self.policy, "retry") and getattr(self.policy, "retry") is None:
            self.policy.retry = self.reinject  # type: ignore[attr-defined]
        self.decoder = ByteCachingDecoder(scheme, cache, self.policy)
        self._data_counter = 0

    def process(self, pkt: IPPacket) -> Optional[IPPacket]:
        if pkt.proto == PROTO_DRE_CONTROL:
            return self._handle_control(pkt)

        payload = _payload_of(pkt)
        if payload is None:
            return pkt
        if not self.forward_pred(pkt):
            # Reverse direction: show ACKs to the policy (the ACK-gated
            # mirror commits its deferred cache updates here).
            self.policy.on_reverse_packet(pkt, self.cache)
            return pkt
        if not payload.dre_encoded:
            return pkt

        self.stats.data_packets += 1
        self.stats.bytes_before += pkt.wire_size
        outcome = self._decode_in_place(pkt)
        if outcome is None:
            return None
        self.stats.bytes_after += outcome.wire_size
        return outcome

    def reinject(self, pkt: IPPacket) -> None:
        """Re-process a packet the policy buffered (NACK repairs)."""
        self.stats.reinjected += 1
        outcome = self._decode_in_place(pkt)
        if outcome is not None:
            self.stats.bytes_after += outcome.wire_size
            self.forward(outcome)

    # ------------------------------------------------------------------

    def _decode_in_place(self, pkt: IPPacket) -> Optional[IPPacket]:
        payload = pkt.payload
        meta = PacketMeta(
            packet_id=pkt.packet_id,
            flow=_flow_of(pkt),
            tcp_seq=payload.seq if pkt.proto == PROTO_TCP else None,
            counter=self._data_counter,
        )
        self._data_counter += 1
        spans = self.spans
        span = None
        if spans is not None:
            # Continues the trace rooted at the encoder gateway (the
            # packet id resolves it across the link hop).
            span = spans.packet_begin("decode", self.name, pkt.packet_id,
                                      meta.flow, meta.tcp_seq)
        # What the span closes with, set on the way to each return; an
        # exception (an armed oracle, a policy error) closes it bare.
        status = missing = None
        try:
            carries_regions = False
            if self.resilience is not None:
                try:
                    carries_regions = not isinstance(
                        parse_payload(payload.data), bytes)
                except WireFormatError:
                    pass  # fall through; the decoder counts it as malformed
                if carries_regions and not self.resilience.gate_encoded(
                        getattr(payload, "dre_epoch", None)):
                    # Foreign cache generation (or mid-resync): the
                    # references cannot be trusted, drop and let TCP
                    # retransmit into the resynced cache.
                    self.stats.desync_dropped += 1
                    self.note("drop_desync", packet_id=pkt.packet_id)
                    status = "desync_drop"
                    return None
            tag = getattr(payload, "dre_wire_tag", None)
            if tag is not None:
                self.policy.on_wire_tag(tag, meta, self.cache)
            result = self.decoder.decode(payload.data, meta,
                                         checksum=payload.checksum, pkt=pkt)
            if self.resilience is not None and carries_regions:
                self.resilience.record_outcome(
                    result.ok or result.status is DecodeStatus.BUFFERED)
            if result.ok:
                payload.data = result.payload
                payload.dre_encoded = False
                self.stats.decoded_ok += 1
                status = "ok"
                return pkt
            # Failure paths only from here; one flag decides whether
            # they build event records (kwargs dict, len() of missing).
            recording = self.recorder is not None
            if result.status is DecodeStatus.BUFFERED:
                self.stats.buffered += 1
                if recording:
                    self.note("buffer", packet_id=pkt.packet_id,
                              missing=len(result.missing))
                status = "buffered"
                missing = result.missing
            elif result.status is DecodeStatus.MISSING:
                self.stats.undecodable_dropped += 1
                if recording:
                    self.note("drop_undecodable", packet_id=pkt.packet_id,
                              missing=len(result.missing))
                status = "missing"
                missing = result.missing
            elif result.status is DecodeStatus.CHECKSUM_MISMATCH:
                self.stats.checksum_dropped += 1
                if recording:
                    self.note("drop_checksum", packet_id=pkt.packet_id)
                status = "checksum_mismatch"
            else:
                self.stats.malformed_dropped += 1
                if recording:
                    self.note("drop_malformed", packet_id=pkt.packet_id)
                status = "malformed"
            return None
        finally:
            if spans is not None:
                spans.end(span, status,
                          None if missing is None else len(missing))

"""One size per packet: what a link is offered is what the packet weighs.

``IPPacket`` reads ``wire_size`` from its payload once, at construction.
Four places rewrite a payload in place afterwards -- the encoder
gateway (``data``, plus ``options_size`` for a wire tag or an epoch
stamp), the decoder gateway on a successful decode, ``FaultInjector``
corruption and ``Link`` corruption -- and each re-reads the size with
``IPPacket.reread_size``.

Each transfer below runs with every rewrite armed.  ``Link.send`` is
wrapped to check each offered packet twice: its stored size must equal
``IP_HEADER_SIZE + payload.size``, and its payload must not have been
rewritten since the last re-read.  The second check is what catches a
site that drops its re-read without changing a length (corruption flips
bytes in place), so it sees the ``data`` / ``options_size`` slots of
``TCPSegment`` through a property for the length of the test.
"""

import sys

import pytest

from repro import ExperimentConfig, corpus_object
from repro.experiments import runner
from repro.gateway.middlebox import DecoderGateway, EncoderGateway
from repro.net.packet import IP_HEADER_SIZE, IPPacket, TCPSegment
from repro.sim.faults import FaultInjector
from repro.sim.link import Link

#: Every place that rewrites a payload in place, as the re-read's caller.
FAULT_SITES = {FaultInjector._send.__code__, Link._corrupt.__code__}
REWRITE_SITES = FAULT_SITES | {EncoderGateway.process.__code__,
                               DecoderGateway.process.__code__}

POLICIES = [None, "cache_flush", "tcp_seq", "k_distance", "ack_gated"]


class SizeWatch:
    """Marks payloads rewritten in place; checks every offered packet."""

    def __init__(self, monkeypatch):
        self.rewritten = set()      # ids of payloads not re-read since
        self.sites = set()          # callers of reread_size (code objects)
        self.offered = 0
        self.tagged = 0             # offered packets with a policy wire tag
        self.stamped = 0            # ... with a resilience epoch stamp
        for name in ("data", "options_size"):
            self._watch(monkeypatch, name)
        reread, send = IPPacket.reread_size, Link.send

        def watched_reread(pkt):
            self.sites.add(sys._getframe(1).f_code)
            self.rewritten.discard(id(pkt.payload))
            reread(pkt)

        def checked_send(link, pkt):
            self.check(pkt)
            send(link, pkt)

        monkeypatch.setattr(IPPacket, "reread_size", watched_reread)
        monkeypatch.setattr(Link, "send", checked_send)

    def _watch(self, monkeypatch, name):
        slot = TCPSegment.__dict__[name]
        rewritten = self.rewritten

        def set_slot(segment, value):
            try:
                slot.__get__(segment)
            except AttributeError:
                pass                # first write: construction or a copy
            else:
                rewritten.add(id(segment))
            slot.__set__(segment, value)

        monkeypatch.setattr(TCPSegment, name, property(slot.__get__,
                                                       set_slot))

    def check(self, pkt):
        self.offered += 1
        payload = pkt.payload
        assert id(payload) not in self.rewritten, \
            f"packet {pkt.packet_id} offered after a rewrite, not re-read"
        assert pkt.wire_size == IP_HEADER_SIZE + payload.size, \
            f"packet {pkt.packet_id} carries a stale size"
        if getattr(payload, "dre_wire_tag", None) is not None:
            self.tagged += 1
        if getattr(payload, "dre_epoch", None) is not None:
            self.stamped += 1


def _transfer(policy):
    config = ExperimentConfig(
        corpus="file1", corpus_seed=0, file_size=120_000, policy=policy,
        loss_rate=0.02, corrupt_rate=0.05, reorder_rate=0.05, seed=3,
        resilience=policy is not None, tcp_min_rto=0.05, tcp_max_rto=0.5,
        time_limit=60.0)
    testbed = runner.build_testbed(config)
    injector = FaultInjector(testbed.bottleneck_forward)
    injector.duplicate_when(lambda pkt, index: index % 9 == 4)
    injector.corrupt_when(lambda pkt, index: index % 13 == 6)
    data = corpus_object(config.corpus, config.file_size, config.corpus_seed)
    runner.run_fetches(testbed, config, {runner.FILE_NAME: data},
                       [runner.Fetch()])
    return testbed, injector


@pytest.mark.parametrize("policy", POLICIES, ids=str)
def test_every_offered_packet_carries_its_current_size(policy, monkeypatch):
    watch = SizeWatch(monkeypatch)
    testbed, injector = _transfer(policy)
    forward = testbed.bottleneck_forward.stats
    assert watch.offered > 2 * forward.packets_offered > 0
    assert not watch.rewritten
    # Every rewrite armed was exercised, so every re-read was checked.
    assert injector.log.duplicated and injector.log.corrupted
    assert forward.packets_corrupted > 0
    if policy is None:
        assert watch.sites == FAULT_SITES
    else:
        assert watch.sites == REWRITE_SITES
        assert testbed.gateways.decoder.stats.decoded_ok > 0
        assert watch.stamped > 0
    assert (watch.tagged > 0) == (policy == "ack_gated")

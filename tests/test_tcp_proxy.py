"""Direct unit tests for the split-TCP proxy gateways (§II-A)."""

import random

import pytest

from repro.gateway.tcp_proxy import (TcpProxyGateway, _StreamCodec,
                                     create_proxy_pair)
from repro.core.fingerprint import FingerprintScheme
from repro.experiments.runner import LinkSpec, build_path
from repro.net.tcp import TCPConfig, TCPStack
from repro.sim import Host, Simulator
from repro.sim.rng import RngRegistry


def build_proxy_path(policy="tcp_seq", loss=0.0, seed=7):
    """client — G1 — bottleneck — G2 — server, proxy mode."""
    sim = Simulator()
    client = Host(sim, "client", "10.0.1.1")
    server = Host(sim, "server", "10.0.2.1")
    tcp_config = TCPConfig()
    client_stack = TCPStack(sim, client, tcp_config)
    server_stack = TCPStack(sim, server, tcp_config)
    g1, g2 = create_proxy_pair(sim, "10.0.1.1", "10.0.2.1", policy=policy,
                               tcp_config=tcp_config)
    path = build_path(sim, RngRegistry(seed), server, [
        (LinkSpec(1e9, 0.0005, "lan-server", ("lan_s_fwd", "lan_s_rev")), g2),
        (LinkSpec(1e6, 0.0025, "bottleneck", ("bott_fwd", "bott_rev"),
                  forward={"loss_rate": loss}), g1),
        (LinkSpec(1e9, 0.0005, "lan-client", ("lan_c_fwd", "lan_c_rev")),
         client),
    ], bottleneck=1)
    g1.connect_relay(g2.address)
    return sim, client_stack, server_stack, g1, g2, path.bottleneck_forward


def serve_and_fetch(sim, client_stack, server_stack, data, until=30.0):
    from repro.app.transfer import FileClient, FileServer

    FileServer(server_stack, {"thing": data})
    client = FileClient(client_stack, sim)
    outcome = client.fetch("10.0.2.1", "thing", expected_size=len(data),
                           expected_content=data,
                           on_done=lambda _o: sim.stop())
    sim.run(until=until)
    return outcome


class TestProxyTransfer:
    def test_transparent_transfer(self):
        sim, cs, ss, g1, g2, _ = build_proxy_path()
        rng = random.Random(0)
        data = rng.randbytes(100_000)
        outcome = serve_and_fetch(sim, cs, ss, data)
        assert outcome.completed
        assert outcome.content_ok is True

    def test_relay_compresses_redundancy(self):
        from repro.workload.corpus import corpus_object

        data = corpus_object("file1", size=80 * 1460, seed=3)
        sim, cs, ss, g1, g2, bott = build_proxy_path()
        outcome = serve_and_fetch(sim, cs, ss, data)
        assert outcome.completed
        assert bott.stats.bytes_offered < 0.8 * len(data)

    def test_loss_handled_by_relay_tcp(self):
        """Byte caching over TCP: packet loss cannot desynchronise the
        caches (§II's premise for the transport-layer mode)."""
        from repro.workload.corpus import corpus_object

        data = corpus_object("file1", size=60 * 1460, seed=3)
        sim, cs, ss, g1, g2, _ = build_proxy_path(loss=0.05)
        outcome = serve_and_fetch(sim, cs, ss, data, until=120.0)
        assert outcome.completed
        assert outcome.content_ok is True
        assert g1.undecodable_records == 0

    def test_server_sees_clients_address_and_port(self):
        sim, cs, ss, g1, g2, _ = build_proxy_path()
        rng = random.Random(1)
        outcome = serve_and_fetch(sim, cs, ss, rng.randbytes(5000))
        assert outcome.completed
        server_conns = ss.connections()
        assert len(server_conns) == 1
        assert server_conns[0].remote_addr == "10.0.1.1"
        # Transparent port spoofing: the upstream connection reuses the
        # client's ephemeral port.
        client_conns = cs.connections()
        assert server_conns[0].remote_port == client_conns[0].local_port

    def test_multiple_connections_multiplexed_on_one_relay(self):
        sim, cs, ss, g1, g2, _ = build_proxy_path()
        from repro.app.transfer import FileClient, FileServer

        rng = random.Random(2)
        files = {f"f{i}": rng.randbytes(20_000) for i in range(3)}
        FileServer(ss, files)
        client = FileClient(cs, sim)
        done = []
        for name, blob in files.items():
            client.fetch("10.0.2.1", name, expected_size=len(blob),
                         expected_content=blob, on_done=done.append)
        sim.run(until=30)
        assert len(done) == 3
        assert all(outcome.content_ok for outcome in done)

    def test_bad_role_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TcpProxyGateway(sim, "x", "sideways", "10.9.9.9",
                            "10.0.1.1", "10.0.2.1")


class TestCodecPolicies:
    @pytest.mark.parametrize("policy", ["naive", "tcp_seq", "cache_flush"])
    def test_stream_codec_roundtrip_policies(self, policy):
        rng = random.Random(3)
        scheme = FingerprintScheme()
        sender = _StreamCodec(policy, scheme, 1 << 22)
        receiver = _StreamCodec(policy, scheme, 1 << 22)
        chunk = rng.randbytes(500)
        for index in range(8):
            record = chunk + rng.randbytes(400)
            blob = sender.encode_record(1, record)
            assert receiver.decode_record(1, blob) == record

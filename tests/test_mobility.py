"""Tests for the §II mobility experiment and the TCP-proxy gateways."""

import pytest

from repro.experiments.mobility import MobilityConfig, run_mobility
from repro.gateway.tcp_proxy import (_FrameReader, _StreamCodec, _frame,
                                     KIND_DATA_S2C, KIND_OPEN)
from repro.core.fingerprint import FingerprintScheme


def config(**kwargs) -> MobilityConfig:
    # The 120-segment file takes ~0.2 s; hand off in the middle.
    defaults = dict(file_size=120 * 1460, handoff_at=0.05, seed=11,
                    time_limit=60.0)
    defaults.update(kwargs)
    return MobilityConfig(**defaults)


class TestFrameProtocol:
    def test_roundtrip_single_frame(self):
        frames = []
        reader = _FrameReader(lambda *args: frames.append(args))
        reader.feed(_frame(KIND_OPEN, 7, b"\x00\x50\x00\x60"))
        assert frames == [(KIND_OPEN, 7, b"\x00\x50\x00\x60")]

    def test_fragmented_delivery(self):
        frames = []
        reader = _FrameReader(lambda *args: frames.append(args))
        wire = _frame(KIND_DATA_S2C, 1, b"hello") + _frame(KIND_DATA_S2C, 1, b"!")
        for i in range(len(wire)):
            reader.feed(wire[i:i + 1])
        assert frames == [(KIND_DATA_S2C, 1, b"hello"),
                          (KIND_DATA_S2C, 1, b"!")]

    def test_coalesced_delivery(self):
        frames = []
        reader = _FrameReader(lambda *args: frames.append(args))
        reader.feed(_frame(KIND_DATA_S2C, 1, b"a") * 3)
        assert len(frames) == 3


class TestStreamCodec:
    def test_records_roundtrip_and_compress(self):
        import random

        scheme = FingerprintScheme()
        g2 = _StreamCodec("tcp_seq", scheme, 1 << 22)
        g1 = _StreamCodec("tcp_seq", scheme, 1 << 22)
        rng = random.Random(3)
        chunk = rng.randbytes(700)
        sizes = []
        for index in range(10):
            record = chunk + rng.randbytes(700)
            blob = g2.encode_record(1, record)
            sizes.append(len(blob))
            assert g1.decode_record(1, blob) == record
        # Later records compress against the repeated chunk.
        assert sizes[-1] < sizes[0]


class TestMobility:
    def test_no_gateways_survives_handoff(self):
        result = run_mobility(config(mode="none"))
        assert result.completed
        assert result.outcome.content_ok is True
        assert result.bytes_path_b > 0      # traffic moved to path B

    def test_ip_dre_survives_handoff(self):
        """§II-B: IP-level byte caching is compatible with mobility."""
        result = run_mobility(config(mode="ip-dre"))
        assert result.completed
        assert result.outcome.content_ok is True
        assert result.bytes_path_a > 0
        assert result.bytes_path_b > 0

    def test_tcp_proxy_stalls_on_handoff(self):
        """§II-A: split-TCP byte caching breaks when the client moves."""
        result = run_mobility(config(mode="tcp-proxy"))
        assert not result.completed
        assert 0 < result.outcome.bytes_received < 120 * 1460

    def test_tcp_proxy_fine_without_handoff(self):
        result = run_mobility(config(mode="tcp-proxy", handoff_at=50.0))
        assert result.completed
        assert result.outcome.content_ok is True

    def test_tcp_proxy_compresses_on_path_a(self):
        dre = run_mobility(config(mode="tcp-proxy", handoff_at=50.0))
        raw = run_mobility(config(mode="none", handoff_at=50.0))
        assert dre.bytes_path_a < 0.8 * raw.bytes_path_a

    def test_ip_dre_robust_to_losses_around_handoff(self):
        result = run_mobility(config(mode="ip-dre", loss_rate_a=0.05,
                                     handoff_at=0.08))
        assert result.completed
        assert result.outcome.content_ok is True

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_mobility(config(mode="bogus"))


#: Exact digits of ``config(mode=...)``: (completed, bytes received,
#: bytes_path_a, bytes_path_b, sim_time).  A change to how the paths
#: are wired must not move any of them.
GOLDEN = {
    "none": (True, 175_200, 57_080, 150_040, 0.20435850200000016),
    "ip-dre": (True, 175_200, 47_761, 133_540, 0.18681550200000013),
    "tcp-proxy": (False, 52_560, 100_937, 0, 60.0),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_handoff_digits_match_golden(mode):
    result = run_mobility(config(mode=mode))
    assert (result.completed, result.outcome.bytes_received,
            result.bytes_path_a, result.bytes_path_b,
            result.sim_time) == GOLDEN[mode]

#!/usr/bin/env python3
"""Quickstart: byte caching an encoder/decoder pair, no network needed.

Demonstrates the core public API of :mod:`repro.core`:

* configure a fingerprint scheme (the paper's w=16, k=4);
* build an encoder and a decoder sharing that scheme;
* push packets through and watch redundancy being eliminated;
* see what a lost packet does (§IV in three paragraphs).

Run:  python examples/quickstart.py
"""

import random

from repro.core import (ByteCache, ByteCachingDecoder, ByteCachingEncoder,
                        FingerprintScheme)
from repro.core.policies import DecoderPolicy, NaivePolicy, PacketMeta
from repro.core.checksum import payload_checksum

FLOW = ("server", 80, "client", 5000)


def main() -> None:
    rng = random.Random(7)
    scheme = FingerprintScheme(window=16, zero_bits=4)  # §III-B parameters

    encoder = ByteCachingEncoder(scheme, ByteCache(), NaivePolicy())
    decoder = ByteCachingDecoder(scheme, ByteCache(), DecoderPolicy())

    def send(index: int, payload: bytes, lose: bool = False) -> None:
        """Encode a packet, optionally 'lose' it, decode at the far end."""
        meta = PacketMeta(packet_id=index, flow=FLOW,
                          tcp_seq=index * 1460, counter=index)
        result = encoder.encode(payload, meta)
        saved = result.bytes_in - result.bytes_out
        status = "lost in transit!" if lose else ""
        print(f"  pkt {index}: {result.bytes_in:5d} B -> "
              f"{result.bytes_out:5d} B on the wire "
              f"({max(0, saved):4d} B saved, "
              f"{len(result.regions)} region(s)) {status}")
        if lose:
            return
        decoded = decoder.decode(result.data, meta,
                                 checksum=payload_checksum(payload))
        if decoded.ok:
            assert decoded.payload == payload
        else:
            print(f"         decoder DROPPED pkt {index}: {decoded.status.value}"
                  f" (missing {len(decoded.missing)} fingerprint(s))")

    print("== 1. Fresh content passes through (nothing cached yet)")
    base = rng.randbytes(1460)
    send(0, base)

    print("\n== 2. Repeated content is eliminated")
    send(1, base)                                    # identical packet
    send(2, base[:700] + rng.randbytes(760))         # half overlap

    print("\n== 3. Packet loss desynchronises the caches (§IV)")
    fresh = rng.randbytes(1460)
    send(3, fresh, lose=True)      # carrier packet never reaches the decoder
    send(4, fresh)                 # encoded against pkt 3 -> undecodable

    print("\nEncoder stats:", encoder.stats)
    print("Decoder stats:", decoder.stats)
    print("\nThe paper's loss-robust policies (cache_flush / tcp_seq /"
          " k_distance)\nprevent step 3 from snowballing into a stalled"
          " connection — see\nexamples/wireless_download.py")


if __name__ == "__main__":
    main()

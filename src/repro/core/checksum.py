"""End-to-end payload checksums.

The real TCP checksum is what lets a receiver reject a segment whose
payload was corrupted on the wire *or* mis-reconstructed by a
desynchronised byte-caching decoder.  We model it with CRC32, which is
cheap and has a far lower undetected-error rate than the Internet
checksum — conservative in the right direction for this study (the
paper's decoder drops every packet it cannot faithfully reconstruct).

This lives in ``repro.core`` (not ``repro.net``) because the decoder's
§III-B acceptance test depends on it: the checksum is part of the
codec's correctness contract, while the network layer merely carries
it (``repro.net`` re-exports the two names for transport-side callers).
"""

from __future__ import annotations

import zlib


def payload_checksum(data: bytes) -> int:
    """Checksum of a transport payload as computed by the sender."""
    return zlib.crc32(data) & 0xFFFFFFFF


def verify_payload(data: bytes, checksum: int) -> bool:
    """True if ``data`` matches the sender's ``checksum``."""
    return payload_checksum(data) == checksum

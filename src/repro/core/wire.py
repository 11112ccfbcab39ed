"""Encoded-packet wire format.

§III-B: an encoding field consists of the Rabin fingerprint (8 bytes),
the offset in the new packet (2 bytes), the offset in the stored packet
(2 bytes) and the length of the repeated area (2 bytes) — 14 bytes, and
a region is only worth encoding when it is longer than 14 bytes.

Every payload leaving the encoder carries a 2-byte shim (magic + flags)
so the decoder can tell raw pass-through from encoded payloads.  An
encoded payload adds a 4-byte header (field count + original length)
followed by the field table and the literal (unmatched) bytes in order.

Layout::

    +------+-------+                         raw payload
    | 0xD5 | 0x00  |  payload bytes...
    +------+-------+

    +------+-------+---------+----------+
    | 0xD5 | 0x01  | nfields | orig_len |   encoded payload
    +------+-------+---------+----------+
    | nfields * (fp:8 off_new:2 off_stored:2 len:2) |
    +-----------------------------------------------+
    | literal bytes (gaps between regions, in order)|
    +-----------------------------------------------+
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, List, Optional, Tuple, Union

#: Region reads may be served zero-copy (see PacketStore.view); both
#: types support the len/slice operations :func:`reconstruct` performs.
ByteSource = Union[bytes, memoryview]

from .region import Region

MAGIC = 0xD5
FLAG_RAW = 0x00
FLAG_ENCODED = 0x01

SHIM_SIZE = 2
#: Extra shim byte carrying the cache epoch when the gateway resilience
#: layer is armed (see repro.gateway.resilience) — gateways charge it to
#: the packet's wire size, and savings accounting must net it out too.
EPOCH_STAMP_SIZE = 1
ENCODED_HEADER_SIZE = 6          # shim + nfields(2) + orig_len(2)
FIELD_SIZE = 14                  # fp(8) + off_new(2) + off_stored(2) + len(2)
MIN_REGION_LENGTH = FIELD_SIZE + 1   # §III-B line B.8: encode only if len > 14

_HEADER_FORMAT = ">BBHH"
_FIELD_FORMAT = "QHHH"
_HEADER_STRUCT = struct.Struct(_HEADER_FORMAT)
_FIELD_STRUCT = struct.Struct(">" + _FIELD_FORMAT)
#: Header + ``n`` fields packers, compiled once for the common counts; a
#: payload with more regions packs through ``struct``'s format cache.
_PACKERS = tuple(struct.Struct(_HEADER_FORMAT + _FIELD_FORMAT * n).pack
                 for n in range(17))
_RAW_SHIM = bytes((MAGIC, FLAG_RAW))
_OFFSET_NEW = itemgetter(1)      # Region.offset_new, read in C


class WireFormatError(Exception):
    """Encoded payload is malformed (truncated, bad magic, bad counts)."""


#: One parsed encoding field, ``(fingerprint, offset_new,
#: offset_stored, length)``: the tuple ``struct`` unpacks, which
#: compares equal to the :class:`Region` it was packed from.
Field = Tuple[int, int, int, int]


@dataclass
class EncodedPayload:
    """Parsed form of an encoded payload."""

    orig_len: int
    regions: List[Field]
    literals: bytes


def encode_payload(payload: bytes, regions: List[Region]) -> bytes:
    """Serialise ``payload`` with ``regions`` replaced by encoding fields.

    ``regions`` must be sorted by ``offset_new`` and non-overlapping.
    """
    if not regions:
        return _RAW_SHIM + payload
    if len(payload) > 0xFFFF:
        raise WireFormatError("payload too large for 2-byte offsets")
    payload_len = len(payload)
    nfields = len(regions)
    # A region is its encoding field in wire order, so the header and
    # every field go out in one pack call.
    fields = [MAGIC, FLAG_ENCODED, nfields, payload_len]
    literals = [b""]        # slot 0 takes the packed header + fields
    pos = 0
    for region in regions:
        _, offset_new, _, length = region
        if offset_new < pos:
            raise WireFormatError("overlapping or unsorted regions")
        end_new = offset_new + length
        if end_new > payload_len:
            raise WireFormatError("region exceeds payload")
        fields += region
        literals.append(payload[pos:offset_new])
        pos = end_new
    literals.append(payload[pos:])
    if nfields < len(_PACKERS):
        literals[0] = _PACKERS[nfields](*fields)
    else:
        literals[0] = struct.pack(_HEADER_FORMAT + _FIELD_FORMAT * nfields,
                                  *fields)
    return b"".join(literals)


def wrap_raw(payload: bytes) -> bytes:
    """Shim a payload that is sent without any encoding."""
    return _RAW_SHIM + payload


def parse_payload(data: bytes) -> "EncodedPayload | bytes":
    """Parse a shimmed payload.

    Returns raw payload ``bytes`` for pass-through packets, or an
    :class:`EncodedPayload` for encoded ones, whose regions are the
    wire-order :data:`Field` tuples as unpacked.  Raises
    :class:`WireFormatError` on malformed input (e.g. bit corruption
    that survived into the shim).
    """
    if len(data) < SHIM_SIZE:
        raise WireFormatError("payload shorter than shim")
    if data[0] != MAGIC:
        raise WireFormatError(f"bad magic byte: {data[0]:#x}")
    flags = data[1]
    if flags == FLAG_RAW:
        return data[SHIM_SIZE:]
    if flags != FLAG_ENCODED:
        raise WireFormatError(f"bad flags byte: {flags:#x}")
    if len(data) < ENCODED_HEADER_SIZE:
        raise WireFormatError("truncated encoded header")
    _, _, nfields, orig_len = _HEADER_STRUCT.unpack_from(data, 0)
    fields_end = ENCODED_HEADER_SIZE + nfields * FIELD_SIZE
    if len(data) < fields_end:
        raise WireFormatError("truncated field table")
    regions = list(_FIELD_STRUCT.iter_unpack(
        data[ENCODED_HEADER_SIZE:fields_end]))
    return EncodedPayload(orig_len, regions, data[fields_end:])


class MissingFingerprintError(Exception):
    """Decoder cache has no (live) entry for a referenced fingerprint."""

    def __init__(self, fingerprint: int) -> None:
        super().__init__(f"missing fingerprint {fingerprint:#018x}")
        self.fingerprint = fingerprint


def reconstruct(parsed: EncodedPayload,
                resolve: Callable[[int], Optional[ByteSource]]) -> bytes:
    """Rebuild the original payload from an :class:`EncodedPayload`.

    ``resolve`` maps a fingerprint to the cached payload it references
    (or ``None`` when the decoder's cache has no entry — the decoder
    counts that packet as undecodable, §IV-A step t3).  It may return a
    ``memoryview`` for zero-copy region reads; only ``len``, slicing
    and buffer concatenation are performed on the result.
    """
    out = bytearray()
    literals = parsed.literals
    n_literals = len(literals)
    lit_pos = 0
    pos = 0
    for fingerprint, offset_new, offset_stored, length in sorted(
            parsed.regions, key=_OFFSET_NEW):
        if offset_new < pos:
            raise WireFormatError("overlapping regions in encoded payload")
        gap = offset_new - pos
        if lit_pos + gap > n_literals:
            raise WireFormatError("literal underrun")
        out += literals[lit_pos: lit_pos + gap]
        lit_pos += gap
        source = resolve(fingerprint)
        if source is None:
            raise MissingFingerprintError(fingerprint)
        end_stored = offset_stored + length
        if end_stored > len(source):
            raise WireFormatError("region exceeds cached payload")
        out += source[offset_stored: end_stored]
        pos = offset_new + length
    out += literals[lit_pos:]
    if len(out) != parsed.orig_len:
        raise WireFormatError(
            f"reconstructed {len(out)} bytes, expected {parsed.orig_len}")
    return bytes(out)

"""Codec for the 12-byte frame-metadata option in the transport header.

The server stamps each outgoing frame with its identity, deadline and the
freshest RTT measurement; the bottleneck reads these to estimate queuing
delay bounds without any per-flow signaling channel.

Layout, big-endian:

    offset  size  field
    ------  ----  -----------------------------------------------
    0       1     kind, 0xFE (experimental option range)
    1       1     length, always 12
    2       1     flags: bit0 = vr_flag, remaining bits zero
    3       2     chunk index c
    5       1     tile index m
    6       1     GoP position k
    7       2     frame deadline, unsigned ms, saturating
    9       2     RTT value, unsigned ms, saturating
    11      1     RTT reference: frames backward from this frame
                  in send order (0 = no reference available)

Millisecond fields saturate at 0 and 65535 rather than wrapping. The
reference is a backward offset because one byte cannot address the 4-byte
frame-index space; within a flow the offset resolves uniquely.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

OPTION_KIND = 0xFE
OPTION_LEN = 12

_PACK = struct.Struct(">BBBHBBHHB")

# largest identity the option can carry: a 2-byte chunk, 1-byte tile and GoP position
MAX_CHUNK = 0xFFFF
MAX_TILE = 0xFF
MAX_GOP_POS = 0xFF
# largest deadline or RTT the option can carry; larger values saturate
MAX_MS = 0xFFFF


class WireError(ValueError):
    """Malformed option bytes or out-of-range field."""


class MetadataOption(NamedTuple):
    """Decoded option fields; a NamedTuple, since one is built per frame sent."""

    vr_flag: bool
    chunk: int
    tile: int
    gop_pos: int
    deadline_ms: int
    rtt_ms: int
    rtt_ref_offset: int


def saturate_ms(value: float) -> int:
    """Round half to even, then clamp into the unsigned 16-bit wire range; NaN and inf raise."""
    ms = round(value)
    return ms if 0 <= ms <= MAX_MS else (0 if ms < 0 else MAX_MS)


def encode(opt: MetadataOption) -> bytes:
    """Serialize an option to its 12-byte wire form.

    Millisecond fields are saturated; identity fields out of range raise,
    since clamping an index would silently mislabel the frame.
    """
    vr_flag, chunk, tile, gop_pos, deadline_ms, rtt_ms, ref = opt
    if not 0 <= chunk <= MAX_CHUNK:
        raise WireError(f"chunk index {chunk} outside 0..{MAX_CHUNK}")
    if not 0 <= tile <= MAX_TILE:
        raise WireError(f"tile index {tile} outside 0..{MAX_TILE}")
    if not 0 <= gop_pos <= MAX_GOP_POS:
        raise WireError(f"gop position {gop_pos} outside 0..{MAX_GOP_POS}")
    if not 0 <= ref <= 0xFF:
        raise WireError(f"rtt reference offset {ref} outside 0..255")
    return _PACK.pack(OPTION_KIND, OPTION_LEN, 1 if vr_flag else 0, chunk, tile, gop_pos,
                      saturate_ms(deadline_ms), saturate_ms(rtt_ms), ref)


def decode(buf: bytes) -> MetadataOption:
    """Parse the 12-byte wire form; inverse of :func:`encode` on its image."""
    if len(buf) < OPTION_LEN:
        raise WireError(f"option needs {OPTION_LEN} bytes, got {len(buf)}")
    kind, length, flags, chunk, tile, gop_pos, ddl, rtt, ref = _PACK.unpack_from(buf)
    if kind != OPTION_KIND:
        raise WireError(f"unexpected option kind 0x{kind:02X}")
    if length != OPTION_LEN:
        raise WireError(f"unexpected option length {length}")
    return MetadataOption(bool(flags & 1), chunk, tile, gop_pos, ddl, rtt, ref)

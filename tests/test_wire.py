import itertools

import pytest
from hypothesis import given, strategies as st

from vrsched.wire import OPTION_LEN, MetadataOption, WireError, decode, encode, saturate_ms

SPEC_EXAMPLE = MetadataOption(
    vr_flag=True, chunk=1, tile=1, gop_pos=1,
    deadline_ms=1000, rtt_ms=80, rtt_ref_offset=1,
)
SPEC_BYTES = bytes(
    [0xFE, 0x0C, 0x01, 0x00, 0x01, 0x01, 0x01, 0x03, 0xE8, 0x00, 0x50, 0x01]
)


def test_encode_spec_example():
    assert encode(SPEC_EXAMPLE) == SPEC_BYTES


def test_encode_zero_fields():
    opt = MetadataOption(False, 0, 0, 0, 0, 0, 0)
    assert encode(opt) == bytes([0xFE, 0x0C]) + bytes(10)


def test_deadline_saturates_high():
    opt = MetadataOption(True, 1, 1, 1, 70000, 80, 1)
    assert encode(opt)[7:9] == b"\xff\xff"


def test_deadline_saturates_low():
    opt = MetadataOption(True, 1, 1, 1, -5, 80, 1)
    assert encode(opt)[7:9] == b"\x00\x00"


def test_round_trip_spec_example():
    assert decode(encode(SPEC_EXAMPLE)) == SPEC_EXAMPLE


def test_decode_rejects_wrong_kind():
    buf = bytearray(SPEC_BYTES)
    buf[0] = 0x01
    with pytest.raises(WireError):
        decode(bytes(buf))


def test_decode_rejects_wrong_length():
    buf = bytearray(SPEC_BYTES)
    buf[1] = 0x0B
    with pytest.raises(WireError):
        decode(bytes(buf))


def test_decode_rejects_short_buffer():
    with pytest.raises(WireError):
        decode(SPEC_BYTES[:11])


@pytest.mark.parametrize(
    "field,value",
    [("chunk", 70000), ("chunk", -1), ("tile", 256), ("gop_pos", 256),
     ("rtt_ref_offset", 256), ("rtt_ref_offset", -1)],
)
def test_encode_rejects_out_of_range_identity(field, value):
    opt = MetadataOption(**{**SPEC_EXAMPLE._asdict(), field: value})
    with pytest.raises(WireError):
        encode(opt)


def test_saturate_ms():
    assert saturate_ms(-3.0) == 0
    assert saturate_ms(70000) == 65535
    assert saturate_ms(99.6) == 100


@pytest.mark.parametrize("value,expected", [
    (-0.4, 0), (-0.6, 0), (99.5, 100), (100.5, 100), (65535.4, 65535),
    (65535.5, 65535), (1e300, 65535), (-1e300, 0), (0, 0), (1234, 1234), (70000, 65535),
])
def test_saturate_ms_edges_round_half_to_even_then_clamp(value, expected):
    out = saturate_ms(value)
    assert out == expected
    assert type(out) is int


@pytest.mark.parametrize("value,error", [
    (float("nan"), ValueError), (float("inf"), OverflowError), (float("-inf"), OverflowError),
])
def test_saturate_ms_rejects_nonfinite(value, error):
    with pytest.raises(error):
        saturate_ms(value)


def test_boundary_sweep_round_trips():
    for flag, chunk, tile, gop, ddl, rtt, ref in itertools.product(
        (False, True), (0, 65535), (0, 255), (0, 255), (0, 65535), (0, 65535), (0, 255)
    ):
        opt = MetadataOption(flag, chunk, tile, gop, ddl, rtt, ref)
        buf = encode(opt)
        assert len(buf) == OPTION_LEN
        assert decode(buf) == opt


@given(
    flag=st.booleans(),
    chunk=st.integers(0, 65535),
    tile=st.integers(0, 255),
    gop=st.integers(0, 255),
    ddl=st.integers(0, 65535),
    rtt=st.integers(0, 65535),
    ref=st.integers(0, 255),
)
def test_round_trip_randomized(flag, chunk, tile, gop, ddl, rtt, ref):
    opt = MetadataOption(flag, chunk, tile, gop, ddl, rtt, ref)
    buf = encode(opt)
    assert len(buf) == OPTION_LEN
    assert decode(buf) == opt

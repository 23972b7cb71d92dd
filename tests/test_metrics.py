import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mclift.core import ConnectivityMap, DataFormatError, Frame
from mclift.metrics import (
    CODEC_ZIGZAG_PLANES_RLE,
    boundary_step_metric,
    decode_lossless,
    encode_lossless,
    psnr,
    raw_frame_bytes,
)

from conftest import corrupt, hostile_edits, make_frame


def test_psnr_identical_is_infinite(rng):
    f = make_frame(rng, 16, 16, 8)
    assert math.isinf(psnr(f, f))


def test_psnr_unit_error_8bit():
    a = Frame(np.full((8, 8), 100, dtype=np.int32), 8)
    b = Frame(np.full((8, 8), 101, dtype=np.int32), 8)
    assert psnr(a, b) == pytest.approx(10 * math.log10(255**2), abs=1e-9)
    assert psnr(a, b) == pytest.approx(48.1308, abs=1e-3)


def test_psnr_12bit_mse_four():
    a = Frame(np.full((4, 4), 2000, dtype=np.int32), 12)
    b = Frame(np.full((4, 4), 2002, dtype=np.int32), 12)
    assert psnr(a, b) == pytest.approx(10 * math.log10(4095**2 / 4), abs=1e-9)
    assert psnr(a, b) == pytest.approx(66.2245, abs=1e-3)


def test_psnr_symmetry_and_monotone_error(rng):
    a = make_frame(rng, 12, 12, 8)
    b = make_frame(rng, 12, 12, 8)
    assert psnr(a, b) == pytest.approx(psnr(b, a), abs=1e-12)
    worse = b.samples.copy()
    equal_positions = np.nonzero(a.samples == worse)
    if equal_positions[0].size:
        y, x = equal_positions[0][0], equal_positions[1][0]
        worse[y, x] += 1
        assert psnr(a, Frame(worse, 8)) < psnr(a, b)


def test_psnr_requires_matching_geometry(rng):
    with pytest.raises(ValueError):
        psnr(make_frame(rng, 4, 4, 8), make_frame(rng, 4, 5, 8))


def test_boundary_metric_no_holes_is_zero(rng):
    lp = make_frame(rng, 8, 8, 8)
    conn = ConnectivityMap(np.ones((8, 8), dtype=np.int32))
    assert boundary_step_metric(lp, conn) == 0.0


def test_boundary_metric_flat_lowpass_is_zero():
    lp = Frame(np.full((8, 8), 50, dtype=np.int32), 8)
    counts = np.ones((8, 8), dtype=np.int32)
    counts[2:5, 2:5] = 0
    assert boundary_step_metric(lp, ConnectivityMap(counts)) == 0.0


def test_boundary_metric_hand_case():
    # single hole pixel at (1,1) in a ramp: 4 neighbor pairs
    lp = Frame(np.arange(9, dtype=np.int32).reshape(3, 3) * 10, 8)
    counts = np.ones((3, 3), dtype=np.int32)
    counts[1, 1] = 0
    # neighbors: left/right (|40-30|, |50-40|), up/down (|40-10|, |70-40|)
    expected = (10 + 10 + 30 + 30) / 4
    assert boundary_step_metric(lp, ConnectivityMap(counts)) == pytest.approx(expected)


@pytest.mark.parametrize("bit_depth", [8, 12])
def test_codec_round_trip_random(bit_depth):
    rng = np.random.default_rng(17 + bit_depth)
    for _ in range(10):
        f = make_frame(rng, int(rng.integers(1, 40)), int(rng.integers(1, 40)), bit_depth)
        assert decode_lossless(encode_lossless(f)) == f


def test_codec_round_trip_subband_range(rng):
    hp = Frame(rng.integers(-4096, 4097, size=(20, 31), dtype=np.int32), 12)
    assert decode_lossless(encode_lossless(hp)) == hp


def test_codec_constant_frame_compresses_hard():
    f = Frame(np.full((256, 256), 123, dtype=np.int32), 8)
    payload = encode_lossless(f)
    assert len(payload) <= raw_frame_bytes(f) * 0.01
    assert decode_lossless(payload) == f


def test_codec_is_deterministic(rng):
    f = make_frame(rng, 33, 21, 8)
    g = Frame(f.samples.copy(), 8)
    assert encode_lossless(f) == encode_lossless(g)


def test_codec_rejects_extra_bytes_and_overlong_streams():
    f = Frame(np.zeros((2, 2), dtype=np.int32), 8)
    payload = encode_lossless(f)
    with pytest.raises(DataFormatError, match="extra bytes"):
        decode_lossless(payload + b"garbage")
    header = struct.pack("<BBHHB", CODEC_ZIGZAG_PLANES_RLE, 8, 2, 2, 2)
    with pytest.raises(DataFormatError, match="expected 8"):
        decode_lossless(header + zlib.compress(bytes(1 << 20)))


def test_codec_rejects_garbage():
    with pytest.raises(DataFormatError):
        decode_lossless(b"\x01\x08")
    with pytest.raises(DataFormatError):
        decode_lossless(b"\x07\x08\x02\x00\x02\x00\x02" + b"junkjunk")
    f = Frame(np.zeros((2, 2), dtype=np.int32), 8)
    payload = bytearray(encode_lossless(f))
    payload[-1] ^= 0xFF
    with pytest.raises(DataFormatError):
        decode_lossless(bytes(payload))
    # zero width or height, bit depth 0 or 17
    cases = [
        ((8, 0, 1, 2), "invalid dimensions"),
        ((8, 1, 0, 2), "invalid dimensions"),
        ((0, 1, 1, 2), "invalid bit depth"),
        ((17, 1, 1, 2), "invalid bit depth"),
    ]
    for fields, message in cases:
        header = struct.pack("<BBHHB", CODEC_ZIGZAG_PLANES_RLE, *fields)
        with pytest.raises(DataFormatError, match=message):
            decode_lossless(header + zlib.compress(bytes(2)))
    # codec 1 (plain residuals, deflate level 9) is no longer read
    header = struct.pack("<BBHHB", 1, 8, 1, 1, 2)
    with pytest.raises(DataFormatError, match="unknown codec id 1"):
        decode_lossless(header + zlib.compress(bytes(2), 9))


def test_codec_four_byte_residuals_round_trip():
    wide = np.zeros((6, 9), dtype=np.int32)
    wide[:, 1::2] = 40000
    frames = [
        # residuals that leave the int32 range and wrap mod 2**32
        [[-(2**31), 2**31 - 1, 0]],
        [[2**31 - 1, -(2**31), 2**31 - 1], [-(2**31), 0, -(2**31)]],
        # 16-bit steps of +-40000 leave the int16 range
        wide,
    ]
    for samples in frames:
        f = Frame(np.array(samples, dtype=np.int32), 16)
        payload = encode_lossless(f)
        assert payload[6] == 4
        assert decode_lossless(payload) == f


@settings(max_examples=30, deadline=None)
@given(
    hnp.arrays(
        np.int32,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.integers(-4096, 4096),
    )
)
def test_codec_round_trip_property(samples):
    f = Frame(samples, 12)
    assert decode_lossless(encode_lossless(f)) == f


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(
        np.int32,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.integers(-(2**31), 2**31 - 1),
    )
)
def test_codec_round_trip_property_full_int32_range(samples):
    f = Frame(samples, 16)
    assert decode_lossless(encode_lossless(f)) == f


# codec id, bit depth, width, height, sample width
PAYLOAD_FIELDS = [0, 1, 2, 4, 6]
SMALL_PAYLOAD = encode_lossless(
    Frame(np.arange(-30, 30, dtype=np.int32).reshape(6, 10), 12)
)
WIDE_PAYLOAD = encode_lossless(
    Frame((np.arange(60, dtype=np.int32).reshape(6, 10) % 3 - 1) * 40000, 16)
)
PAYLOADS = (SMALL_PAYLOAD, WIDE_PAYLOAD)


def test_codec_payloads_cover_both_sample_widths():
    assert [payload[6] for payload in PAYLOADS] == [2, 4]


def test_codec_parser_hostile_edits_raise_only_data_format_error():
    for payload in PAYLOADS:
        for hostile in hostile_edits(payload, PAYLOAD_FIELDS):
            try:
                decode_lossless(hostile)
            except DataFormatError:
                pass


@settings(max_examples=600, deadline=None)
@given(data=st.data())
def test_codec_parser_fuzz_raises_only_data_format_error(data):
    payload = data.draw(st.sampled_from(PAYLOADS))
    hostile = corrupt(data, payload, PAYLOAD_FIELDS)
    try:
        decode_lossless(hostile)
    except DataFormatError:
        pass

import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mclift import fixtures
from mclift.core import (
    DataFormatError,
    Frame,
    FseParams,
    LiftConfig,
    MotionField,
    Sequence,
    UpdateField,
    UpdateMode,
    VerificationError,
)
from mclift.lifting import (
    _CONTAINER_HEADER,
    SubbandPair,
    analyze_highpass,
    analyze_lowpass,
    analyze_pair,
    analyze_sequence,
    container_from_bytes,
    container_to_bytes,
    mc_predict,
    read_container,
    synthesize_pair,
    synthesize_sequence,
    write_container,
)
from mclift.metrics import boundary_step_metric, encode_lossless, psnr

from conftest import (
    corrupt,
    hostile_edits,
    iter_blocks,
    make_frame,
    make_pair,
    motion_field,
    overwrite,
)

FAST_FSE = FseParams(tile_size=8, border=8, max_iterations=40)


def fast_cfg(mode=UpdateMode.FSE_FILL, block_size=16, search_range=4):
    return LiftConfig(block_size, search_range, mode, FAST_FSE)


def zero_field(width, height, block_size):
    bx, by = -(-width // block_size), -(-height // block_size)
    return MotionField(block_size, np.zeros((by, bx, 2), dtype=np.int64))


def test_mc_predict_zero_motion_is_identity(rng):
    ref = make_frame(rng, 32, 24, 8)
    assert mc_predict(ref, zero_field(32, 24, 8)) == ref


def test_mc_predict_uniform_translation(rng):
    tex = rng.integers(0, 256, size=(40, 48), dtype=np.int32)
    ref = Frame(tex, 8)
    bx, by = 48 // 8, 40 // 8
    vectors = []
    for j in range(by):
        for i in range(bx):
            ok = i * 8 + 8 + 5 <= 48 and j * 8 + 8 + 2 <= 40
            vectors.append((5, 2) if ok else (0, 0))
    field = motion_field(8, bx, by, vectors)
    pred = mc_predict(ref, field)
    for j in range(by):
        for i in range(bx):
            if vectors[j * bx + i] == (5, 2):
                assert np.array_equal(
                    pred.samples[j * 8 : j * 8 + 8, i * 8 : i * 8 + 8],
                    tex[j * 8 + 2 : j * 8 + 10, i * 8 + 5 : i * 8 + 13],
                )


def test_mc_predict_adjacent_blocks_show_seam():
    base = (np.arange(17, dtype=np.int32) * 3)[None, :].repeat(4, axis=0)
    ref = Frame(base, 8)
    field = motion_field(8, 3, 1, [(0, 0), (1, 0), (0, 0)])
    pred = mc_predict(ref, field).samples
    assert np.array_equal(pred[:, :8], base[:, :8])
    assert np.array_equal(pred[:, 8:16], base[:, 9:17])
    # the boundary step doubles relative to the source discontinuity
    seam = pred[:, 8] - pred[:, 7]
    assert np.all(seam == base[:, 9] - base[:, 7])


def test_mc_predict_matches_gather_oracle():
    # every output pixel equals the reference at p + v(block of p), once each
    from test_imc import random_field

    for seed in range(5):
        local = np.random.default_rng(seed)
        w, h, bs = int(local.integers(9, 40)), int(local.integers(9, 40)), int(local.choice([4, 8]))
        ref = make_frame(local, w, h, 8)
        field = random_field(local, w, h, bs, 3)
        pred = mc_predict(ref, field)
        out = np.empty((h, w), dtype=np.int32)
        for blk in iter_blocks(w, h, bs):
            v = field.vector_at(blk.bx, blk.by)
            for y in range(blk.y0, blk.y0 + blk.h):
                for x in range(blk.x0, blk.x0 + blk.w):
                    out[y, x] = ref.samples[y + v.dy, x + v.dx]
        assert np.array_equal(pred.samples, out)


def test_mc_predict_rejects_out_of_bounds(rng):
    ref = make_frame(rng, 16, 16, 8)
    field = motion_field(16, 1, 1, [(-1, 0)])
    with pytest.raises(ValueError):
        mc_predict(ref, field)


def test_analyze_highpass_examples():
    a = Frame(np.array([[200]], dtype=np.int32), 8)
    b = Frame(np.array([[180]], dtype=np.int32), 8)
    assert analyze_highpass(a, b).samples[0, 0] == 20
    assert analyze_highpass(a, a).samples[0, 0] == 0
    ct_cur = Frame(np.array([[4000]], dtype=np.int32), 12)
    ct_pred = Frame(np.array([[4095]], dtype=np.int32), 12)
    assert analyze_highpass(ct_cur, ct_pred).samples[0, 0] == -95


def test_analyze_lowpass_examples():
    ref = Frame(np.array([[100]], dtype=np.int32), 8)
    zero = UpdateField(np.zeros((1, 1)), np.zeros((1, 1), dtype=bool))
    assert analyze_lowpass(ref, zero) == ref
    up = UpdateField(np.array([[9.5]]), np.zeros((1, 1), dtype=bool))
    assert analyze_lowpass(ref, up).samples[0, 0] == 109
    down = UpdateField(np.array([[-9.5]]), np.zeros((1, 1), dtype=bool))
    assert analyze_lowpass(ref, down).samples[0, 0] == 90


def test_pointwise_steps_reject_mismatched_dims(rng):
    a = make_frame(rng, 8, 8, 8)
    b = make_frame(rng, 8, 9, 8)
    with pytest.raises(ValueError):
        analyze_highpass(a, b)
    with pytest.raises(ValueError):
        analyze_lowpass(a, UpdateField(np.zeros((9, 8)), np.zeros((9, 8), dtype=bool)))


def test_analyze_pair_identical_frames(rng):
    f = make_frame(rng, 48, 32, 8)
    bands = analyze_pair(f, f, fast_cfg()).subbands
    assert np.all(bands.highpass.samples == 0)
    assert not bands.motion.vectors.any()
    assert bands.lowpass == f


def test_analyze_pair_translated_content(rng):
    tex = rng.integers(0, 256, size=(48, 64), dtype=np.int32)
    ref = Frame(tex, 8)
    cur = Frame(np.roll(np.roll(tex, -2, axis=0), -3, axis=1), 8)
    products = analyze_pair(ref, cur, fast_cfg(UpdateMode.COPY_UNCONNECTED, 16, 6))
    hp = products.subbands.highpass.samples
    for blk_y in range(0, 48 - 16 - 2, 16):
        for blk_x in range(0, 64 - 16 - 3, 16):
            assert np.all(hp[blk_y : blk_y + 16, blk_x : blk_x + 16] == 0)
    # away from any scattered nonzero block, the lowpass equals the reference
    lp = products.subbands.lowpass.samples
    assert np.array_equal(lp[:16, :32], tex[:16, :32])


@pytest.mark.parametrize(
    "seed,width,height",
    [pytest.param(seed, 128, 128, id=str(seed)) for seed in (1, 2, 3)]
    # the benchmark's disocclusion geometry
    + [pytest.param(seed, 176, 144, id=f"176x144-{seed}") for seed in (4, 5)],
)
def test_default_fse_budget_keeps_the_hole_filling_effect(seed, width, height):
    # Acceptance criteria 7 and 8 at the shipped FseParams() defaults:
    # filling the holes lowers the boundary step strictly, never grows the
    # coded lowpass and never raises its PSNR against the reference.
    ref, cur = fixtures.generate(
        "flash_disocclusion", width=width, height=height, seed=seed, frames=2
    )
    block = analyze_pair(ref, cur, LiftConfig(update_mode=UpdateMode.COPY_UNCONNECTED))
    filled = analyze_pair(ref, cur, LiftConfig(update_mode=UpdateMode.FSE_FILL))
    assert filled.conn.hole_mask.any()
    lp_block, lp_fse = block.subbands.lowpass, filled.subbands.lowpass
    assert boundary_step_metric(lp_fse, filled.conn) < boundary_step_metric(
        lp_block, block.conn
    )
    assert len(encode_lossless(lp_fse)) <= len(encode_lossless(lp_block))
    assert psnr(lp_fse, ref) <= psnr(lp_block, ref)


@pytest.mark.parametrize("mode", list(UpdateMode))
@pytest.mark.parametrize("bit_depth", [8, 12])
def test_pair_round_trip(mode, bit_depth):
    rng = np.random.default_rng(hash((mode.value, bit_depth)) % 2**32)
    ref, cur = make_pair(rng, 40, 40, bit_depth)
    cfg = fast_cfg(mode)
    bands = analyze_pair(ref, cur, cfg).subbands
    got_ref, got_cur = synthesize_pair(bands)
    assert got_ref == ref
    assert got_cur == cur


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    bit_depth=st.sampled_from([8, 12]),
    mode=st.sampled_from(list(UpdateMode)),
)
def test_pair_round_trip_property(data, bit_depth, mode):
    shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=6, max_side=24))
    elements = st.integers(0, (1 << bit_depth) - 1)
    ref = Frame(data.draw(hnp.arrays(np.int32, shape, elements=elements)), bit_depth)
    cur = Frame(data.draw(hnp.arrays(np.int32, shape, elements=elements)), bit_depth)
    cfg = LiftConfig(
        block_size=data.draw(st.sampled_from([4, 8])),
        search_range=data.draw(st.integers(0, 3)),
        update_mode=mode,
        fse=FseParams(tile_size=4, border=4, max_iterations=15),
    )
    bands = analyze_pair(ref, cur, cfg).subbands
    got_ref, got_cur = synthesize_pair(bands)
    assert got_ref == ref and got_cur == cur


def test_degenerate_synthesis_no_update_zero_highpass(rng):
    lp = make_frame(rng, 32, 32, 8)
    field = zero_field(32, 32, 16)
    hp = Frame(np.zeros((32, 32), dtype=np.int32), 8)
    bands = SubbandPair(lp, hp, field, UpdateMode.NO_UPDATE, FseParams())
    ref, cur = synthesize_pair(bands)
    assert ref == lp
    assert cur == mc_predict(lp, field)


def test_analyze_sequence_identical_two_frames(rng):
    f = make_frame(rng, 32, 32, 8)
    bands, _ = analyze_sequence(Sequence((f, f)), fast_cfg())
    assert len(bands.lowpass) == 1 and len(bands.highpass) == 1
    assert not bands.has_trailing
    assert bands.lowpass[0] == f
    assert np.all(bands.highpass[0].samples == 0)


def test_analyze_sequence_odd_length_pairing(rng):
    frames = tuple(make_frame(rng, 24, 24, 8) for _ in range(5))
    bands, _ = analyze_sequence(Sequence(frames), fast_cfg())
    assert len(bands.lowpass) == 3
    assert len(bands.highpass) == 2
    assert bands.has_trailing
    assert bands.lowpass[-1] == frames[-1]


@pytest.mark.parametrize("length", [1, 2, 5, 6])
@pytest.mark.parametrize("mode", list(UpdateMode))
def test_sequence_round_trip(length, mode):
    rng = np.random.default_rng(1000 + length + mode.value)
    frames = tuple(make_frame(rng, 33, 25, 12) for _ in range(length))
    seq = Sequence(frames, axis_label="slice")
    cfg = fast_cfg(mode, block_size=8, search_range=3)
    bands, _ = analyze_sequence(seq, cfg)
    back = synthesize_sequence(bands)
    assert len(back) == length
    assert all(a == b for a, b in zip(back, seq))


def test_block_size_past_the_frame_round_trips_in_frame_memory():
    # A block size far past an 8x8 frame is one clipped block: analysis and
    # synthesis must allocate for the frame, not for a 65535^2 block.
    rng = np.random.default_rng(8)
    seq = Sequence(tuple(make_frame(rng, 8, 8, 8) for _ in range(2)))
    cfg = LiftConfig(block_size=65535, search_range=3)
    # warm-up at a small block size, so lazy imports are not traced
    small = dataclasses.replace(cfg, block_size=8)
    synthesize_sequence(analyze_sequence(seq, small)[0])
    tracemalloc.start()
    try:
        data = container_to_bytes(analyze_sequence(seq, cfg)[0])
        _, analyze_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = synthesize_sequence(container_from_bytes(data))
        _, synthesize_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert container_from_bytes(data).motion_fields[0].block_size == 65535
    assert container_to_bytes(container_from_bytes(data)) == data
    assert len(back) == 2 and all(a == b for a, b in zip(back, seq))
    assert analyze_peak < 1 << 20
    assert synthesize_peak < 1 << 20


def test_container_round_trip(rng, tmp_path):
    frames = tuple(make_frame(rng, 33, 18, 12) for _ in range(5))
    cfg = fast_cfg(UpdateMode.COPY_UNCONNECTED, block_size=8, search_range=2)
    bands, _ = analyze_sequence(Sequence(frames), cfg)
    path = tmp_path / "bands.mclf"
    write_container(path, bands)
    parsed = read_container(path)
    assert parsed.update_mode == bands.update_mode
    assert parsed.has_trailing == bands.has_trailing
    assert parsed.motion_fields == bands.motion_fields
    assert all(a == b for a, b in zip(parsed.lowpass, bands.lowpass))
    assert all(a == b for a, b in zip(parsed.highpass, bands.highpass))
    # and the parsed bands still invert the transform
    back = synthesize_sequence(parsed)
    assert all(a == b for a, b in zip(back, frames))


def test_container_rejects_corruption(rng):
    frames = tuple(make_frame(rng, 16, 16, 8) for _ in range(2))
    bands, _ = analyze_sequence(Sequence(frames), fast_cfg())
    payload = container_to_bytes(bands)

    with pytest.raises(DataFormatError, match="magic"):
        container_from_bytes(b"XXXX" + payload[4:])
    with pytest.raises(DataFormatError, match="version"):
        container_from_bytes(payload[:4] + b"\xff" + payload[5:])
    with pytest.raises(DataFormatError, match="truncated"):
        container_from_bytes(payload[:-6])
    with pytest.raises(DataFormatError, match="extra bytes"):
        container_from_bytes(payload + b"\x00")
    with pytest.raises(DataFormatError, match="header"):
        container_from_bytes(payload[:3])
    with pytest.raises(DataFormatError, match="block size 0"):
        container_from_bytes(overwrite(payload, _CONTAINER_HEADER.size, "<H", 0))


def test_container_carries_its_fse_parameters(rng):
    frames = tuple(make_frame(rng, 24, 20, 8) for _ in range(2))
    fse = FseParams(tile_size=4, border=2, decay_rho=0.7, orth_gamma=0.25,
                    max_iterations=9, stop_epsilon=1e-3)
    cfg = dataclasses.replace(fast_cfg(block_size=8, search_range=2), fse=fse)
    bands, _ = analyze_sequence(Sequence(frames), cfg)
    parsed = container_from_bytes(container_to_bytes(bands))
    assert parsed.fse == fse
    assert all(a == b for a, b in zip(synthesize_sequence(parsed), frames))


# header offsets of the FSE fields tile_size, max_iterations and stop_epsilon
TILE_SIZE_AT, MAX_ITERATIONS_AT, STOP_EPSILON_AT = 13, 33, 37


def test_container_rejects_invalid_fse_parameters(rng):
    frames = tuple(make_frame(rng, 16, 16, 8) for _ in range(2))
    bands, _ = analyze_sequence(Sequence(frames), fast_cfg())
    payload = container_to_bytes(bands)
    for bad in (float("nan"), float("inf"), -1.0):
        hostile = overwrite(payload, STOP_EPSILON_AT, "<d", bad)
        with pytest.raises(DataFormatError, match="stop_epsilon"):
            container_from_bytes(hostile)
    # Values that fit their fields but would make the decoder allocate
    # gigabytes per tile or iterate for hours are refused too.
    for tile in (0xFFFF, 16 | 0x8000):
        hostile = overwrite(payload, TILE_SIZE_AT, "<H", tile)
        with pytest.raises(DataFormatError, match="fft_size"):
            container_from_bytes(hostile)
    hostile = overwrite(payload, MAX_ITERATIONS_AT, "<I", 0xFFFFFFFF)
    with pytest.raises(DataFormatError, match="max_iterations"):
        container_from_bytes(hostile)


def test_container_v1_is_refused(rng):
    frames = tuple(make_frame(rng, 16, 16, 8) for _ in range(2))
    bands, _ = analyze_sequence(Sequence(frames), fast_cfg())
    payload = container_to_bytes(bands)
    with pytest.raises(DataFormatError, match="unsupported container version 1"):
        container_from_bytes(payload[:4] + b"\x01" + payload[5:])


def test_container_v2_is_refused(rng):
    # v2 containers were written by the full-spectrum FSE loop, whose fill
    # differs from the half-plane loop's in the last bits.
    frames = tuple(make_frame(rng, 16, 16, 8) for _ in range(2))
    bands, _ = analyze_sequence(Sequence(frames), fast_cfg())
    payload = container_to_bytes(bands)
    assert payload[4] == 3
    with pytest.raises(DataFormatError, match="unsupported container version 2"):
        container_from_bytes(payload[:4] + b"\x02" + payload[5:])


def _frame_offset(payload: bytes, frame: Frame) -> int:
    return payload.index(frame.samples.astype("<i4").tobytes())


@pytest.mark.parametrize(
    "part,where",
    [("lowpass", "pair 1"), ("highpass", "pair 1"), ("crc", "pair 1"),
     ("trailing", "trailing frame"), ("trailing crc", "trailing frame")],
)
def test_synthesis_checks_each_pair_against_its_crc(part, where):
    rng = np.random.default_rng(31)
    frames = tuple(make_frame(rng, 24, 16, 8) for _ in range(5))
    bands, _ = analyze_sequence(Sequence(frames), fast_cfg(block_size=8, search_range=2))
    payload = bytearray(container_to_bytes(bands))
    frame = {"lowpass": bands.lowpass[1], "highpass": bands.highpass[1],
             "crc": bands.highpass[1]}.get(part, bands.lowpass[-1])
    offset = _frame_offset(payload, frame)
    if part.endswith("crc"):
        offset += frame.samples.nbytes
    payload[offset] ^= 0x01
    parsed = container_from_bytes(bytes(payload))
    with pytest.raises(VerificationError, match=where):
        synthesize_sequence(parsed)


# version, bit depth, width, height, pair count, mode, the six FSE fields,
# then the first motion field's block size and grid
CONTAINER_FIELDS = [4, 5, 6, 8, 10, 12, 13, 15, 17, 25, 33, 37] + [
    _CONTAINER_HEADER.size + i for i in (0, 2, 4)
]


@functools.cache
def _small_container() -> bytes:
    rng = np.random.default_rng(5)
    frames = tuple(make_frame(rng, 20, 12, 8) for _ in range(3))
    bands, _ = analyze_sequence(Sequence(frames), fast_cfg(block_size=8, search_range=2))
    return container_to_bytes(bands)


def test_container_parser_hostile_edits_raise_only_data_format_error():
    # Some edits still parse (mode byte 1, tile size 1, ...); no edit may
    # raise anything but DataFormatError.
    for hostile in hostile_edits(_small_container(), CONTAINER_FIELDS):
        try:
            container_from_bytes(hostile)
        except DataFormatError:
            pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_container_parser_fuzz_raises_only_data_format_error(data):
    hostile = corrupt(data, _small_container(), CONTAINER_FIELDS)
    try:
        container_from_bytes(hostile)
    except DataFormatError:
        pass

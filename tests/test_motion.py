import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mclift import motion
from mclift.core import DataFormatError, Frame, LiftConfig, MotionField, MotionVector, grid_dims
from mclift.motion import (
    block_ssd,
    estimate_motion,
    motion_from_bytes,
    motion_to_bytes,
)

from conftest import iter_blocks, make_frame, make_pair, motion_field


def oracle_search(current: Frame, reference: Frame, block_size: int, search_range: int):
    """Plain brute force: every block, every candidate, tuple tie-break."""
    cur = current.samples.astype(np.int64)
    ref = reference.samples.astype(np.int64)
    height, width = cur.shape
    vectors = []
    costs = []
    for y0 in range(0, height, block_size):
        h = min(block_size, height - y0)
        for x0 in range(0, width, block_size):
            w = min(block_size, width - x0)
            best = None
            for dy in range(-search_range, search_range + 1):
                for dx in range(-search_range, search_range + 1):
                    ry, rx = y0 + dy, x0 + dx
                    if ry < 0 or rx < 0 or ry + h > height or rx + w > width:
                        continue
                    d = cur[y0 : y0 + h, x0 : x0 + w] - ref[ry : ry + h, rx : rx + w]
                    ssd = int((d * d).sum())
                    key = (ssd, dx * dx + dy * dy, dy, dx)
                    if best is None or key < best:
                        best = key
            costs.append(best[0])
            vectors.append(MotionVector(best[3], best[2]))
    return vectors, costs


def test_block_ssd_identical_is_zero():
    f = Frame(np.arange(64, dtype=np.int32).reshape(8, 8), 8)
    assert block_ssd(f, f, (0, 0), (8, 8), MotionVector(0, 0)) == 0


def test_block_ssd_single_pixel():
    cur = Frame(np.array([[10]], dtype=np.int32), 8)
    ref = Frame(np.array([[7]], dtype=np.int32), 8)
    assert block_ssd(cur, ref, (0, 0), (1, 1), MotionVector(0, 0)) == 9


def test_block_ssd_one_differing_sample():
    cur = Frame(np.array([[1, 2], [3, 4]], dtype=np.int32), 8)
    ref = Frame(np.array([[1, 2], [3, 5]], dtype=np.int32), 8)
    assert block_ssd(cur, ref, (0, 0), (2, 2), MotionVector(0, 0)) == 1


def test_block_ssd_out_of_bounds():
    f = Frame(np.zeros((4, 4), dtype=np.int32), 8)
    with pytest.raises(ValueError):
        block_ssd(f, f, (0, 0), (4, 4), MotionVector(1, 0))


def test_identical_frames_give_zero_vectors(rng):
    f = make_frame(rng, 32, 24, 8)
    field = estimate_motion(f, f, LiftConfig(8, 4))
    assert not field.vectors.any()


def test_flat_frames_tiebreak_to_zero(rng):
    f = Frame(np.full((32, 32), 77, dtype=np.int32), 8)
    field = estimate_motion(f, f, LiftConfig(16, 6))
    assert not field.vectors.any()


def test_translated_pair_recovers_shift(rng):
    # current[y, x] == reference[y + 2, x + 5] wherever that index exists
    tex = rng.integers(0, 256, size=(40, 48), dtype=np.int32)
    ref = Frame(tex, 8)
    cur = Frame(np.roll(np.roll(tex, -2, axis=0), -5, axis=1), 8)
    field = estimate_motion(cur, ref, LiftConfig(8, 15))
    for by in range(field.blocks_y):
        for bx in range(field.blocks_x):
            x0, y0 = bx * 8, by * 8
            if x0 + 8 + 5 <= 48 and y0 + 8 + 2 <= 40:
                v = field.vector_at(bx, by)
                assert v == MotionVector(5, 2)
                assert block_ssd(cur, ref, (x0, y0), (8, 8), v) == 0


def test_dimension_mismatch_rejected(rng):
    a = make_frame(rng, 16, 16, 8)
    b = make_frame(rng, 16, 17, 8)
    with pytest.raises(ValueError):
        estimate_motion(a, b, LiftConfig(8, 2))


def assert_matches_oracle(cur: Frame, ref: Frame, block_size: int, search_range: int):
    field = estimate_motion(cur, ref, LiftConfig(block_size, search_range))
    expected, costs = oracle_search(cur, ref, block_size, search_range)
    grid = grid_dims(cur.width, cur.height, block_size)
    assert field == motion_field(block_size, *grid, expected)
    for blk in iter_blocks(cur.width, cur.height, block_size):
        v = field.vector_at(blk.bx, blk.by)
        assert block_ssd(cur, ref, (blk.x0, blk.y0), (blk.w, blk.h), v) == costs[blk.index]
    return field, costs


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(9, 49))
    height = int(rng.integers(9, 49))
    block_size = int(rng.choice([4, 8, 16]))
    search_range = int(rng.integers(1, 5))
    cur, ref = make_pair(rng, width, height, 8)
    assert_matches_oracle(cur, ref, block_size, search_range)


@pytest.mark.parametrize("bit_depth", [12, 16])
@pytest.mark.parametrize("seed", range(3))
def test_oracle_deep_samples(bit_depth, seed):
    rng = np.random.default_rng(100 + seed)
    width = int(rng.integers(9, 41))
    height = int(rng.integers(9, 41))
    block_size = int(rng.choice([4, 8, 16]))
    cur, ref = make_pair(rng, width, height, bit_depth)
    assert_matches_oracle(cur, ref, block_size, 3)


def test_oracle_16bit_full_blocks_exceed_int32(rng):
    # 16x16 blocks of 16-bit noise: block costs far beyond 2**31.
    cur, ref = make_pair(rng, 48, 32, 16)
    _, costs = assert_matches_oracle(cur, ref, 16, 4)
    assert min(costs) >= 2**31


def test_oracle_subband_range_samples(rng):
    # Subband frames may leave [0, 2**bit_depth); the search stays exact.
    cur = Frame(rng.integers(-(1 << 20), 1 << 20, size=(20, 24)), 8)
    ref = Frame(rng.integers(-(1 << 20), 1 << 20, size=(20, 24)), 8)
    assert_matches_oracle(cur, ref, 8, 3)


@pytest.mark.parametrize(
    "width,height,block_size,search_range",
    [
        (30, 25, 7, 4),  # blocks divide neither dimension
        (23, 19, 5, 4),
        (9, 7, 1, 2),  # one-pixel blocks
        (21, 17, 8, 0),  # only the zero vector
        (13, 11, 4, 17),  # window beyond both frame dimensions
        (30, 9, 12, 4),  # block taller than the frame
        (9, 30, 12, 4),  # block wider than the frame
        (13, 11, 20, 3),  # block past both sides: one clipped block
        (13, 11, 1024, 17),
    ],
)
def test_oracle_geometries(rng, width, height, block_size, search_range):
    cur, ref = make_pair(rng, width, height, 8)
    assert_matches_oracle(cur, ref, block_size, search_range)


def test_oracle_block_size_one_reaches_opposite_corner(rng):
    # Only 1-pixel blocks admit |dx| == width - 1 and |dy| == height - 1:
    # the top-left sample matches nothing but the bottom-right one.
    ref = Frame(10 * rng.permutation(20).reshape(4, 5), 8)
    cur_samples = rng.integers(0, 256, size=(4, 5))
    cur_samples[0, 0] = ref.samples[3, 4]
    field, costs = assert_matches_oracle(Frame(cur_samples, 8), ref, 1, 6)
    assert field.vector_at(0, 0) == MotionVector(4, 3)
    assert costs[0] == 0


def test_block_size_past_the_frame_searches_in_frame_memory(rng):
    # Block sizes 32 and 1024 both give the one clipped block of a 32x32
    # pair; the search must allocate for the frame, not for the block.
    cur, ref = make_pair(rng, 32, 32, 8)
    small = estimate_motion(cur, ref, LiftConfig(32, 15))
    tracemalloc.start()
    try:
        field = estimate_motion(cur, ref, LiftConfig(1024, 15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(field.vectors, small.vectors)
    assert peak < 2 << 20


def test_cost_non_increasing_with_range(rng):
    cur, ref = make_pair(rng, 40, 40, 8)
    previous = None
    for search_range in (0, 1, 2, 4, 6):
        field = estimate_motion(cur, ref, LiftConfig(8, search_range))
        total = 0
        for blk in iter_blocks(40, 40, 8):
            v = field.vector_at(blk.bx, blk.by)
            total += block_ssd(cur, ref, (blk.x0, blk.y0), (8, 8), v)
        if previous is not None:
            assert total <= previous
        previous = total


def test_motion_serialization_round_trip(rng):
    cur, ref = make_pair(rng, 33, 18, 8)
    field = estimate_motion(cur, ref, LiftConfig(16, 3))
    payload = motion_to_bytes(field)
    parsed, consumed = motion_from_bytes(payload)
    assert consumed == len(payload)
    assert parsed == field


@pytest.mark.parametrize("blocks_y,blocks_x", [(1, 1), (2, 3), (3, 1)])
def test_i16_extremes_round_trip_in_raster_order(blocks_y, blocks_x):
    vectors = np.resize([-32768, 32767, 32767, -32768], (blocks_y, blocks_x, 2))
    field = MotionField(5, vectors)
    payload = motion_to_bytes(field)
    pairs = vectors.reshape(-1, 2).tolist()
    assert payload == struct.pack("<HHH", 5, blocks_x, blocks_y) + b"".join(
        struct.pack("<hh", dx, dy) for dx, dy in pairs
    )
    parsed, consumed = motion_from_bytes(payload)
    assert consumed == len(payload)
    assert parsed == field


@pytest.mark.parametrize("vector", [(32768, 0), (0, -32769)])
def test_vector_past_i16_names_the_first_block_in_raster_order(vector):
    # Blocks (2,0) and (0,1) both overflow; (2,0) comes first in raster order.
    vectors = np.zeros((2, 3, 2), dtype=np.int64)
    vectors[0, 2] = vector
    vectors[1, 0] = vector
    message = r"^block \(2,0\) vector .* does not fit i16$"
    with pytest.raises(ValueError, match=message):
        motion_to_bytes(MotionField(4, vectors))


def test_motion_deserialization_truncation():
    f = estimate_motion(
        Frame(np.zeros((16, 16), dtype=np.int32), 8),
        Frame(np.zeros((16, 16), dtype=np.int32), 8),
        LiftConfig(8, 1),
    )
    payload = motion_to_bytes(f)
    with pytest.raises(DataFormatError, match="truncated"):
        motion_from_bytes(payload[:3])
    with pytest.raises(DataFormatError, match="truncated"):
        motion_from_bytes(payload[:-2])


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 18),
    height=st.integers(1, 18),
    bit_depth=st.integers(1, 16),
    block_size=st.integers(1, 16),
    search_range=st.integers(0, 6),
    texture=st.sampled_from(["noise", "shifted", "two-level"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_oracle_property(
    width, height, bit_depth, block_size, search_range, texture, seed
):
    rng = np.random.default_rng(seed)
    cur, ref = _random_texture(rng, texture, (height, width), (1 << bit_depth) - 1)
    assert_matches_oracle(
        Frame(cur, bit_depth), Frame(ref, bit_depth), block_size, search_range
    )


def _random_texture(rng, name: str, shape, top: int):
    """(current, reference) samples in [0, top]."""
    ref = rng.integers(0, top + 1, size=shape)
    if name == "noise":
        cur = rng.integers(0, top + 1, size=shape)
    elif name == "shifted":
        cur = np.roll(ref, tuple(rng.integers(-3, 4, size=2)), axis=(0, 1))
    else:  # extremes only: full-span samples and many exact ties
        ref = top * rng.integers(0, 2, size=shape)
        cur = top * rng.integers(0, 2, size=shape)
    return cur, ref


def _tie_texture(name: str, width: int, height: int, low: int, high: int):
    """(current, reference) samples whose best cost is reached by many shifts."""
    yy, xx = np.indices((height, width))
    if name == "stripes_x":
        pattern = xx % 2
    elif name == "stripes_y":
        pattern = yy % 2
    elif name == "checkerboard":
        pattern = (xx + yy) % 2
    else:  # flat: two different constants, so every valid shift ties
        return np.full((height, width), high), np.full((height, width), low + 1)
    # The reference is the complement, so the zero vector is a worst match
    # and the winners are the nearest odd shifts, tied in pairs and more.
    return low + (high - low) * pattern, low + (high - low) * (1 - pattern)


def _ties_at_interior_block(cur: Frame, ref: Frame, block_size: int, search_range: int):
    corner, dims = (block_size, block_size), (block_size, block_size)
    costs = [
        block_ssd(cur, ref, corner, dims, MotionVector(dx, dy))
        for dy in range(-search_range, search_range + 1)
        for dx in range(-search_range, search_range + 1)
    ]
    return costs.count(min(costs))


@pytest.mark.parametrize("texture", ["stripes_x", "stripes_y", "checkerboard", "flat"])
@pytest.mark.parametrize("bit_depth", [1, 8, 16])
def test_oracle_exact_ties(texture, bit_depth):
    top = (1 << bit_depth) - 1
    cur_s, ref_s = _tie_texture(texture, 37, 29, top // 3, top)
    cur, ref = Frame(cur_s, bit_depth), Frame(ref_s, bit_depth)
    assert _ties_at_interior_block(cur, ref, 8, 4) > 1
    assert_matches_oracle(cur, ref, 8, 4)


def _spy_on_digit_count(monkeypatch) -> list[int]:
    counts = []
    real = motion._digit_split

    def spy(*args):
        count, bits = real(*args)
        counts.append(count)
        return count, bits

    monkeypatch.setattr(motion, "_digit_split", spy)
    return counts


def test_full_span_16bit_takes_fft_path_at_defaults(monkeypatch):
    # 16-bit samples at the default block size and range stay below the
    # bound (0.22 < 0.5) with one digit, and exact ties must still go to the
    # priority order.
    cfg = LiftConfig()
    cur_s, ref_s = _tie_texture("checkerboard", 40, 36, 0, 65535)
    cur, ref = Frame(cur_s, 16), Frame(ref_s, 16)
    assert _ties_at_interior_block(cur, ref, 16, 4) > 1
    counts = _spy_on_digit_count(monkeypatch)
    assert_matches_oracle(cur, ref, cfg.block_size, cfg.search_range)
    assert counts == [1]


def test_subband_range_takes_several_digits(monkeypatch):
    # Samples of +-2**20 put the one-digit rounding bound far above 0.5.
    cur_s, ref_s = _tie_texture("stripes_x", 24, 20, -(1 << 20), 1 << 20)
    cur, ref = Frame(cur_s, 8), Frame(ref_s, 8)
    counts = _spy_on_digit_count(monkeypatch)
    assert_matches_oracle(cur, ref, 8, 3)
    assert len(counts) == 1 and counts[0] > 1


@pytest.mark.parametrize("side", [0, 1])
def test_path_switches_exactly_at_the_bound(monkeypatch, side):
    # The largest centred magnitude M with a bound below 0.5 at the
    # defaults: a pair of span 2M has magnitude M and takes one digit,
    # one of span 2M + 1 has magnitude M + 1 and takes two.
    shape = (motion._fft_length(46), motion._fft_length(46))
    limit = 1
    while motion._cross_term_error_bound(limit + 1, 16, shape) < 0.5:
        limit += 1
    assert 32768 < limit < 65536
    cur_s, ref_s = _tie_texture("stripes_y", 33, 35, 0, 2 * limit + side)
    cur, ref = Frame(cur_s, 16), Frame(ref_s, 16)
    counts = _spy_on_digit_count(monkeypatch)
    assert_matches_oracle(cur, ref, 16, 15)
    assert counts == [1 + side]


def test_samples_far_from_zero_are_centred(monkeypatch):
    # A span of 255 around 2**28 takes one digit. Uncentred, products of
    # 2**28-sized samples would carry rounding errors of thousands and
    # break the exact ties of this texture at random.
    base = 1 << 28
    cur_s, ref_s = _tie_texture("checkerboard", 64, 48, base, base + 255)
    cur, ref = Frame(cur_s, 8), Frame(ref_s, 8)
    counts = _spy_on_digit_count(monkeypatch)
    assert_matches_oracle(cur, ref, 16, 15)
    assert counts == [1]


@settings(max_examples=100, deadline=None)
@given(
    width=st.integers(1, 24),
    height=st.integers(1, 24),
    span_bits=st.integers(16, 24),
    block_size=st.integers(1, 24),
    search_range=st.integers(0, 8),
    texture=st.sampled_from(["noise", "shifted", "two-level"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_wide_sample_ranges_match_oracle(
    width, height, span_bits, block_size, search_range, texture, seed
):
    # Spans of 2**16 to 2**24 around an arbitrary offset: depending on the
    # block size and range, one digit or several.
    rng = np.random.default_rng(seed)
    base = int(rng.integers(-(1 << 26), 1 << 26))
    cur, ref = _random_texture(rng, texture, (height, width), (1 << span_bits) - 1)
    assert_matches_oracle(
        Frame(base + cur, 8), Frame(base + ref, 8), block_size, search_range
    )


def test_wide_sample_ranges_reach_both_digit_counts(monkeypatch):
    # The property above covers one-digit and multi-digit searches alike.
    counts = _spy_on_digit_count(monkeypatch)
    test_wide_sample_ranges_match_oracle()
    assert 1 in counts
    assert any(count > 1 for count in counts)


@pytest.mark.parametrize("largest_digit,count", [(1 << 7, 2), (1 << 3, 4), (1, 16)])
def test_forced_digit_counts_match_oracle(monkeypatch, rng, largest_digit, count):
    # A bound met only by small digits forces more digits than rounding
    # needs, down to 1-bit ones; the costs must stay exact at every count.
    real = motion._cross_term_error_bound
    monkeypatch.setattr(
        motion,
        "_cross_term_error_bound",
        lambda magnitude, *args: real(magnitude, *args) if magnitude <= largest_digit else 1.0,
    )
    counts = _spy_on_digit_count(monkeypatch)
    # Two levels far apart tie many shifts on the high digits; small noise
    # on top leaves the decision to the low ones.
    cur, ref = _random_texture(rng, "two-level", (18, 21), 255)
    cur = cur * 256 + rng.integers(0, 256, size=cur.shape)
    ref = ref * 256 + rng.integers(0, 256, size=ref.shape)
    assert_matches_oracle(Frame(cur, 16), Frame(ref, 16), 8, 3)
    assert counts == [count]


def test_unreachable_bound_raises_instead_of_looping(monkeypatch, rng):
    monkeypatch.setattr(motion, "_cross_term_error_bound", lambda *args: 1.0)
    cur, ref = make_pair(rng, 16, 16, 8)
    with pytest.raises(ValueError, match="rounding bound"):
        estimate_motion(cur, ref, LiftConfig(8, 2))


def test_bound_figures_quoted_in_docstring():
    shape = (48, 48)
    for bits, quoted in ((8, 3.4e-6), (12, 8.7e-4), (16, 0.22)):
        bound = motion._cross_term_error_bound(1 << (bits - 1), 16, shape)
        assert bound == pytest.approx(quoted, rel=0.02)

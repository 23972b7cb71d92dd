import numpy as np
import pytest

from mclift.core import Frame, LiftConfig, MotionField, compensation_source
from mclift.imc import apply_connectivity_weights, connectivity_stats, imc_scatter
from mclift.lifting import mc_predict
from mclift.motion import estimate_motion

from conftest import iter_blocks, make_frame, make_pair, motion_field, scatter


def zero_field(width, height, block_size):
    bx = -(-width // block_size)
    by = -(-height // block_size)
    return MotionField(block_size, np.zeros((by, bx, 2), dtype=np.int64))


def random_field(rng, width, height, block_size, search_range):
    # In-bounds random vectors per clipped block.
    vectors = []
    for blk in iter_blocks(width, height, block_size):
        lo_dx, hi_dx = -min(search_range, blk.x0), min(search_range, width - blk.x0 - blk.w)
        lo_dy, hi_dy = -min(search_range, blk.y0), min(search_range, height - blk.y0 - blk.h)
        vectors.append((rng.integers(lo_dx, hi_dx + 1), rng.integers(lo_dy, hi_dy + 1)))
    bx = -(-width // block_size)
    by = -(-height // block_size)
    return motion_field(block_size, bx, by, vectors)


def reference_scatter(highpass, motion):
    """Per-block oracle: each block's samples added in int64 at its target."""
    height, width = highpass.samples.shape
    sums = np.zeros((height, width), dtype=np.int64)
    counts = np.zeros((height, width), dtype=np.int32)
    hp = highpass.samples
    for blk in iter_blocks(width, height, motion.block_size):
        v = motion.vector_at(blk.bx, blk.by)
        ty, tx = blk.y0 + v.dy, blk.x0 + v.dx
        sums[ty : ty + blk.h, tx : tx + blk.w] += hp[
            blk.y0 : blk.y0 + blk.h, blk.x0 : blk.x0 + blk.w
        ]
        counts[ty : ty + blk.h, tx : tx + blk.w] += 1
    return sums, counts


def test_zero_motion_scatter_is_identity(rng):
    hp = make_frame(rng, 24, 16, 8)
    sums, conn = scatter(hp, zero_field(24, 16, 8))
    assert np.array_equal(conn.counts, np.ones((16, 24), dtype=np.int32))
    assert np.array_equal(sums, hp.samples.astype(float))
    assert not apply_connectivity_weights(sums, conn).hole_mask.any()


def test_two_blocks_colliding_on_one_pixel():
    hp = Frame(np.array([[4, 6]], dtype=np.int32), 8)
    field = motion_field(1, 2, 1, [(0, 0), (-1, 0)])
    sums, conn = scatter(hp, field)
    assert conn.counts.tolist() == [[2, 0]]
    assert sums.tolist() == [[10.0, 0.0]]
    assert apply_connectivity_weights(sums, conn).hole_mask.tolist() == [[False, True]]
    assert connectivity_stats(conn) == (1, 0, 1)


def test_uniform_shift_vacates_a_column(rng):
    hp = make_frame(rng, 16, 8, 8)
    field = motion_field(8, 2, 1, [(1, 0), (0, 0)])
    sums, conn = scatter(hp, field)
    # the first block moved right by one: column 0 is vacated, column 8 is
    # hit by both that block and the untouched second block
    assert np.all(conn.counts[:, 0] == 0)
    assert np.all(conn.counts[:, 1:8] == 1)
    assert np.all(conn.counts[:, 8] == 2)
    assert np.all(conn.counts[:, 9:] == 1)
    assert np.all(apply_connectivity_weights(sums, conn).hole_mask[:, 0])
    assert np.array_equal(sums[:, 1:8], hp.samples[:, 0:7].astype(float))


def test_out_of_bounds_vector_rejected(rng):
    hp = make_frame(rng, 8, 8, 8)
    field = motion_field(8, 1, 1, [(1, 0)])
    with pytest.raises(ValueError, match="outside"):
        scatter(hp, field)


@pytest.mark.parametrize(
    "width,height,block_size",
    [
        (24, 16, 1),  # one-pixel blocks
        (23, 19, 7),  # blocks divide neither side
        (33, 25, 16),
        (30, 9, 12),  # block taller than the frame
        (13, 11, 20),  # block past both sides: one clipped block
    ],
)
@pytest.mark.parametrize("amplitude", [255, (1 << 16) - 1])
def test_scatter_matches_per_block_reference(width, height, block_size, amplitude):
    rng = np.random.default_rng(width * 1000 + block_size)
    for _ in range(5):
        field = random_field(rng, width, height, block_size, 6)
        # highpass values of both signs, near +-2**16 at the top amplitude
        magnitude = rng.integers(amplitude - 7, amplitude + 1, size=(height, width))
        hp = Frame(magnitude * rng.choice([-1, 1], size=(height, width)), 16)
        got, conn = scatter(hp, field)
        sums, counts = reference_scatter(hp, field)
        assert np.array_equal(got, sums.astype(np.float64))
        assert np.array_equal(conn.counts, counts)
        holes = apply_connectivity_weights(got, conn).hole_mask
        assert np.array_equal(holes, counts == 0)


def test_scatter_sums_colliding_extremes_exactly():
    # every 1-pixel block of a 5x5 frame lands on pixel (2,2): 25 values of
    # magnitude ~2**16 of both signs are summed there, and nowhere else
    rng = np.random.default_rng(3)
    magnitude = rng.integers((1 << 16) - 4, 1 << 16, size=(5, 5))
    hp = Frame(magnitude * rng.choice([-1, 1], size=(5, 5)), 16)
    vectors = [(2 - x, 2 - y) for y in range(5) for x in range(5)]
    field = motion_field(1, 5, 5, vectors)
    got, conn = scatter(hp, field)
    sums, counts = reference_scatter(hp, field)
    assert conn.counts[2, 2] == 25 and int(conn.counts.sum()) == 25
    assert got[2, 2] == float(hp.samples.astype(np.int64).sum())
    assert np.array_equal(got, sums.astype(np.float64))
    assert np.array_equal(conn.counts, counts)


# The bounds rule is compensation_source's alone: for a field with a block
# outside the frame, the map that either stage takes is never built.
@pytest.mark.parametrize("apply", [mc_predict, imc_scatter])
def test_first_block_outside_in_raster_order_is_named(rng, apply):
    # blocks (1,0) and (0,1) both leave the 16x16 frame; (1,0) comes first
    frame = make_frame(rng, 16, 16, 8)
    vectors = ((0, 0), (1, 0), (0, 1), (0, 0))
    field = motion_field(8, 2, 2, vectors)
    message = r"^block \(1,0\) vector .* lands outside the frame$"
    with pytest.raises(ValueError, match=message):
        apply(frame, compensation_source(field, 16, 16))


@pytest.mark.parametrize("vector", [(-1, 0), (1, 0), (0, -1), (0, 1)])
@pytest.mark.parametrize("apply", [mc_predict, imc_scatter])
def test_block_leaving_any_side_is_rejected(rng, apply, vector):
    frame = make_frame(rng, 8, 8, 8)
    with pytest.raises(ValueError, match=r"^block \(0,0\) vector"):
        apply(frame, compensation_source(motion_field(8, 1, 1, [vector]), 8, 8))


def test_weights_one_connected_halves():
    hp = Frame(np.array([[10]], dtype=np.int32), 8)
    sums, conn = scatter(hp, zero_field(1, 1, 1))
    weighted = apply_connectivity_weights(sums, conn)
    assert weighted.values[0, 0] == pytest.approx(5.0, abs=1e-12)


def test_weights_two_connected_thirds():
    hp = Frame(np.array([[4, 6]], dtype=np.int32), 8)
    field = motion_field(1, 2, 1, [(0, 0), (-1, 0)])
    weighted = apply_connectivity_weights(*scatter(hp, field))
    assert weighted.values[0, 0] == pytest.approx(10.0 / 3.0, abs=1e-12)
    assert weighted.values[0, 1] == 0.0
    assert weighted.hole_mask[0, 1]


def test_stats_partition_full_frame(rng):
    hp = make_frame(rng, 32, 24, 8)
    _, conn = scatter(hp, zero_field(32, 24, 8))
    assert connectivity_stats(conn) == (0, 32 * 24, 0)


def test_stats_all_unconnected():
    from mclift.core import ConnectivityMap

    conn = ConnectivityMap(np.zeros((4, 6), dtype=np.int32))
    assert connectivity_stats(conn) == (24, 0, 0)


@pytest.mark.parametrize("seed", range(10))
def test_mass_conservation_and_hole_oracle(seed):
    rng = np.random.default_rng(seed)
    width = int(rng.integers(8, 50))
    height = int(rng.integers(8, 50))
    block_size = int(rng.choice([4, 8, 16]))
    hp = make_frame(rng, width, height, 8)
    field = random_field(rng, width, height, block_size, 5)
    sums, conn = scatter(hp, field)

    clipped_area = sum(b.w * b.h for b in iter_blocks(width, height, block_size))
    assert int(conn.counts.sum()) == clipped_area

    covered = np.zeros((height, width), dtype=bool)
    for blk in iter_blocks(width, height, block_size):
        v = field.vector_at(blk.bx, blk.by)
        covered[blk.y0 + v.dy : blk.y0 + v.dy + blk.h, blk.x0 + v.dx : blk.x0 + v.dx + blk.w] = True
    assert np.array_equal(apply_connectivity_weights(sums, conn).hole_mask, ~covered)
    assert np.array_equal(conn.counts == 0, ~covered)


def test_zero_motion_weighted_update_is_half_highpass(rng):
    cur, ref = make_pair(rng, 32, 32, 8)
    hp = Frame(cur.samples - ref.samples, 8)
    weighted = apply_connectivity_weights(*scatter(hp, zero_field(32, 32, 16)))
    assert not weighted.hole_mask.any()
    assert np.array_equal(weighted.values, hp.samples / 2.0)


def test_weighting_is_linear_on_covered_pixels(rng):
    width = height = 24
    field = random_field(rng, width, height, 8, 3)
    a = make_frame(rng, width, height, 8)
    b = make_frame(rng, width, height, 8)
    summed = Frame(a.samples + b.samples, 8)
    wa = apply_connectivity_weights(*scatter(a, field))
    wb = apply_connectivity_weights(*scatter(b, field))
    ws = apply_connectivity_weights(*scatter(summed, field))
    assert np.allclose(ws.values, wa.values + wb.values, atol=1e-9)


def test_weights_from_real_motion_search(rng):
    cur, ref = make_pair(rng, 48, 32, 8)
    field = estimate_motion(cur, ref, LiftConfig(16, 4))
    sums, conn = scatter(Frame(cur.samples - ref.samples, 8), field)
    weighted = apply_connectivity_weights(sums, conn)
    k = conn.counts
    covered = k > 0
    assert np.allclose(
        weighted.values[covered], sums[covered] / (k[covered] + 1)
    )
    assert np.all(weighted.values[~covered] == 0.0)


def test_stages_reject_shapes_that_do_not_match(rng):
    hp = make_frame(rng, 16, 16, 8)
    with pytest.raises(ValueError, match="compensation map shape"):
        imc_scatter(hp, compensation_source(zero_field(16, 8, 8), 16, 8))
    sums, conn = scatter(hp, zero_field(16, 16, 8))
    with pytest.raises(ValueError, match="does not match update sums"):
        apply_connectivity_weights(sums[:8], conn)

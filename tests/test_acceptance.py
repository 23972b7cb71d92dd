"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import time

import numpy as np

from mclift.core import (
    Frame,
    FseParams,
    LiftConfig,
    UpdateField,
    UpdateMode,
)
from mclift.fse import _fill_one_tile, fse_reconstruct, fse_tile_iterate, plan_tiles, weight_grid
from mclift.imc import apply_connectivity_weights, connectivity_stats, imc_scatter
from mclift.lifting import analyze_pair, analyze_sequence, synthesize_sequence
from mclift.metrics import (
    boundary_step_metric,
    decode_lossless,
    encode_lossless,
    psnr,
    raw_frame_bytes,
)
from mclift.motion import block_ssd, estimate_motion
from mclift import fixtures
from mclift.core import Sequence, grid_dims

from conftest import iter_blocks, make_frame, make_pair, motion_field
from test_imc import random_field
from test_motion import oracle_search

FAST_FSE = FseParams(tile_size=8, border=8, max_iterations=25)


def test_criterion_1_lossless_invertibility():
    """200 randomized pairs, 16..128 px, depths 8 and 12, all modes, < 2 min."""
    rng = np.random.default_rng(20240915)
    modes = list(UpdateMode)
    forced_sizes = [(16, 16), (128, 128), (16, 128), (128, 16)]
    started = time.monotonic()
    checked = 0
    for i in range(200):
        if i < len(forced_sizes):
            width, height = forced_sizes[i]
        else:
            width = int(rng.integers(16, 129))
            height = int(rng.integers(16, 129))
        bit_depth = 8 if i % 2 == 0 else 12
        mode = modes[i % 3]
        cfg = LiftConfig(
            block_size=int(rng.choice([8, 16])),
            search_range=int(rng.choice([2, 3, 4])),
            update_mode=mode,
            fse=FAST_FSE,
        )
        ref, cur = make_pair(rng, width, height, bit_depth)
        seq = Sequence((ref, cur))
        bands, _ = analyze_sequence(seq, cfg)
        back = synthesize_sequence(bands)
        assert back[0] == ref and back[1] == cur, (
            f"round trip failed: pair {i}, {width}x{height}, "
            f"{bit_depth}-bit, {mode.name}"
        )
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"round-trip sweep took {elapsed:.1f}s"
    print(
        f"PASS criterion 1: {checked} randomized pairs invert bit-exactly "
        f"in {elapsed:.1f}s (all modes, depths 8/12)"
    )


def test_criterion_2_motion_search_oracle_equivalence():
    """Optimized full search == brute force on 100 instances, exactly."""
    rng = np.random.default_rng(77)
    for i in range(100):
        width = int(rng.integers(8, 65))
        height = int(rng.integers(8, 65))
        block_size = int(rng.choice([4, 8, 16]))
        if block_size == 4 and max(width, height) > 40:
            block_size = 8
        search_range = int(rng.integers(1, 9))
        cur, ref = make_pair(rng, width, height, 8)
        field = estimate_motion(cur, ref, LiftConfig(block_size, search_range))
        expected_vectors, expected_costs = oracle_search(
            cur, ref, block_size, search_range
        )
        grid = grid_dims(width, height, block_size)
        expected = motion_field(block_size, *grid, expected_vectors)
        assert field == expected, f"instance {i}"
        for blk in iter_blocks(width, height, block_size):
            got = block_ssd(
                cur, ref, (blk.x0, blk.y0), (blk.w, blk.h), field.vector_at(blk.bx, blk.by)
            )
            assert got == expected_costs[blk.index], f"instance {i} block {blk.index}"
    print("PASS criterion 2: optimized search matches the brute-force oracle on 100 instances")


def test_criterion_3_perfect_prediction_identity():
    """Fully captured translation: zero highpass and untouched lowpass."""
    dx, dy = fixtures.TRANSLATE_SHIFT
    for seed in (0, 1):
        seq = fixtures.generate("translate", width=128, height=96, frames=2, seed=seed)
        ref, cur = seq[0], seq[1]
        cfg = LiftConfig(block_size=16, search_range=15,
                         update_mode=UpdateMode.COPY_UNCONNECTED)
        products = analyze_pair(ref, cur, cfg)
        hp = products.subbands.highpass.samples
        matched = 0
        for blk in iter_blocks(128, 96, 16):
            if blk.x0 + blk.w + dx <= 128 and blk.y0 + blk.h + dy <= 96:
                assert np.all(hp[blk.y0 : blk.y0 + blk.h, blk.x0 : blk.x0 + blk.w] == 0)
                matched += 1
        assert matched > 0
        # interior pixels out of reach of any boundary block stay identical
        margin = 16 + 15
        lp = products.subbands.lowpass.samples
        assert np.array_equal(
            lp[: 96 - margin - dy, : 128 - margin - dx],
            ref.samples[: 96 - margin - dy, : 128 - margin - dx],
        )
    print("PASS criterion 3: zero highpass on matched blocks, lowpass equals reference there")


def test_criterion_4_connectivity_conservation():
    """Count mass equals scattered block area; holes match the set oracle."""
    rng = np.random.default_rng(4242)
    for i in range(100):
        width = int(rng.integers(8, 64))
        height = int(rng.integers(8, 64))
        block_size = int(rng.choice([4, 8, 16]))
        hp = make_frame(rng, width, height, 8)
        field = random_field(rng, width, height, block_size, 6)
        accum, conn = imc_scatter(hp, field)
        clipped_area = sum(b.w * b.h for b in iter_blocks(width, height, block_size))
        assert int(conn.counts.sum()) == clipped_area, f"instance {i}"
        covered = np.zeros((height, width), dtype=bool)
        for blk in iter_blocks(width, height, block_size):
            v = field.vector_at(blk.bx, blk.by)
            covered[
                blk.y0 + v.dy : blk.y0 + v.dy + blk.h,
                blk.x0 + v.dx : blk.x0 + v.dx + blk.w,
            ] = True
        assert np.array_equal(conn.counts == 0, ~covered), f"instance {i}"
        assert np.array_equal(accum.hole_mask, ~covered), f"instance {i}"
    print("PASS criterion 4: connectivity mass and hole sets exact on 100 random fields")


def test_criterion_5_connectivity_weighting_exact():
    """Constructed k=1 and k=2 overlaps weight to sum/2 and sum/3."""
    one = Frame(np.array([[10]], dtype=np.int32), 8)
    w1 = apply_connectivity_weights(
        *imc_scatter(one, motion_field(1, 1, 1, [(0, 0)]))
    )
    assert abs(w1.values[0, 0] - 5.0) <= 1e-12

    two = Frame(np.array([[4, 6]], dtype=np.int32), 8)
    field = motion_field(1, 2, 1, [(0, 0), (-1, 0)])
    w2 = apply_connectivity_weights(*imc_scatter(two, field))
    assert abs(w2.values[0, 0] - 10.0 / 3.0) <= 1e-12
    assert w2.values[0, 1] == 0.0 and bool(w2.hole_mask[0, 1])
    print("PASS criterion 5: 1/(k+1) weighting exact for k=1 and k=2 (<=1e-12)")


def test_criterion_6_fse_properties():
    """(a) pass-through (b) monotone energy (c) constant fill (d) cosine
    recovery (e) tile-order invariance."""
    rng = np.random.default_rng(6)

    # (a) non-hole pixels bit-identical
    holes = np.zeros((48, 48), dtype=bool)
    holes[10:22, 18:30] = True
    field = UpdateField(np.where(holes, 0.0, rng.normal(scale=9.0, size=(48, 48))), holes)
    params = FseParams(tile_size=8, border=8, max_iterations=80)
    filled, _ = fse_reconstruct(field, params)
    assert np.array_equal(filled.values[~holes], field.values[~holes])

    # (b) weighted residual energy non-increasing on 50 random tiles
    for i in range(50):
        support = rng.normal(scale=10.0, size=(32, 32))
        avail = rng.random((32, 32)) > float(rng.uniform(0.2, 0.7))
        if not avail.any():
            avail[0, 0] = True
        _, trace = fse_tile_iterate(support, avail, weight_grid(params), params)
        trace = np.asarray(trace)
        assert np.all(np.diff(trace) <= 1e-9 * max(trace[0], 1.0)), f"tile {i}"

    # (c) constant support fills constant to 1e-6
    c_holes = np.zeros((64, 64), dtype=bool)
    c_holes[20:30, 22:31] = True
    c_field = UpdateField(np.where(c_holes, 0.0, 7.25), c_holes)
    c_params = FseParams(stop_epsilon=0.0, max_iterations=200)
    c_filled, _ = fse_reconstruct(c_field, c_params)
    assert np.abs(c_filled.values[c_holes] - 7.25).max() <= 1e-6

    # (d) single aligned cosine recovered to 1e-4 of its amplitude
    size, amplitude = 64, 50.0
    yy, xx = np.mgrid[0:size, 0:size]
    cosine = amplitude * np.cos(2 * np.pi * (yy + 2 * xx) / size)
    k_holes = np.zeros((size, size), dtype=bool)
    k_holes[24:40, 24:40] = True
    k_field = UpdateField(np.where(k_holes, 0.0, cosine), k_holes)
    k_filled, _ = fse_reconstruct(k_field, FseParams())
    assert np.abs(k_filled.values[k_holes] - cosine[k_holes]).max() <= 1e-4 * amplitude

    # (e) invariant to tile processing order
    reordered = field.values.copy()
    for plan in reversed(plan_tiles(holes, params)):
        hy, hx = np.nonzero(
            holes[plan.tile_y : plan.tile_y + plan.tile_h,
                  plan.tile_x : plan.tile_x + plan.tile_w]
        )
        fill, _ = _fill_one_tile(
            plan, hy, hx, field.values, holes, weight_grid(params), params
        )
        reordered[plan.tile_y + hy, plan.tile_x + hx] = fill
    assert np.array_equal(reordered, filled.values)
    print("PASS criterion 6: FSE pass-through, monotone energy, constant and cosine recovery, order invariance")


def _flash_mode_comparison(seed: int):
    seq = fixtures.generate("flash_disocclusion", seed=seed, frames=2)
    ref, cur = seq[0], seq[1]
    fse = FseParams(max_iterations=300)
    block = analyze_pair(
        ref, cur, LiftConfig(update_mode=UpdateMode.COPY_UNCONNECTED, fse=fse)
    )
    filled = analyze_pair(
        ref, cur, LiftConfig(update_mode=UpdateMode.FSE_FILL, fse=fse)
    )
    assert connectivity_stats(block.conn).unconnected > 0
    return ref, block, filled


def test_criterion_7_directional_artifact_reduction():
    """block+fse strictly lowers the hole-boundary step and never inflates
    the coded lowpass payload on the disocclusion fixture."""
    for seed in (1, 2, 3):
        ref, block, filled = _flash_mode_comparison(seed)
        step_block = boundary_step_metric(block.subbands.lowpass, block.conn)
        step_fse = boundary_step_metric(filled.subbands.lowpass, filled.conn)
        assert step_fse < step_block, f"seed {seed}"
        bytes_block = len(encode_lossless(block.subbands.lowpass))
        bytes_fse = len(encode_lossless(filled.subbands.lowpass))
        assert bytes_fse <= bytes_block, f"seed {seed}"
    print("PASS criterion 7: hole filling strictly lowers boundary step and lowpass bytes never grow")


def test_criterion_8_psnr_quality_tension():
    """Filling unconnected pixels trades lowpass-vs-reference PSNR for the
    boundary improvement of criterion 7, on the same runs."""
    for seed in (1, 2, 3):
        ref, block, filled = _flash_mode_comparison(seed)
        psnr_block = psnr(block.subbands.lowpass, ref)
        psnr_fse = psnr(filled.subbands.lowpass, ref)
        assert psnr_fse <= psnr_block, f"seed {seed}"
        step_block = boundary_step_metric(block.subbands.lowpass, block.conn)
        step_fse = boundary_step_metric(filled.subbands.lowpass, filled.conn)
        assert step_fse < step_block, f"seed {seed}"
    print("PASS criterion 8: PSNR drops under hole filling while the boundary metric improves")


def test_criterion_9_codec_round_trip():
    """Built-in coder: bit-exact inversion and near-empty constant payloads."""
    rng = np.random.default_rng(9)
    for i in range(100):
        bit_depth = 8 if i % 2 == 0 else 12
        f = make_frame(rng, int(rng.integers(1, 64)), int(rng.integers(1, 64)), bit_depth)
        assert decode_lossless(encode_lossless(f)) == f, f"frame {i}"
    constant = Frame(np.full((256, 256), 200, dtype=np.int32), 8)
    payload = encode_lossless(constant)
    assert decode_lossless(payload) == constant
    assert len(payload) < 0.01 * raw_frame_bytes(constant)
    print(
        "PASS criterion 9: codec round trip exact on 100 frames; constant frame "
        f"payload {len(payload)}B < 1% of {raw_frame_bytes(constant)}B raw"
    )

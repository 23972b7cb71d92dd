import logging

import numpy as np
import pytest

from mclift.core import FseParams, UpdateField
from mclift.fse import (
    _fill_one_tile,
    fse_reconstruct,
    fse_tile_iterate,
    plan_tiles,
    weight_grid,
)

SMALL = FseParams(tile_size=8, border=8, max_iterations=100)


def field_with_holes(values, holes):
    vals = np.where(holes, 0.0, values)
    return UpdateField(vals, holes)


def test_plan_tiles_empty():
    assert plan_tiles(np.zeros((64, 64), dtype=bool), FseParams()) == []


def test_plan_tiles_single_hole_pixel():
    holes = np.zeros((64, 64), dtype=bool)
    holes[20, 20] = True
    plans = plan_tiles(holes, FseParams())
    assert len(plans) == 1
    plan = plans[0]
    assert (plan.tile_y, plan.tile_x) == (16, 16)
    assert (plan.origin_y, plan.origin_x) == (0, 0)


def test_plan_tiles_hole_spanning_two_cells():
    holes = np.zeros((64, 64), dtype=bool)
    holes[10, 14:18] = True  # crosses the x=16 tile boundary
    plans = plan_tiles(holes, FseParams())
    assert [(p.tile_y, p.tile_x) for p in plans] == [(0, 0), (0, 16)]
    # ownership is disjoint: each tile covers its own aligned cell only
    owned = np.zeros_like(holes)
    for p in plans:
        cell = np.zeros_like(holes)
        cell[p.tile_y : p.tile_y + p.tile_h, p.tile_x : p.tile_x + p.tile_w] = True
        assert not (owned & cell & holes).any()
        owned |= cell
    assert (owned & holes).sum() == holes.sum()


def test_empty_hole_mask_passthrough(rng):
    field = UpdateField(rng.normal(size=(32, 32)), np.zeros((32, 32), dtype=bool))
    out, _ = fse_reconstruct(field, SMALL)
    assert np.array_equal(out.values, field.values)


def test_non_hole_pixels_bit_identical(rng):
    holes = np.zeros((48, 48), dtype=bool)
    holes[12:20, 30:41] = True
    field = field_with_holes(rng.normal(scale=20.0, size=(48, 48)), holes)
    out, _ = fse_reconstruct(field, SMALL)
    assert np.array_equal(out.values[~holes], field.values[~holes])
    assert np.array_equal(out.hole_mask, holes)


def test_constant_support_fills_constant():
    holes = np.zeros((64, 64), dtype=bool)
    holes[20:30, 22:31] = True
    field = field_with_holes(np.full((64, 64), 7.25), holes)
    params = FseParams(stop_epsilon=0.0, max_iterations=200)
    out, _ = fse_reconstruct(field, params)
    assert np.abs(out.values[holes] - 7.25).max() <= 1e-6


def test_single_cosine_recovery():
    size = 64
    yy, xx = np.mgrid[0:size, 0:size]
    amplitude = 100.0
    cosine = amplitude * np.cos(2 * np.pi * (2 * yy + 3 * xx) / size)
    holes = np.zeros((size, size), dtype=bool)
    holes[24:40, 24:40] = True
    out, _ = fse_reconstruct(field_with_holes(cosine, holes), FseParams())
    assert np.abs(out.values[holes] - cosine[holes]).max() <= 1e-4 * amplitude


def test_zero_residual_consumes_no_iterations():
    params = SMALL
    grid, trace = fse_tile_iterate(
        np.zeros((32, 32)),
        np.ones((32, 32), dtype=bool),
        weight_grid(params),
        params,
    )
    assert not grid.any()
    assert trace == [0.0]


def test_dc_signal_selects_zero_frequency_first():
    params = FseParams(tile_size=8, border=8, max_iterations=1)
    support = np.full((32, 32), 3.0)
    avail = np.zeros((32, 32), dtype=bool)
    avail[4:28, 4:28] = True
    window = weight_grid(params)
    grid, _ = fse_tile_iterate(support, avail, window, params)
    assert np.argwhere(grid).tolist() == [[0, 0]]
    # independent projection oracle over all bins
    w = np.where(avail, window, 0.0)
    spectrum = np.fft.fft2(w * np.where(avail, support, 0.0))
    oracle = np.unravel_index(np.argmax(np.abs(spectrum) ** 2), spectrum.shape)
    assert tuple(int(i) for i in oracle) == (0, 0)


def test_tile_requires_available_pixels():
    with pytest.raises(ValueError, match="no available"):
        fse_tile_iterate(
            np.zeros((32, 32)),
            np.zeros((32, 32), dtype=bool),
            weight_grid(SMALL),
            SMALL,
        )


@pytest.mark.parametrize("seed", range(6))
def test_energy_trace_monotone_non_increasing(seed):
    rng = np.random.default_rng(seed)
    params = FseParams(tile_size=8, border=8, max_iterations=150)
    support = rng.normal(scale=10.0, size=(32, 32))
    avail = rng.random((32, 32)) > 0.35
    if not avail.any():
        avail[0, 0] = True
    _, trace = fse_tile_iterate(support, avail, weight_grid(params), params)
    trace = np.asarray(trace)
    assert np.all(np.diff(trace) <= 1e-9 * max(trace[0], 1.0))


def test_model_synthesis_is_real(rng):
    params = FseParams(tile_size=8, border=8, max_iterations=80)
    support = rng.normal(scale=5.0, size=(32, 32))
    avail = rng.random((32, 32)) > 0.5
    grid, _ = fse_tile_iterate(support, avail, weight_grid(params), params)
    g = np.fft.ifft2(grid) * (params.fft_size * params.fft_size)
    energy = float(np.abs(g).max())
    if energy > 0:
        assert float(np.abs(g.imag).max()) < 1e-9 * energy


def test_fill_is_deterministic(rng):
    holes = np.zeros((80, 80), dtype=bool)
    holes[5:12, 40:55] = True
    holes[60:75, 8:20] = True
    field = field_with_holes(rng.normal(scale=8.0, size=(80, 80)), holes)
    a, a_stats = fse_reconstruct(field, SMALL)
    b, b_stats = fse_reconstruct(field, SMALL)
    assert np.array_equal(a.values, b.values)
    assert a_stats == b_stats


def test_tile_order_invariance(rng):
    holes = np.zeros((64, 64), dtype=bool)
    holes[2:9, 2:9] = True
    holes[40:52, 30:44] = True
    field = field_with_holes(rng.normal(scale=8.0, size=(64, 64)), holes)
    reference, _ = fse_reconstruct(field, SMALL)

    out = field.values.copy()
    for plan in reversed(plan_tiles(holes, SMALL)):
        fill, _ = _fill_one_tile(plan, field.values, holes, weight_grid(SMALL), SMALL)
        hy, hx = np.nonzero(
            holes[plan.tile_y : plan.tile_y + plan.tile_h,
                  plan.tile_x : plan.tile_x + plan.tile_w]
        )
        out[plan.tile_y + hy, plan.tile_x + hx] = fill
    assert np.array_equal(out, reference.values)


def test_degenerate_tile_filled_with_zero(caplog):
    # Every pixel is a hole: no tile has any support.
    holes = np.ones((16, 16), dtype=bool)
    field = UpdateField(np.zeros((16, 16)), holes)
    params = FseParams(tile_size=8, border=4, max_iterations=10)
    with caplog.at_level(logging.WARNING, logger="mclift.fse"):
        out, stats = fse_reconstruct(field, params)
    assert np.all(out.values == 0.0)
    assert all(s.degenerate for s in stats)
    assert any("no available support" in r.message for r in caplog.records)

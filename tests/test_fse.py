import logging

import numpy as np
import pytest

from mclift.core import FseParams, LiftConfig, UpdateField, UpdateMode
from mclift.fixtures import generate
from mclift.fse import (
    _fill_one_tile,
    _tile_inputs,
    fse_reconstruct,
    fse_tile_iterate,
    plan_tiles,
    weight_grid,
)
from mclift.lifting import analyze_sequence
from test_golden import FIXTURES

SMALL = FseParams(tile_size=8, border=8, max_iterations=100)
# The default geometry of earlier releases; their containers carry it.
TILE_16 = FseParams(tile_size=16, border=16)


def field_with_holes(values, holes):
    vals = np.where(holes, 0.0, values)
    return UpdateField(vals, holes)


def test_plan_tiles_empty():
    assert plan_tiles(np.zeros((64, 64), dtype=bool), FseParams()) == []


def test_plan_tiles_single_hole_pixel():
    holes = np.zeros((64, 64), dtype=bool)
    holes[20, 20] = True
    plans = plan_tiles(holes, TILE_16)
    assert len(plans) == 1
    plan = plans[0]
    assert (plan.tile_y, plan.tile_x) == (16, 16)
    assert (plan.origin_y, plan.origin_x) == (0, 0)


def test_plan_tiles_hole_spanning_two_cells():
    holes = np.zeros((64, 64), dtype=bool)
    holes[10, 14:18] = True  # crosses the x=16 tile boundary
    plans = plan_tiles(holes, TILE_16)
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
        hy, hx = np.nonzero(
            holes[plan.tile_y : plan.tile_y + plan.tile_h,
                  plan.tile_x : plan.tile_x + plan.tile_w]
        )
        fill, _ = _fill_one_tile(
            plan, hy, hx, field.values, holes, weight_grid(SMALL), SMALL
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
    assert len(stats) == 4 and all(s.degenerate for s in stats)
    # One warning per call, carrying the tile and hole counts.
    assert [r.getMessage() for r in caplog.records] == [
        "no available support in 4 tile(s); filling their 256 hole(s) with 0"
    ]


# The full-spectrum loop, kept as written as the reference: the half-plane
# loop rounds differently, so `assert_matches_frozen` compares against it
# within a tolerance, not bit for bit.
def frozen_tile_iterate(support, available_mask, weight_window, params):
    """The greedy loop as it stood before its work buffers were reused: a
    frozen reference that the coefficient grid and the energy trace of
    `fse_tile_iterate` must match bit for bit."""
    size = params.fft_size
    avail = np.asarray(available_mask, dtype=bool)
    w = np.where(avail, np.asarray(weight_window, dtype=np.float64), 0.0)
    f = np.where(avail, np.asarray(support, dtype=np.float64), 0.0)

    window_spectrum = np.fft.fft2(w)
    tiled = np.tile(window_spectrum, (2, 2))

    def shifted(uy, ux):
        return tiled[size - uy : 2 * size - uy, size - ux : 2 * size - ux]

    w_total = float(window_spectrum[0, 0].real)
    residual_spectrum = np.fft.fft2(w * f)
    coeffs = np.zeros((size, size), dtype=np.complex128)

    energy = float(np.sum(w * f * f))
    trace = [energy]
    threshold = params.stop_epsilon * energy

    iterations = 0
    while iterations < params.max_iterations and energy > threshold:
        mag2 = residual_spectrum.real**2 + residual_spectrum.imag**2
        idx = int(np.argmax(mag2))
        uy, ux = divmod(idx, size)
        if mag2[uy, ux] == 0.0:
            break
        conj_uy, conj_ux = (-uy) % size, (-ux) % size
        projection = residual_spectrum[uy, ux]
        if (uy, ux) == (conj_uy, conj_ux):
            step = params.orth_gamma * projection.real / w_total
            coeffs[uy, ux] += step
            residual_spectrum -= step * shifted(uy, ux)
            energy += step * step * w_total - 2.0 * step * projection.real
        else:
            step = params.orth_gamma * projection / w_total
            coeffs[uy, ux] += step
            coeffs[conj_uy, conj_ux] += step.conjugate()
            residual_spectrum -= step * shifted(uy, ux)
            residual_spectrum -= step.conjugate() * shifted(conj_uy, conj_ux)
            w_double = window_spectrum[(2 * uy) % size, (2 * ux) % size]
            energy += (
                -4.0 * (step.conjugate() * projection).real
                + 2.0 * (step * step.conjugate()).real * w_total
                + 2.0 * (step * step * w_double.conjugate()).real
            )
        energy = max(energy, 0.0)
        trace.append(energy)
        iterations += 1

    return coeffs, trace


def assert_matches_frozen(support, avail, window, params):
    """The half-plane loop selects the same bins for the same number of
    iterations as the full-spectrum reference; its grid and trace agree
    with the reference's to 1e-9 of their largest magnitude (the two FFTs
    round differently, so not bit for bit, and an energy that falls to
    near zero keeps the rounding error of the start)."""
    grid, trace = fse_tile_iterate(support, avail, window, params)
    ref_grid, ref_trace = frozen_tile_iterate(support, avail, window, params)
    assert np.array_equal(np.argwhere(grid), np.argwhere(ref_grid))
    assert len(trace) == len(ref_trace)
    for got, want in ((grid, ref_grid), (np.array(trace), np.array(ref_trace))):
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9 * scale)
    return grid, trace


@pytest.mark.parametrize(
    "seed,params",
    [
        (0, FseParams(max_iterations=300, stop_epsilon=0.0)),
        (1, FseParams(max_iterations=300, stop_epsilon=0.0)),
        (2, FseParams(max_iterations=300, orth_gamma=1.0)),
        (3, FseParams(tile_size=8, border=8, max_iterations=400, stop_epsilon=0.0)),
        (4, FseParams(tile_size=8, border=4, max_iterations=200, decay_rho=0.6)),
    ],
)
def test_iterate_matches_frozen_on_random_tiles(seed, params):
    rng = np.random.default_rng(seed)
    size = params.fft_size
    support = rng.normal(scale=30.0, size=(size, size))
    avail = rng.random((size, size)) > 0.3
    _, trace = assert_matches_frozen(support, avail, weight_grid(params), params)
    assert len(trace) > 100


def test_iterate_matches_frozen_on_self_conjugate_maxima():
    # A constant support peaks at the DC bin, a checkerboard at the
    # (size/2, size/2) bin; both are their own conjugate partners.
    params = FseParams(max_iterations=50, stop_epsilon=0.0)
    size = params.fft_size
    yy, xx = np.mgrid[0:size, 0:size]
    avail = np.zeros((size, size), dtype=bool)
    avail[8:56, 8:56] = True
    avail[28:36, 28:36] = False
    for support, first in (
        (np.full((size, size), 9.5), (0, 0)),
        (40.0 * (-1.0) ** (yy + xx), (size // 2, size // 2)),
    ):
        params1 = FseParams(max_iterations=1, stop_epsilon=0.0)
        grid1, _ = assert_matches_frozen(support, avail, weight_grid(params1), params1)
        assert np.argwhere(grid1).tolist() == [list(first)]
        assert_matches_frozen(support, avail, weight_grid(params), params)


def test_iterate_matches_frozen_on_early_stop():
    params = FseParams(tile_size=8, border=8, max_iterations=1000, stop_epsilon=0.05)
    rng = np.random.default_rng(11)
    support = rng.normal(scale=10.0, size=(32, 32))
    avail = rng.random((32, 32)) > 0.4
    _, trace = assert_matches_frozen(support, avail, weight_grid(params), params)
    assert 1 < len(trace) - 1 < params.max_iterations
    assert trace[-1] <= params.stop_epsilon * trace[0] < trace[-2]


def test_iterate_matches_frozen_on_zero_spectrum_break():
    # The weighted sample is so small that its squared spectrum underflows
    # to zero while the energy does not: the loop stops at the mag2 == 0
    # check, not at the energy threshold.
    params = FseParams(tile_size=8, border=8, max_iterations=10, stop_epsilon=0.0)
    avail = np.zeros((32, 32), dtype=bool)
    avail[3, 5] = True
    window = np.full((32, 32), 1e-170)
    grid, trace = assert_matches_frozen(np.ones((32, 32)), avail, window, params)
    assert trace == [1e-170]
    assert not grid.any()


def test_iterate_matches_frozen_when_the_full_maximum_lies_past_the_half_plane():
    # A cosine puts a conjugate pair of equal maxima at (3, 40) and (61, 24).
    # The full-spectrum argmax lands on (3, 40), with kx > size/2; the half
    # plane holds only its partner (61, 24). Both loops select the same pair
    # and give the same conjugate coefficients.
    params = FseParams(max_iterations=40, stop_epsilon=0.0)
    size = params.fft_size
    yy, xx = np.mgrid[0:size, 0:size]
    support = 25.0 * np.cos(2 * np.pi * (3 * yy + 40 * xx) / size + 0.3)
    avail = np.zeros((size, size), dtype=bool)
    avail[6:58, 6:58] = True
    avail[24:40, 24:40] = False
    window = weight_grid(params)
    spectrum = np.fft.fft2(np.where(avail, window * support, 0.0))
    peak = np.unravel_index(np.argmax(np.abs(spectrum) ** 2), spectrum.shape)
    assert tuple(int(i) for i in peak) == (3, 40)

    params1 = FseParams(max_iterations=1, stop_epsilon=0.0)
    grid1, _ = assert_matches_frozen(support, avail, window, params1)
    assert np.argwhere(grid1).tolist() == [[3, 40], [61, 24]]
    assert grid1[61, 24] == grid1[3, 40].conjugate()
    assert_matches_frozen(support, avail, window, params)


def frozen_fill(field, params):
    """Hole fill of `fse_reconstruct` with the full-spectrum reference loop
    and the full inverse FFT."""
    out = field.values.copy()
    size = params.fft_size
    for plan in plan_tiles(field.hole_mask, params):
        vals, avail = _tile_inputs(plan, field.values, field.hole_mask, params)
        if not avail.any():
            continue
        coeffs, _ = frozen_tile_iterate(vals, avail, weight_grid(params), params)
        spatial = (np.fft.ifft2(coeffs) * (size * size)).real
        rows = slice(plan.tile_y, plan.tile_y + plan.tile_h)
        cols = slice(plan.tile_x, plan.tile_x + plan.tile_w)
        hy, hx = np.nonzero(field.hole_mask[rows, cols])
        out[plan.tile_y + hy, plan.tile_x + hx] = spatial[hy + params.border,
                                                          hx + params.border]
    return out


def assert_fill_cannot_drift(field, params):
    """Every hole value lies within 1e-9 of the full-spectrum fill and
    either equals it or lies farther from the nearest integer than from it,
    so flooring it into the lowpass band gives the same integer either way.
    A tile with an all-zero support runs no iteration and fills exactly 0.0
    by both routes: zero drift, on an integer."""
    filled, _ = fse_reconstruct(field, params)
    holes = field.hole_mask
    value = filled.values[holes]
    reference = frozen_fill(field, params)[holes]
    drift = np.abs(value - reference)
    assert drift.max() <= 1e-9
    floor_margin = np.abs(value - np.round(value))
    assert np.all((floor_margin > drift) | (drift == 0))
    assert np.array_equal(np.floor(value), np.floor(reference))
    return int(holes.sum())


@pytest.mark.parametrize("kind", sorted(FIXTURES))
def test_golden_fixture_fill_cannot_drift(kind):
    seq = generate(kind, **FIXTURES[kind])
    cfg = LiftConfig(update_mode=UpdateMode.FSE_FILL)
    _, products = analyze_sequence(seq, cfg)
    for params in (cfg.fse, TILE_16, SMALL):
        checked = sum(
            assert_fill_cannot_drift(p.weighted_update, params) for p in products
        )
        assert checked > 0


@pytest.mark.parametrize("seed", range(4))
def test_random_field_fill_cannot_drift(seed):
    rng = np.random.default_rng(seed)
    holes = rng.random((80, 72)) < 0.08
    holes[30:44, 20:41] = True
    field = field_with_holes(rng.normal(scale=40.0, size=(80, 72)), holes)
    for params in (FseParams(), TILE_16, SMALL):
        assert assert_fill_cannot_drift(field, params) == holes.sum()

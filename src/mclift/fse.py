"""Frequency Selective Extrapolation: greedy sparse Fourier hole filling.

Unconnected pixels of the weighted update field are treated as holes and
replaced by a signal model built from the surrounding available samples.
The model is a sparse superposition of 2-D Fourier basis functions, grown
greedily: each iteration picks the basis whose weighted residual projection
is largest, i.e. the one that reduces the weighted approximation error the
most, and increases its coefficient by orth_gamma times the projection.

Implementation choices for the parts the update-step contract leaves open:

* Residual bookkeeping happens in the frequency domain. One FFT of the
  weighted signal and one of the weighting window are computed per tile;
  every iteration then only subtracts shifted copies of the window
  spectrum, since DFT{w * phi_u}[k] == W[k - u]. The shifted copies are
  views into a 2x2 tiling of W built once per tile, not rolled arrays.
* The weighted signal is real, so its residual spectrum is Hermitian and
  is kept only on the half plane kx <= size/2 (rfft2, size x (size/2+1)).
  Selection and both updates of an iteration run on that half; the
  coefficients are written out to the full grid once, at the end.
* The spatial weighting window is decay_rho ** (euclidean distance from
  the tile center) on available pixels and exactly 0 elsewhere. Hole
  pixels, pixels outside the frame, and pixels beyond the tile + border
  support square never contribute, including holes owned by neighboring
  tiles, which keeps the result independent of tile processing order.
* Selection maximizes |weighted residual spectrum|^2 with no additional
  frequency weighting. Exact ties resolve to the lowest (ky, kx) index
  with kx <= size/2. A maximum and its conjugate partner carry the same
  basis pair, so this picks the same pair as a search of the full plane.
  Distinct pairs whose magnitudes are equal only in exact arithmetic (a
  support that is nonzero on one column has a flat |spectrum| along kx)
  differ by rounding, and rounding decides between them.
* A selected basis and its conjugate partner are updated jointly with
  conjugate coefficients, so the spatial model stays real-valued. For
  orth_gamma <= 1 this makes the weighted residual energy non-increasing
  in every iteration.

Each hole pixel is owned by exactly one tile_size-aligned tile; a tile's
support is the tile plus `border` pixels on each side, clipped to the
frame and embedded in an fft_size transform grid. Tiles are filled one
after another in plan order; since no tile reads another's fill, that
order does not change the result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .core import FseParams, UpdateField

__all__ = [
    "FseParams",
    "TilePlan",
    "TileStats",
    "plan_tiles",
    "fse_tile_iterate",
    "fse_reconstruct",
    "weight_grid",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TilePlan:
    """One aligned hole-owning tile and the placement of its support.

    (origin_y, origin_x) is the frame position of transform index (0, 0);
    it may be negative near the frame border, in which case the missing
    support counts as unavailable.
    """

    tile_y: int
    tile_x: int
    tile_h: int
    tile_w: int
    origin_y: int
    origin_x: int


@dataclass
class TileStats:
    tile_y: int
    tile_x: int
    iterations: int
    energy_trace: list[float]
    degenerate: bool = False


def plan_tiles(hole_mask: np.ndarray, params: FseParams) -> list[TilePlan]:
    """Aligned tiles containing at least one hole, each owning its holes."""
    mask = np.asarray(hole_mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError("hole mask must be 2-D")
    height, width = mask.shape
    ts = params.tile_size
    ys, xs = np.nonzero(mask)
    cells = sorted(set(zip((ys // ts).tolist(), (xs // ts).tolist())))
    plans = []
    for cy, cx in cells:
        ty, tx = cy * ts, cx * ts
        plans.append(
            TilePlan(
                tile_y=ty,
                tile_x=tx,
                tile_h=min(ts, height - ty),
                tile_w=min(ts, width - tx),
                origin_y=ty - params.border,
                origin_x=tx - params.border,
            )
        )
    return plans


def weight_grid(params: FseParams) -> np.ndarray:
    """decay_rho ** distance from the tile center, over the transform grid."""
    center = params.border + (params.tile_size - 1) / 2.0
    coords = np.arange(params.fft_size, dtype=np.float64) - center
    dist = np.hypot(coords[:, None], coords[None, :])
    return params.decay_rho**dist


def fse_tile_iterate(
    support: np.ndarray,
    available_mask: np.ndarray,
    weight_window: np.ndarray,
    params: FseParams,
) -> tuple[np.ndarray, list[float]]:
    """Greedy model growth for one tile.

    `support` holds the samples over the transform grid, `available_mask`
    marks which of them are real observations, and `weight_window` supplies
    the spatial emphasis (forced to zero on unavailable pixels here).

    Returns the model's coefficient grid, an fft_size x fft_size complex
    spectrum that is conjugate-symmetric and nonzero only at the selected
    (ky, kx) bins and their partners, and the weighted residual energy
    before the first and after every iteration.
    """
    size = params.fft_size
    avail = np.asarray(available_mask, dtype=bool)
    if avail.shape != (size, size):
        raise ValueError(f"available_mask must be {size}x{size}")
    if not avail.any():
        raise ValueError("tile support contains no available pixels")
    w = np.where(avail, np.asarray(weight_window, dtype=np.float64), 0.0)
    f = np.where(avail, np.asarray(support, dtype=np.float64), 0.0)

    half = size // 2 + 1
    window_spectrum = np.fft.fft2(w)
    # DFT{w * phi_u} is the window spectrum circularly shifted by u; the
    # half plane of every such shift is a view into a 2x2 tiling of it:
    # W[k - u] starts at (size - uy, size - ux), W[k + u] at (uy, ux).
    tiled = np.tile(window_spectrum, (2, 2))
    w_total = float(window_spectrum[0, 0].real)
    wf = w * f
    residual = np.fft.rfft2(wf)

    energy = float(np.sum(wf * f))
    trace = [energy]
    threshold = params.stop_epsilon * energy

    # Work buffers reused by every iteration: squared real and imaginary
    # parts interleaved as they lie in memory, |residual|^2, and one
    # step * shifted-spectrum product.
    residual_parts = residual.view(np.float64).reshape(-1)
    squares = np.empty(2 * size * half)
    real_squares, imag_squares = squares[0::2], squares[1::2]
    mag2 = np.empty(size * half)
    prod = np.empty((size, half), dtype=np.complex128)
    gamma = params.orth_gamma
    # Summed step per selected half-plane bin, keyed by flat index.
    steps: dict[int, complex] = {}

    iterations = 0
    while iterations < params.max_iterations and energy > threshold:
        np.square(residual_parts, out=squares)
        np.add(real_squares, imag_squares, out=mag2)
        idx = int(mag2.argmax())
        if mag2[idx] == 0.0:
            break
        uy, ux = divmod(idx, half)
        conj_uy, conj_ux = -uy % size, -ux % size
        projection = residual.item(idx)
        if uy == conj_uy and ux == conj_ux:
            # Self-conjugate bin (real basis function): real coefficient,
            # and W[k - u] == W[k + u].
            step = gamma * projection.real / w_total
            np.multiply(step, tiled[uy : uy + size, ux : ux + half], out=prod)
            np.subtract(residual, prod, out=residual)
            energy += step * step * w_total - 2.0 * step * projection.real
        else:
            step = gamma * projection / w_total
            step_conj = step.conjugate()
            y0, x0 = size - uy, size - ux
            np.multiply(step, tiled[y0 : y0 + size, x0 : x0 + half], out=prod)
            np.subtract(residual, prod, out=residual)
            np.multiply(step_conj, tiled[uy : uy + size, ux : ux + half], out=prod)
            np.subtract(residual, prod, out=residual)
            w_double = window_spectrum.item((2 * uy) % size, (2 * ux) % size)
            energy += (
                -4.0 * (step_conj * projection).real
                + 2.0 * (step * step_conj).real * w_total
                + 2.0 * (step * step * w_double.conjugate()).real
            )
        steps[idx] = steps.get(idx, 0.0) + step
        if energy < 0.0:
            energy = 0.0
        trace.append(energy)
        iterations += 1

    coeffs = np.zeros((size, size), dtype=np.complex128)
    bins = np.fromiter(steps, dtype=np.intp, count=len(steps))
    values = np.fromiter(steps.values(), dtype=np.complex128, count=len(steps))
    ky, kx = np.divmod(bins, half)
    coeffs[ky, kx] = values
    # Every selected bin's conjugate partner gets the conjugate step; the
    # partners are distinct, but on the kx = 0 and kx = size/2 columns they
    # may be selected bins themselves, hence the add.
    partner_y, partner_x = -ky % size, -kx % size
    paired = (partner_y != ky) | (partner_x != kx)
    coeffs[partner_y[paired], partner_x[paired]] += values[paired].conjugate()
    return coeffs, trace


def _tile_inputs(
    plan: TilePlan,
    values: np.ndarray,
    holes: np.ndarray,
    params: FseParams,
) -> tuple[np.ndarray, np.ndarray]:
    height, width = values.shape
    size = params.fft_size
    span = params.tile_size + 2 * params.border
    vals = np.zeros((size, size), dtype=np.float64)
    avail = np.zeros((size, size), dtype=bool)
    i0 = max(0, -plan.origin_y)
    j0 = max(0, -plan.origin_x)
    i1 = min(span, height - plan.origin_y)
    j1 = min(span, width - plan.origin_x)
    if i1 > i0 and j1 > j0:
        fy0, fx0 = plan.origin_y + i0, plan.origin_x + j0
        window_holes = holes[fy0 : fy0 + (i1 - i0), fx0 : fx0 + (j1 - j0)]
        avail[i0:i1, j0:j1] = ~window_holes
        vals[i0:i1, j0:j1] = np.where(
            window_holes, 0.0, values[fy0 : fy0 + (i1 - i0), fx0 : fx0 + (j1 - j0)]
        )
    return vals, avail


def _fill_one_tile(
    plan: TilePlan,
    hy: np.ndarray,
    hx: np.ndarray,
    values: np.ndarray,
    holes: np.ndarray,
    base_weights: np.ndarray,
    params: FseParams,
) -> tuple[np.ndarray | None, TileStats]:
    """Fill of the holes the tile owns, at (hy, hx) relative to its corner."""
    vals, avail = _tile_inputs(plan, values, holes, params)
    if not avail.any():
        stats = TileStats(plan.tile_y, plan.tile_x, 0, [0.0], degenerate=True)
        return None, stats
    coeffs, trace = fse_tile_iterate(vals, avail, base_weights, params)
    size = params.fft_size
    # The coefficients are conjugate-symmetric, so the spatial model is real
    # and follows from their half plane.
    spatial = np.fft.irfft2(coeffs[:, : size // 2 + 1], s=(size, size), norm="forward")
    fill = spatial[hy + params.border, hx + params.border]
    stats = TileStats(plan.tile_y, plan.tile_x, len(trace) - 1, trace)
    return fill, stats


def fse_reconstruct(
    field: UpdateField, params: FseParams
) -> tuple[UpdateField, list[TileStats]]:
    """Replace hole pixels by the extrapolation model; deterministic.

    Returns the filled field and the per-tile iteration diagnostics, in
    plan order. Non-hole pixels pass through bit-identically.
    """
    holes = field.hole_mask
    if not holes.any():
        return field, []
    base_weights = weight_grid(params)
    values = field.values
    out = values.copy()
    all_stats = []
    degenerate_holes = 0
    for plan in plan_tiles(holes, params):
        hy, hx = np.nonzero(
            holes[
                plan.tile_y : plan.tile_y + plan.tile_h,
                plan.tile_x : plan.tile_x + plan.tile_w,
            ]
        )
        fill, stats = _fill_one_tile(plan, hy, hx, values, holes, base_weights, params)
        if fill is None:
            degenerate_holes += hy.size
            fill = 0.0
        out[plan.tile_y + hy, plan.tile_x + hx] = fill
        all_stats.append(stats)
    if degenerate_holes:
        logger.warning(
            "no available support in %d tile(s); filling their %d hole(s) with 0",
            sum(s.degenerate for s in all_stats),
            degenerate_holes,
        )
    return UpdateField(values=out, hole_mask=holes), all_stats

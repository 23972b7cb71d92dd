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
  every iteration then only subtracts a shifted copy of the window
  spectrum, since DFT{w * phi_u}[k] == W[k - u]. The shifted copies are
  views into a 2x2 tiling of W built once per tile, not rolled arrays.
* The spatial weighting window is decay_rho ** (euclidean distance from
  the tile center) on available pixels and exactly 0 elsewhere. Hole
  pixels, pixels outside the frame, and pixels beyond the tile + border
  support square never contribute, including holes owned by neighboring
  tiles, which keeps the result independent of tile processing order.
* Selection maximizes |weighted residual spectrum|^2 with no additional
  frequency weighting. Exact ties resolve to the lowest (ky, kx) index.
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
    spectrum that is nonzero only at the selected (ky, kx) bins, and the
    weighted residual energy before the first and after every iteration.
    """
    size = params.fft_size
    avail = np.asarray(available_mask, dtype=bool)
    if avail.shape != (size, size):
        raise ValueError(f"available_mask must be {size}x{size}")
    if not avail.any():
        raise ValueError("tile support contains no available pixels")
    w = np.where(avail, np.asarray(weight_window, dtype=np.float64), 0.0)
    f = np.where(avail, np.asarray(support, dtype=np.float64), 0.0)

    window_spectrum = np.fft.fft2(w)
    # DFT{w * phi_u} is the window spectrum circularly shifted by u; every
    # such shift is a view into a 2x2 tiling of it.
    tiled = np.tile(window_spectrum, (2, 2))

    def shifted(uy: int, ux: int) -> np.ndarray:
        return tiled[size - uy : 2 * size - uy, size - ux : 2 * size - ux]

    w_total = float(window_spectrum[0, 0].real)
    wf = w * f
    residual_spectrum = np.fft.fft2(wf)
    coeffs = np.zeros((size, size), dtype=np.complex128)

    energy = float(np.sum(wf * f))
    trace = [energy]
    threshold = params.stop_epsilon * energy

    # Work buffers reused by every iteration: squared real and imaginary
    # parts interleaved as they lie in memory, |residual|^2, and one
    # step * shifted-spectrum product.
    residual_parts = residual_spectrum.view(np.float64).reshape(-1)
    squares = np.empty(2 * size * size)
    mag2 = np.empty(size * size)
    prod = np.empty((size, size), dtype=np.complex128)
    gamma = params.orth_gamma

    iterations = 0
    while iterations < params.max_iterations and energy > threshold:
        np.square(residual_parts, out=squares)
        np.add(squares[0::2], squares[1::2], out=mag2)
        idx = int(mag2.argmax())
        if mag2[idx] == 0.0:
            break
        uy, ux = divmod(idx, size)
        conj_uy, conj_ux = (-uy) % size, (-ux) % size
        projection = residual_spectrum[uy, ux]
        if (uy, ux) == (conj_uy, conj_ux):
            # Self-conjugate bin (real basis function): real coefficient.
            step = gamma * projection.real / w_total
            coeffs[uy, ux] += step
            np.multiply(step, shifted(uy, ux), out=prod)
            np.subtract(residual_spectrum, prod, out=residual_spectrum)
            energy += step * step * w_total - 2.0 * step * projection.real
        else:
            step = gamma * projection / w_total
            coeffs[uy, ux] += step
            coeffs[conj_uy, conj_ux] += step.conjugate()
            np.multiply(step, shifted(uy, ux), out=prod)
            np.subtract(residual_spectrum, prod, out=residual_spectrum)
            np.multiply(step.conjugate(), shifted(conj_uy, conj_ux), out=prod)
            np.subtract(residual_spectrum, prod, out=residual_spectrum)
            # Python complex products round exactly as numpy's scalar ones
            # (re*re - im*im, re*im + im*re) at a fifth of the call cost.
            # The step keeps numpy's division, which rounds differently.
            s = complex(step)
            p = complex(projection)
            w_double = complex(window_spectrum[(2 * uy) % size, (2 * ux) % size])
            energy += (
                -4.0 * (s.conjugate() * p).real
                + 2.0 * (s * s.conjugate()).real * w_total
                + 2.0 * (s * s * w_double.conjugate()).real
            )
        energy = max(energy, 0.0)
        trace.append(energy)
        iterations += 1

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
    # The coefficients are conjugate-symmetric, so the imaginary part of the
    # spatial model is numerical noise.
    spatial = (np.fft.ifft2(coeffs) * (size * size)).real
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
    for plan in plan_tiles(holes, params):
        hy, hx = np.nonzero(
            holes[
                plan.tile_y : plan.tile_y + plan.tile_h,
                plan.tile_x : plan.tile_x + plan.tile_w,
            ]
        )
        fill, stats = _fill_one_tile(plan, hy, hx, values, holes, base_weights, params)
        if fill is None:
            logger.warning(
                "tile (%d,%d) has no available support; filling %d holes with 0",
                plan.tile_y,
                plan.tile_x,
                hy.size,
            )
            out[plan.tile_y + hy, plan.tile_x + hx] = 0.0
        else:
            out[plan.tile_y + hy, plan.tile_x + hx] = fill
        all_stats.append(stats)
    return UpdateField(values=out, hole_mask=holes), all_stats

"""Full-search block matching and motion-field serialization.

The search minimizes the sum of squared differences over all integer
displacements within the search window whose shifted block lies fully
inside the reference frame. Ties are broken deterministically: smaller
dx*dx + dy*dy first, then smaller dy, then smaller dx, so the zero vector
wins whenever it reaches the minimum cost.

How the search does its work:

* The window is clamped to |dx| < width and |dy| < height, since no block
  stays inside the frame under a larger shift; a search range beyond the
  frame costs nothing extra.
* Both frames are centred on one shared integer offset, the midpoint of
  their sample range. A common offset leaves every SSD unchanged and
  brings the largest magnitude down to M = ceil(span / 2), with span the
  largest difference between any two samples of the pair.
* Every cost is the exact integer sum(cur**2) + sum(ref**2) - 2 * cross,
  taken over the block's clipped extent at every shift; sum(cur**2) is
  the same at every shift of a block, so it is left out without moving
  the minimum. The cross terms of one block row come from one batched
  real FFT of its current blocks and one of their reference windows
  (both zero-padded to Ny x Nx, the smallest 2**a * 3**b >=
  block_size + 2 * range per axis, 48 x 48 at the defaults), one inverse
  transform of conj(C) * R and np.rint to int64. sum(ref**2) comes from
  an int64 integral image of the centred reference (it may wrap on huge
  frames, but every window sum fits in int64, so the differences are
  still exact modulo 2**64). Shifts whose block leaves the reference
  cost int64 max.
* The costs of each block are permuted into tie-break priority order and
  one argmin picks the winner: argmin returns the first minimum, which is
  the rule above.
* The rounding is exact while every computed cross term lies within 0.5
  of its integer value. With u = 2**-53, b = block_size, N = Ny * Nx and
  eps = 12 u log2(N), the error of each computed cross term is at most

      E = M**2 * b * sqrt(N) * (2 eps + 3 u + (eps + u) * b).

  A block c and its window r have ||c||_2 <= b M, ||c||_1 <= b**2 M and
  ||r||_2 <= sqrt(N) M. The terms of E, in order:
  - The forward transforms err by at most eps ||C||_2 and eps ||R||_2 in
    2-norm (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 24.2: log2(N) levels of eta = mu + gamma_4 (sqrt 2 + mu),
    about 6.7 u with twiddles accurate to u; times sqrt 2 because the
    inverse real transform extends the half spectrum Hermitian; rounded
    up to 12 u to cover second-order terms and radix-3 and radix-4
    passes charged as log2 of their radix). Each error reaches the
    output as the correlation of an error signal of 2-norm at most
    eps ||c||_2 (or eps ||r||_2) with r (or c), which Cauchy-Schwarz
    bounds by eps ||c||_2 ||r||_2 <= eps b sqrt(N) M**2 per entry.
  - The pointwise complex product errs by at most sqrt(2) gamma_2 < 3 u
    per bin, which the inverse turns into at most 3 u ||c||_2 ||r||_2.
  - The inverse transform and its 1/N scaling err by at most
    (eps + u) ||c * r||_2 <= (eps + u) ||c||_1 ||r||_2 (Young's
    inequality) <= (eps + u) b**2 sqrt(N) M**2.
  At the defaults (b = 16, N = 48**2) E is 3.4e-6 for 8-bit samples,
  8.7e-4 for 12-bit and 0.22 for 16-bit ones; the largest error seen on
  the 24 benchmark datasets (8-bit) is 9.3e-10. A pair whose E reaches
  0.5, such as subband-range samples of +-2**20, is searched by the
  direct loop below instead.
* The direct loop visits the candidates in tie-break priority order and
  changes a block's best vector only on a strictly smaller cost. Per
  candidate, one subtraction of the zero-padded current frame and a
  contiguous window of the zero-padded reference, an in-place square,
  zeroing past the frame edge and two block reductions give every
  block's cost, in int32 when block_size**2 * span**2 < 2**31 and int64
  otherwise.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .core import (
    DataFormatError,
    Frame,
    LiftConfig,
    MotionField,
    MotionVector,
    grid_dims,
)

_HEADER = struct.Struct("<HHH")
_VECTOR = struct.Struct("<hh")

_INT64_MAX = np.iinfo(np.int64).max
_UNIT_ROUNDOFF = 2.0**-53
# Error per log2 level of a real FFT and its inverse; see the module docstring.
_FFT_ETA = 12 * _UNIT_ROUNDOFF


def block_ssd(
    current: Frame,
    reference: Frame,
    block_origin: tuple[int, int],
    block_dims: tuple[int, int],
    v: MotionVector,
) -> int:
    """Sum of squared differences of one block against its shifted position."""
    x0, y0 = block_origin
    w, h = block_dims
    if w < 1 or h < 1:
        raise ValueError("block dims must be positive")
    if x0 < 0 or y0 < 0 or x0 + w > current.width or y0 + h > current.height:
        raise ValueError(f"block ({x0},{y0},{w},{h}) outside current frame")
    rx, ry = x0 + v.dx, y0 + v.dy
    if rx < 0 or ry < 0 or rx + w > reference.width or ry + h > reference.height:
        raise ValueError(
            f"shifted block ({rx},{ry},{w},{h}) outside reference frame"
        )
    cur = current.samples[y0 : y0 + h, x0 : x0 + w].astype(np.int64)
    ref = reference.samples[ry : ry + h, rx : rx + w].astype(np.int64)
    diff = cur - ref
    return int(np.sum(diff * diff))


def _candidate_order(range_y: int, range_x: int) -> np.ndarray:
    """Flat indices (dy + range_y) * (2 * range_x + 1) + dx + range_x of
    every candidate, in tie-break priority order."""
    dy, dx = np.indices((2 * range_y + 1, 2 * range_x + 1)).reshape(2, -1)
    dy -= range_y
    dx -= range_x
    return np.lexsort((dx, dy, dx * dx + dy * dy))


def _fft_length(n: int) -> int:
    """Smallest 2**a * 3**b >= n."""
    best, p3 = None, 1
    while True:
        length = p3
        while length < n:
            length *= 2
        best = length if best is None else min(best, length)
        if p3 >= n:
            return best
        p3 *= 3


def _cross_term_error_bound(
    magnitude: int, block_size: int, fft_shape: tuple[int, int]
) -> float:
    """A-priori bound on |computed - exact| of one FFT cross term, for
    centred samples of absolute value at most `magnitude`.

    The derivation is in the module docstring; the FFT search is used only
    while this stays below 0.5.
    """
    u = _UNIT_ROUNDOFF
    n = fft_shape[0] * fft_shape[1]
    eps = math.log2(n) * _FFT_ETA
    b = block_size
    return float(magnitude) ** 2 * b * math.sqrt(n) * (2 * eps + 3 * u + (eps + u) * b)


def _search_fft(
    cur: np.ndarray,
    ref: np.ndarray,
    bs: int,
    range_y: int,
    range_x: int,
    fft_shape: tuple[int, int],
    order: np.ndarray,
    centre: int,
) -> np.ndarray:
    """Flat candidate index of the best vector of every block, by FFT
    cross-correlation of the frames centred on `centre`."""
    from numpy import fft

    height, width = cur.shape
    blocks_x, blocks_y = grid_dims(width, height, bs)
    grid_h, grid_w = blocks_y * bs, blocks_x * bs
    win_h, win_w = bs + 2 * range_y, bs + 2 * range_x
    shifts_y, shifts_x = 2 * range_y + 1, 2 * range_x + 1

    # Zero past the frame edge: clipped blocks then correlate their clipped
    # extent only, and reference windows read zeros outside the frame.
    cur_p = np.zeros((grid_h, grid_w), dtype=np.int64)
    cur_p[:height, :width] = cur
    cur_p[:height, :width] -= centre
    ref_p = np.zeros((grid_h + 2 * range_y, grid_w + 2 * range_x), dtype=np.int64)
    inner = ref_p[range_y : range_y + height, range_x : range_x + width]
    inner[...] = ref
    inner -= centre
    integral = np.zeros((ref_p.shape[0] + 1, ref_p.shape[1] + 1), dtype=np.int64)
    ref_sq = np.square(ref_p, out=integral[1:, 1:])
    np.cumsum(np.cumsum(ref_sq, axis=0, out=ref_sq), axis=1, out=ref_sq)
    # Views: blocks[by, bx] is a block, windows[by, bx] its search window.
    blocks = cur_p.reshape(blocks_y, bs, blocks_x, bs).swapaxes(1, 2)
    windows = np.lib.stride_tricks.sliding_window_view(ref_p, (win_h, win_w))
    windows = windows[::bs, ::bs]

    # Shift index s = d + range: padded row y0 + sy is frame row y0 + dy.
    sy = np.arange(shifts_y)
    x0 = np.arange(blocks_x) * bs
    lo = x0[:, None] + np.arange(shifts_x)
    hi = lo + (np.minimum(x0 + bs, width) - x0)[:, None]
    invalid_x = (lo < range_x) | (hi > width + range_x)

    best = np.empty((blocks_y, blocks_x), dtype=np.int64)
    for by in range(blocks_y):
        y0 = by * bs
        h = min(bs, height - y0)
        spectrum = np.conjugate(fft.rfft2(blocks[by], s=fft_shape))
        spectrum *= fft.rfft2(windows[by], s=fft_shape)
        cross = fft.irfft2(spectrum, s=fft_shape)[:, :shifts_y, :shifts_x]

        band = integral[y0 + h + sy] - integral[y0 + sy]
        cost = (band[:, hi] - band[:, lo]).swapaxes(0, 1)
        cost -= 2 * np.rint(cross).astype(np.int64)
        invalid_y = (sy < range_y - y0) | (sy + h > height - y0 + range_y)
        cost[invalid_y[None, :, None] | invalid_x[:, None, :]] = _INT64_MAX
        best[by] = order[cost.reshape(blocks_x, -1)[:, order].argmin(axis=1)]
    return best


def _valid_blocks(
    starts: np.ndarray, ends: np.ndarray, extent: int, shift: int
) -> tuple[int, int]:
    """Index range [lo, hi) of the blocks along one axis that stay inside
    [0, extent) when shifted by `shift`; the valid blocks are contiguous."""
    ok = np.flatnonzero((starts + shift >= 0) & (ends + shift <= extent))
    return (int(ok[0]), int(ok[-1]) + 1) if ok.size else (0, 0)


def _search_direct(
    cur: np.ndarray,
    ref: np.ndarray,
    bs: int,
    range_y: int,
    range_x: int,
    span: int,
    order: np.ndarray,
) -> np.ndarray:
    """Flat candidate index of the best vector of every block, by one exact
    integer pass per candidate."""
    height, width = cur.shape
    blocks_x, blocks_y = grid_dims(width, height, bs)
    grid_h, grid_w = blocks_y * bs, blocks_x * bs
    acc = np.int32 if bs * bs * span * span < 2**31 else np.int64

    # Both frames share one row stride, so the reference window of every
    # candidate is a contiguous slice of the flattened padded reference.
    # Columns past grid_w hold wrapped-around samples and are never summed;
    # the spare reference row keeps the last window inside the buffer.
    stride = grid_w + 2 * range_x
    cur_p = np.zeros((grid_h, stride), dtype=acc)
    cur_p[:height, :width] = cur
    ref_p = np.zeros((grid_h + 2 * range_y + 1, stride), dtype=acc)
    ref_p[range_y : range_y + height, range_x : range_x + width] = ref
    cur_flat = cur_p.ravel()
    ref_flat = ref_p.ravel()
    sq = np.empty((grid_h, stride), dtype=acc)
    sq_flat = sq.ravel()
    row_sums = np.empty((blocks_y, stride), dtype=acc)
    costs = np.empty((blocks_y, blocks_x), dtype=acc)
    # A view, so it follows every in-place update of row_sums.
    block_sums = row_sums[:, :grid_w].reshape(blocks_y, blocks_x, bs)

    xs0 = np.arange(blocks_x) * bs
    ys0 = np.arange(blocks_y) * bs
    xs1 = np.minimum(xs0 + bs, width)
    ys1 = np.minimum(ys0 + bs, height)
    rows = [_valid_blocks(ys0, ys1, height, dy) for dy in range(-range_y, range_y + 1)]
    cols = [_valid_blocks(xs0, xs1, width, dx) for dx in range(-range_x, range_x + 1)]

    # Visiting candidates in priority order with a strict less-than update
    # realizes the full tie-break rule.
    best_cost = np.full((blocks_y, blocks_x), _INT64_MAX, dtype=np.int64)
    best = np.full((blocks_y, blocks_x), order[0], dtype=np.int64)
    for flat in order.tolist():
        sy, sx = divmod(flat, 2 * range_x + 1)
        r0, r1 = rows[sy]
        c0, c1 = cols[sx]
        if r0 == r1 or c0 == c1:
            continue
        offset = sy * stride + sx
        np.subtract(cur_flat, ref_flat[offset : offset + sq_flat.size], out=sq_flat)
        np.multiply(sq_flat, sq_flat, out=sq_flat)
        # Samples past the frame edge must add nothing to clipped blocks.
        if grid_h > height:
            sq[height:] = 0
        np.add.reduce(sq.reshape(blocks_y, bs, stride), axis=1, out=row_sums)
        if grid_w > width:
            row_sums[:, width:grid_w] = 0
        np.add.reduce(block_sums, axis=2, out=costs)

        # Only blocks whose shifted position stays inside the reference
        # take part; the others read padding and are skipped.
        cand = costs[r0:r1, c0:c1]
        best_here = best_cost[r0:r1, c0:c1]
        better = cand < best_here
        np.copyto(best_here, cand, where=better)
        np.copyto(best[r0:r1, c0:c1], flat, where=better)
    return best


def estimate_motion(current: Frame, reference: Frame, cfg: LiftConfig) -> MotionField:
    """Exhaustive SSD search for every block of the current frame.

    Candidate displacements that would read outside the reference frame are
    excluded, which keeps compensation and its inversion symmetric. Boundary
    blocks are matched over their clipped extent. Only cfg.block_size and
    cfg.search_range are read.
    """
    if not current.same_geometry(reference):
        raise ValueError("current and reference frames must share geometry")
    height, width = current.samples.shape
    bs = cfg.block_size
    blocks_x, blocks_y = grid_dims(width, height, bs)
    # No block stays inside the frame under a shift of a full frame extent.
    range_x = min(cfg.search_range, width - 1)
    range_y = min(cfg.search_range, height - 1)
    order = _candidate_order(range_y, range_x)

    cur = current.samples
    ref = reference.samples
    low = int(min(cur.min(), ref.min()))
    span = int(max(cur.max(), ref.max())) - low
    magnitude = (span + 1) // 2
    fft_shape = (_fft_length(bs + 2 * range_y), _fft_length(bs + 2 * range_x))
    if _cross_term_error_bound(magnitude, bs, fft_shape) < 0.5:
        best = _search_fft(
            cur, ref, bs, range_y, range_x, fft_shape, order, low + span // 2
        )
    else:
        best = _search_direct(cur, ref, bs, range_y, range_x, span, order)

    sy, sx = np.divmod(best.ravel(), 2 * range_x + 1)
    vectors = tuple(
        MotionVector(dx, dy)
        for dx, dy in zip((sx - range_x).tolist(), (sy - range_y).tolist())
    )
    return MotionField(bs, blocks_x, blocks_y, vectors)


def motion_to_bytes(field: MotionField) -> bytes:
    """Little-endian wire format: block_size/blocks_x/blocks_y u16, then dx/dy i16."""
    for name, value in (
        ("block_size", field.block_size),
        ("blocks_x", field.blocks_x),
        ("blocks_y", field.blocks_y),
    ):
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"{name} {value} does not fit u16")
    parts = [_HEADER.pack(field.block_size, field.blocks_x, field.blocks_y)]
    for v in field.vectors:
        if not (-32768 <= v.dx <= 32767 and -32768 <= v.dy <= 32767):
            raise ValueError(f"vector {v} does not fit i16")
        parts.append(_VECTOR.pack(v.dx, v.dy))
    return b"".join(parts)


def motion_from_bytes(data: bytes, offset: int = 0) -> tuple[MotionField, int]:
    """Parse one serialized motion field, returning it and the next offset."""
    if offset + _HEADER.size > len(data):
        raise DataFormatError(
            f"motion field header truncated at byte {offset}"
        )
    block_size, blocks_x, blocks_y = _HEADER.unpack_from(data, offset)
    if block_size < 1:
        raise DataFormatError(f"motion field block size 0 at byte {offset}")
    offset += _HEADER.size
    count = blocks_x * blocks_y
    need = count * _VECTOR.size
    if offset + need > len(data):
        raise DataFormatError(
            f"motion field vectors truncated at byte {offset} "
            f"(need {need} bytes for {count} vectors)"
        )
    raw = np.frombuffer(data, dtype="<i2", count=2 * count, offset=offset)
    offset += need
    vectors = tuple(
        MotionVector(int(raw[2 * i]), int(raw[2 * i + 1])) for i in range(count)
    )
    return MotionField(block_size, blocks_x, blocks_y, vectors), offset

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
  the minimum. The cross terms of one block row come from batched real
  FFTs of its current blocks and of their reference windows (both
  zero-padded to Ny x Nx, the smallest 2**a * 3**b >= block_size +
  2 * range per axis, 48 x 48 at the defaults; a block_size beyond a
  frame side is clipped to that side first, so memory grows with the
  frame, not with block_size), inverse transforms of the products
  conj(C) * R and np.rint to int64. sum(ref**2) comes from an int64
  integral image of the centred reference (it may wrap on huge frames,
  but every window sum fits in int64). All integer arithmetic is exact
  modulo 2**64, so every cost is exact while it fits in int64, which
  b**2 * span**2 < 2**63 guarantees (b = the clipped block_size).
  Shifts whose block leaves the reference cost int64 max.
* Each centred sample x is split into n balanced base-2**bits digits,
  x = sum_i d_i * 2**(bits * i), every digit but the last in
  [-2**(bits - 1), 2**(bits - 1)). Then cross = sum_k X_k * 2**(bits * k),
  where X_k sums the correlations of the t_k = min(k, n - 1) -
  max(0, k - n + 1) + 1 digit pairs (i, j) with i + j = k. The products
  of one weight k are added in the frequency domain and share one
  inverse transform; each X_k is rounded to int64 on its own and enters
  the cost as rint(X_k) << (bits * k + 1). n is the smallest count whose
  bound (below) stays under 0.5, with bits = ceil(L / n) for L the bit
  length of M; when even 1-bit digits miss it, the search raises
  ValueError. n = 1 is the plain search: the one digit is the centred
  sample itself, and its product is formed in place.
* The costs of each block are permuted into tie-break priority order and
  one argmin picks the winner: argmin returns the first minimum, which is
  the rule above.
* The rounding is exact while every computed X_k lies within 0.5 of its
  integer value. With u = 2**-53, N = Ny * Nx and eps = 12 u log2(N), the
  error of one correlation of digit planes of magnitude at most A is

      E(A) = A**2 * b * sqrt(N) * (2 eps + 3 u + (eps + u) * b).

  A block c and its window r have ||c||_2 <= b A, ||c||_1 <= b**2 A and
  ||r||_2 <= sqrt(N) A. The terms of E, in order:
  - The forward transforms err by at most eps ||C||_2 and eps ||R||_2 in
    2-norm (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 24.2: log2(N) levels of eta = mu + gamma_4 (sqrt 2 + mu),
    about 6.7 u with twiddles accurate to u; times sqrt 2 because the
    inverse real transform extends the half spectrum Hermitian; rounded
    up to 12 u to cover second-order terms and radix-3 and radix-4
    passes charged as log2 of their radix). Each error reaches the
    output as the correlation of an error signal of 2-norm at most
    eps ||c||_2 (or eps ||r||_2) with r (or c), which Cauchy-Schwarz
    bounds by eps ||c||_2 ||r||_2 <= eps b sqrt(N) A**2 per entry.
  - The pointwise complex product errs by at most sqrt(2) gamma_2 < 3 u
    per bin, which the inverse turns into at most 3 u ||c||_2 ||r||_2.
  - The inverse transform and its 1/N scaling err by at most
    (eps + u) ||c * r||_2 <= (eps + u) ||c||_1 ||r||_2 (Young's
    inequality) <= (eps + u) b**2 sqrt(N) A**2.
  The digit magnitudes: every digit but the last is at most
  min(2**(bits - 1), M); the last is at most m_(n-1), where m_0 = M and
  m_(i+1) = floor((m_i + 2**(bits - 1)) / 2**bits). A is the largest of
  them, M itself when n = 1. Weight k charges E(A) to each of its t_k
  products, plus the rounding of their sum: adding t_k spectra errs per
  bin by at most gamma_(t_k - 1) times the sum of their magnitudes,
  which the inverse turns into at most (t_k - 1) u t_k b sqrt(N) A**2,
  charged at 2 u for second-order terms. So

      E_k = t_k * (E(A) + 2 (t_k - 1) u b sqrt(N) A**2),

  largest at t_k = n, and E(M) when n = 1. At the defaults (b = 16,
  N = 48**2) E(M) is 3.4e-6 for 8-bit samples, 8.7e-4 for 12-bit and
  0.22 for 16-bit ones, so all of them take one digit; the largest error
  seen on the 24 benchmark datasets (8-bit) is 9.3e-10. Samples of
  +-2**20, or 16-bit ones at block_size 32, take two digits.
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

    This is E(magnitude) of the derivation in the module docstring.
    """
    u = _UNIT_ROUNDOFF
    n = fft_shape[0] * fft_shape[1]
    eps = math.log2(n) * _FFT_ETA
    b = block_size
    return float(magnitude) ** 2 * b * math.sqrt(n) * (2 * eps + 3 * u + (eps + u) * b)


def _digit_split(
    magnitude: int, block_size: int, fft_shape: tuple[int, int]
) -> tuple[int, int]:
    """(n, bits): the fewest balanced base-2**bits digits of centred samples
    of absolute value at most `magnitude` whose cross terms of every weight
    round exactly; see the module docstring."""
    width = max(magnitude.bit_length(), 1)
    root_n = math.sqrt(fft_shape[0] * fft_shape[1])
    for count in range(1, width + 1):
        bits = -(-width // count)
        half = 1 << (bits - 1)
        top = magnitude
        for _ in range(count - 1):
            top = (top + half) >> bits
        digit = max(top, min(half, magnitude))
        sum_error = 2 * (count - 1) * _UNIT_ROUNDOFF * block_size * root_n * digit**2
        bound = _cross_term_error_bound(digit, block_size, fft_shape)
        if count * (bound + sum_error) < 0.5:
            return count, bits
    raise ValueError(
        f"no digit split of samples of magnitude {magnitude} keeps the FFT "
        f"rounding bound below 0.5 at block size {block_size}"
    )


def _balanced_digits(x: np.ndarray, count: int, bits: int) -> list[np.ndarray]:
    """`count` planes d_i with x == sum(d_i << (bits * i)), every one but the
    last in [-2**(bits - 1), 2**(bits - 1)); one plane is `x` itself."""
    half = 1 << (bits - 1)
    digits = []
    for _ in range(count - 1):
        digit = ((x + half) & ((1 << bits) - 1)) - half
        x = (x - digit) >> bits
        digits.append(digit)
    digits.append(x)
    return digits


def _weight_spectra(
    blocks: list[np.ndarray], windows: list[np.ndarray], fft_shape: tuple[int, int]
) -> list[np.ndarray]:
    """Spectrum of the cross term of every digit weight k: the sum over
    i + j == k of conj(C_i) * R_j, for the digit planes of a block row in
    `blocks` and of its search windows in `windows`."""
    spec_c = [np.conjugate(np.fft.rfft2(c, s=fft_shape)) for c in blocks]
    spectra = [None] * (2 * len(blocks) - 1)
    for j, window in enumerate(windows):
        spec_r = np.fft.rfft2(window, s=fft_shape)
        for i, spec in enumerate(spec_c):
            if j == len(windows) - 1:
                spec *= spec_r  # the last read of conj(C_i): multiply in place
            else:
                spec = spec * spec_r
            if spectra[i + j] is None:
                spectra[i + j] = spec
            else:
                spectra[i + j] += spec
    return spectra


def _search(
    cur: np.ndarray, ref: np.ndarray, bs: int, range_y: int, range_x: int
) -> np.ndarray:
    """Flat candidate index of the best vector of every block, by FFT
    cross-correlation of the centred frames split into balanced digits."""
    height, width = cur.shape
    blocks_x, blocks_y = grid_dims(width, height, bs)
    # A block at least as tall (wide) as the frame is its one clipped block
    # row (column): clipping it keeps the padding and transforms to the frame.
    bh, bw = min(bs, height), min(bs, width)
    grid_h, grid_w = blocks_y * bh, blocks_x * bw
    win_h, win_w = bh + 2 * range_y, bw + 2 * range_x
    shifts_y, shifts_x = 2 * range_y + 1, 2 * range_x + 1
    order = _candidate_order(range_y, range_x)
    low = int(min(cur.min(), ref.min()))
    span = int(max(cur.max(), ref.max())) - low
    centre = low + span // 2
    fft_shape = (_fft_length(win_h), _fft_length(win_w))
    count, bits = _digit_split((span + 1) // 2, max(bh, bw), fft_shape)

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
    # Views: blocks[i][by, bx] is digit i of a block, windows[j][by, bx]
    # digit j of its search window.
    blocks = [
        d.reshape(blocks_y, bh, blocks_x, bw).swapaxes(1, 2)
        for d in _balanced_digits(cur_p, count, bits)
    ]
    windows = [
        np.lib.stride_tricks.sliding_window_view(d, (win_h, win_w))[::bh, ::bw]
        for d in _balanced_digits(ref_p, count, bits)
    ]

    # Shift index s = d + range: padded row y0 + sy is frame row y0 + dy.
    sy = np.arange(shifts_y)
    x0 = np.arange(blocks_x) * bw
    lo = x0[:, None] + np.arange(shifts_x)
    hi = lo + (np.minimum(x0 + bw, width) - x0)[:, None]
    invalid_x = (lo < range_x) | (hi > width + range_x)

    best = np.empty((blocks_y, blocks_x), dtype=np.int64)
    for by in range(blocks_y):
        y0 = by * bh
        h = min(bh, height - y0)
        crosses = [
            np.fft.irfft2(spectrum, s=fft_shape)[:, :shifts_y, :shifts_x]
            for spectrum in _weight_spectra(
                [d[by] for d in blocks], [d[by] for d in windows], fft_shape
            )
        ]
        band = integral[y0 + h + sy] - integral[y0 + sy]
        cost = (band[:, hi] - band[:, lo]).swapaxes(0, 1)
        for k, cross in enumerate(crosses):
            cost -= np.rint(cross).astype(np.int64) << (bits * k + 1)
        invalid_y = (sy < range_y - y0) | (sy + h > height - y0 + range_y)
        cost[invalid_y[None, :, None] | invalid_x[:, None, :]] = _INT64_MAX
        best[by] = order[cost.reshape(blocks_x, -1)[:, order].argmin(axis=1)]
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
    # No block stays inside the frame under a shift of a full frame extent.
    range_x = min(cfg.search_range, width - 1)
    range_y = min(cfg.search_range, height - 1)
    best = _search(current.samples, reference.samples, cfg.block_size, range_y, range_x)
    sy, sx = np.divmod(best, 2 * range_x + 1)
    return MotionField(cfg.block_size, np.stack((sx - range_x, sy - range_y), axis=-1))


def motion_to_bytes(field: MotionField) -> bytes:
    """Little-endian wire format: block_size/blocks_x/blocks_y u16, then the
    dx/dy i16 of every block in raster order."""
    for name, value in (
        ("block_size", field.block_size),
        ("blocks_x", field.blocks_x),
        ("blocks_y", field.blocks_y),
    ):
        if not 0 <= value <= 0xFFFF:
            raise ValueError(f"{name} {value} does not fit u16")
    # Checked before the cast, which wraps silently.
    outside = ((field.vectors < -32768) | (field.vectors > 32767)).any(axis=2)
    if outside.any():
        by, bx = np.argwhere(outside)[0].tolist()
        v = field.vector_at(bx, by)
        raise ValueError(f"block ({bx},{by}) vector {v} does not fit i16")
    header = _HEADER.pack(field.block_size, field.blocks_x, field.blocks_y)
    return header + field.vectors.astype("<i2").tobytes()


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
    return MotionField(block_size, raw.reshape(blocks_y, blocks_x, 2)), offset + need

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
* Candidates are visited in tie-break priority order, and a block's best
  vector only changes on a strictly smaller cost, so the first minimum in
  that order wins.
* Per candidate, the whole frame is handled by a few array reductions on
  preallocated frame-sized buffers: one subtraction of the zero-padded
  current frame and a contiguous window of the zero-padded reference,
  an in-place square, zeroing of the samples past the frame edge (so
  clipped boundary blocks sum their clipped extent), a sum over the rows
  of each block row and a sum over the columns of each block. Blocks whose
  shifted position leaves the reference are excluded from the update.
* Costs are exact integers: int32 when block_size**2 * span**2 < 2**31,
  with span the largest difference between any two samples of the pair
  (at most 2**bit_depth - 1 for original frames), int64 otherwise.
"""

from __future__ import annotations

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


def _candidate_order(range_y: int, range_x: int) -> list[tuple[int, int]]:
    # Visiting candidates in tie-break priority order lets the search use a
    # strict less-than update and still realize the full tie-break rule.
    cands = [
        (dy, dx)
        for dy in range(-range_y, range_y + 1)
        for dx in range(-range_x, range_x + 1)
    ]
    cands.sort(key=lambda c: (c[0] * c[0] + c[1] * c[1], c[0], c[1]))
    return cands


def _valid_blocks(
    starts: np.ndarray, ends: np.ndarray, extent: int, shift: int
) -> tuple[int, int]:
    """Index range [lo, hi) of the blocks along one axis that stay inside
    [0, extent) when shifted by `shift`; the valid blocks are contiguous."""
    ok = np.flatnonzero((starts + shift >= 0) & (ends + shift <= extent))
    return (int(ok[0]), int(ok[-1]) + 1) if ok.size else (0, 0)


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
    grid_h, grid_w = blocks_y * bs, blocks_x * bs
    # No block stays inside the frame under a shift of a full frame extent.
    range_x = min(cfg.search_range, width - 1)
    range_y = min(cfg.search_range, height - 1)

    cur = current.samples
    ref = reference.samples
    span = int(max(cur.max(), ref.max())) - int(min(cur.min(), ref.min()))
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
    rows = {dy: _valid_blocks(ys0, ys1, height, dy) for dy in range(-range_y, range_y + 1)}
    cols = {dx: _valid_blocks(xs0, xs1, width, dx) for dx in range(-range_x, range_x + 1)}

    order = _candidate_order(range_y, range_x)
    best_cost = np.full((blocks_y, blocks_x), np.iinfo(np.int64).max, dtype=np.int64)
    best_index = np.zeros((blocks_y, blocks_x), dtype=np.int64)
    for k, (dy, dx) in enumerate(order):
        r0, r1 = rows[dy]
        c0, c1 = cols[dx]
        if r0 == r1 or c0 == c1:
            continue
        offset = (range_y + dy) * stride + range_x + dx
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
        best = best_cost[r0:r1, c0:c1]
        better = cand < best
        np.copyto(best, cand, where=better)
        np.copyto(best_index[r0:r1, c0:c1], k, where=better)

    vectors = tuple(
        MotionVector(order[k][1], order[k][0]) for k in best_index.ravel().tolist()
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

import struct
from typing import Iterator, NamedTuple

import numpy as np
import pytest
from hypothesis import strategies as st

from mclift.core import Frame, MotionField, compensation_source, grid_dims
from mclift.imc import imc_scatter
from mclift.lifting import mc_predict


def make_frame(rng: np.random.Generator, width: int, height: int, bit_depth: int) -> Frame:
    samples = rng.integers(0, 1 << bit_depth, size=(height, width), dtype=np.int32)
    return Frame(samples, bit_depth)


def make_pair(rng: np.random.Generator, width: int, height: int, bit_depth: int):
    return (
        make_frame(rng, width, height, bit_depth),
        make_frame(rng, width, height, bit_depth),
    )


def motion_field(block_size: int, blocks_x: int, blocks_y: int, vectors) -> MotionField:
    """A motion field from its (dx, dy) pairs listed in raster order."""
    grid = np.array(vectors, dtype=np.int64).reshape(blocks_y, blocks_x, 2)
    return MotionField(block_size, grid)


def predict(reference: Frame, motion: MotionField) -> Frame:
    """`mc_predict` through the compensation map of `motion`."""
    return mc_predict(
        reference, compensation_source(motion, reference.width, reference.height)
    )


def scatter(highpass: Frame, motion: MotionField):
    """`imc_scatter` along the compensation map of `motion`: (sums, conn)."""
    return imc_scatter(
        highpass, compensation_source(motion, highpass.width, highpass.height)
    )


class BlockRegion(NamedTuple):
    """One block of the compensation grid, clipped to the frame."""

    index: int
    bx: int
    by: int
    x0: int
    y0: int
    w: int
    h: int


def iter_blocks(width: int, height: int, block_size: int) -> Iterator[BlockRegion]:
    """The blocks of the grid in raster order, for per-block oracles."""
    blocks_x, blocks_y = grid_dims(width, height, block_size)
    index = 0
    for by in range(blocks_y):
        y0 = by * block_size
        h = min(block_size, height - y0)
        for bx in range(blocks_x):
            x0 = bx * block_size
            w = min(block_size, width - x0)
            yield BlockRegion(index, bx, by, x0, y0, w, h)
            index += 1


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


# Boundary values that break counts, dimensions and parameters.
BOGUS_VALUES = {
    "<B": (0, 1, 0xFF),
    "<H": (0, 1, 0xFFFF),
    "<I": (0, 1, 0xFFFFFFFF),
    "<d": (0.0, -1.0, float("nan"), float("inf")),
}


def overwrite(payload: bytes, offset: int, fmt: str, value) -> bytes:
    out = bytearray(payload)
    packed = struct.pack(fmt, value)
    out[offset : offset + len(packed)] = packed
    return bytes(out)


def hostile_edits(payload: bytes, field_offsets: list[int]):
    """Every truncation of `payload`, then every bogus value of BOGUS_VALUES
    written where a count, dimension or parameter lives (`field_offsets`)."""
    for end in range(len(payload)):
        yield payload[:end]
    for offset in field_offsets:
        for fmt, values in BOGUS_VALUES.items():
            for value in values:
                yield overwrite(payload, offset, fmt, value)


def corrupt(data, payload: bytes, field_offsets: list[int]) -> bytes:
    """One random hostile edit of `payload`, drawn through hypothesis `data`:
    a truncation, a flipped byte, or a u8/u16/u32/f64 value written at a
    field offset or anywhere."""
    edit = data.draw(st.sampled_from(["truncate", "flip", "overwrite"]))
    if edit == "truncate":
        return payload[: data.draw(st.integers(0, len(payload) - 1))]
    if edit == "flip":
        out = bytearray(payload)
        out[data.draw(st.integers(0, len(out) - 1))] ^= data.draw(st.integers(1, 255))
        return bytes(out)
    offset = data.draw(
        st.one_of(st.sampled_from(field_offsets), st.integers(0, len(payload) - 1))
    )
    fmt = data.draw(st.sampled_from(sorted(BOGUS_VALUES)))
    if fmt == "<d":
        value = data.draw(st.floats(allow_nan=True, allow_infinity=True))
    else:
        value = data.draw(st.integers(0, (1 << 8 * struct.calcsize(fmt)) - 1))
    return overwrite(payload, offset, fmt, value)

"""Shared domain types for the motion-compensated lifting toolkit.

Frames are 2-D integer sample grids. Subband frames (highpass, lowpass)
may carry negative or widened values, so storage is always signed int32,
which leaves headroom beyond the nominal bit depth of the source data.
All value objects are frozen after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, NamedTuple

import numpy as np


class DataFormatError(ValueError):
    """Malformed external data (raw files, sidecars, containers, payloads)."""


class VerificationError(Exception):
    """A reconstruction that does not match the checksum it must match."""


class UpdateMode(Enum):
    """Treatment of the inverse-compensated highpass signal in the update step."""

    NO_UPDATE = 0
    COPY_UNCONNECTED = 1
    FSE_FILL = 2


# CLI spelling of each mode: "none" skips the update step entirely, "block"
# is the connectivity-weighted update with unconnected pixels left untouched,
# "block+fse" additionally fills the unconnected pixels by extrapolation.
MODE_CLI_NAMES = {
    UpdateMode.NO_UPDATE: "none",
    UpdateMode.COPY_UNCONNECTED: "block",
    UpdateMode.FSE_FILL: "block+fse",
}
MODE_FROM_CLI = {name: mode for mode, name in MODE_CLI_NAMES.items()}


def floor_samples(values: np.ndarray) -> np.ndarray:
    """Elementwise arithmetic floor of a real-valued grid, as int64.

    Truncation would break bit-exact inversion for negative update values,
    so the lifting steps round toward minus infinity.
    """
    return np.floor(values).astype(np.int64)


def _freeze(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Frame:
    """2-D integer sample grid with bit depth.

    ``samples`` is (height, width), row-major. Original frames satisfy
    ``0 <= sample < 2**bit_depth``; subband frames may exceed that range
    in both directions.
    """

    samples: np.ndarray
    bit_depth: int

    def __post_init__(self) -> None:
        raw = np.asarray(self.samples)
        if raw.ndim != 2:
            raise ValueError(f"frame samples must be 2-D, got shape {raw.shape}")
        if raw.size == 0:
            raise ValueError("frame must contain at least one sample")
        if not np.issubdtype(raw.dtype, np.integer):
            raise TypeError(f"frame samples must be integers, got dtype {raw.dtype}")
        if not 1 <= int(self.bit_depth) <= 16:
            raise ValueError(f"bit depth must be in [1, 16], got {self.bit_depth}")
        arr = np.array(raw, dtype=np.int32, order="C")
        object.__setattr__(self, "samples", _freeze(arr))
        object.__setattr__(self, "bit_depth", int(self.bit_depth))

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def max_value(self) -> int:
        return (1 << self.bit_depth) - 1

    def same_geometry(self, other: "Frame") -> bool:
        return (
            self.samples.shape == other.samples.shape
            and self.bit_depth == other.bit_depth
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.bit_depth == other.bit_depth and np.array_equal(
            self.samples, other.samples
        )

    def __repr__(self) -> str:
        return f"Frame({self.width}x{self.height}, {self.bit_depth}-bit)"


@dataclass(frozen=True, eq=False)
class Sequence:
    """Ordered frames of identical geometry along one axis (time or slice)."""

    frames: tuple[Frame, ...]
    axis_label: str = "time"

    def __post_init__(self) -> None:
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("sequence must contain at least one frame")
        first = frames[0]
        for i, f in enumerate(frames[1:], start=1):
            if not first.same_geometry(f):
                raise ValueError(
                    f"frame {i} geometry {f.width}x{f.height}/{f.bit_depth}-bit "
                    f"differs from frame 0"
                )
        object.__setattr__(self, "frames", frames)

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    @property
    def bit_depth(self) -> int:
        return self.frames[0].bit_depth

    def __len__(self) -> int:
        return len(self.frames)

    def __iter__(self) -> Iterator[Frame]:
        return iter(self.frames)

    def __getitem__(self, i: int) -> Frame:
        return self.frames[i]


class MotionVector(NamedTuple):
    dx: int
    dy: int


def grid_dims(width: int, height: int, block_size: int) -> tuple[int, int]:
    """Number of blocks along x and y; boundary blocks are clipped."""
    return -(-width // block_size), -(-height // block_size)


@dataclass(frozen=True, eq=False)
class MotionField:
    """Per-block integer displacements into the reference frame.

    ``vectors`` is (blocks_y, blocks_x, 2), int64: the (dx, dy) of every
    block, the blocks in raster order.
    """

    block_size: int
    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        raw = np.asarray(self.vectors)
        if not np.issubdtype(raw.dtype, np.integer):
            raise TypeError(f"motion vectors must be integers, got dtype {raw.dtype}")
        if raw.ndim != 3 or raw.shape[2] != 2:
            raise ValueError(f"motion vector shape {raw.shape} is not (by, bx, 2)")
        object.__setattr__(self, "vectors", _freeze(raw.astype(np.int64)))

    @property
    def blocks_x(self) -> int:
        return self.vectors.shape[1]

    @property
    def blocks_y(self) -> int:
        return self.vectors.shape[0]

    def vector_at(self, bx: int, by: int) -> MotionVector:
        return MotionVector(*self.vectors[by, bx].tolist())

    def matches_frame(self, width: int, height: int) -> bool:
        return (self.blocks_x, self.blocks_y) == grid_dims(
            width, height, self.block_size
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MotionField):
            return NotImplemented
        return self.block_size == other.block_size and np.array_equal(
            self.vectors, other.vectors
        )


def compensation_source(motion: MotionField, width: int, height: int) -> np.ndarray:
    """The block compensation as one map: for every pixel (y, x) of the
    current frame, the flat index (y + dy) * width + (x + dx) of the
    reference pixel that the vector (dx, dy) of its block points at.

    The pair functions build it once per pair: prediction gathers through
    it and the update step scatters back along it. Memory grows with the
    frame, not with the block size: the per-block shifts are expanded by
    the blocks' clipped extents. Raises
    ValueError if the field's grid does not match the frame, or naming the
    first block in raster order whose clipped extent lands outside it.
    """
    if not motion.matches_frame(width, height):
        raise ValueError("motion field geometry does not match frame")
    bs = motion.block_size
    dx, dy = motion.vectors.transpose(2, 0, 1)
    x0 = np.arange(motion.blocks_x) * bs
    y0 = np.arange(motion.blocks_y)[:, None] * bs
    w = np.minimum(bs, width - x0)
    h = np.minimum(bs, height - y0)
    outside = (x0 + dx < 0) | (x0 + w + dx > width)
    outside |= (y0 + dy < 0) | (y0 + h + dy > height)
    if outside.any():
        by, bx = np.argwhere(outside)[0].tolist()
        v = motion.vector_at(bx, by)
        raise ValueError(f"block ({bx},{by}) vector {v} lands outside the frame")
    source = np.repeat(np.repeat(dy * width + dx, h[:, 0], axis=0), w, axis=1)
    source += np.arange(height * width).reshape(height, width)
    return source


@dataclass(frozen=True, eq=False)
class ConnectivityMap:
    """Per-pixel count of contributing blocks after inverting the compensation.

    k == 0 marks unconnected pixels (holes), k == 1 one-connected,
    k >= 2 multiple-connected.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.counts, dtype=np.int32, order="C")
        if arr.ndim != 2:
            raise ValueError("connectivity counts must be 2-D")
        if arr.min() < 0:
            raise ValueError("connectivity counts must be non-negative")
        object.__setattr__(self, "counts", _freeze(arr))

    @property
    def height(self) -> int:
        return self.counts.shape[0]

    @property
    def width(self) -> int:
        return self.counts.shape[1]

    @property
    def hole_mask(self) -> np.ndarray:
        return self.counts == 0


@dataclass(frozen=True, eq=False)
class UpdateField:
    """Real-valued update signal with a mask of unconnected (hole) pixels."""

    values: np.ndarray
    hole_mask: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64, order="C")
        mask = np.array(self.hole_mask, dtype=bool, order="C")
        if vals.ndim != 2:
            raise ValueError("update values must be 2-D")
        if mask.shape != vals.shape:
            raise ValueError(
                f"hole mask shape {mask.shape} != values shape {vals.shape}"
            )
        object.__setattr__(self, "values", _freeze(vals))
        object.__setattr__(self, "hole_mask", _freeze(mask))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


# Upper bounds on the work one FSE tile may ask for. A container carries its
# FSE parameters, so these bounds also cap what a hostile file can make the
# decoder allocate (a few fft_size^2 grids per tile) and iterate.
FSE_MAX_FFT_SIZE = 256
FSE_MAX_ITERATIONS = 10_000
# Upper bound on fft_size^2 * max_iterations / tile_size^2, the transform
# work per hole pixel. 16000 is its value at tile 16, border 16 and 1000
# iterations, the default geometry and budget of earlier releases, so their
# containers still decode (today's defaults, tile 40, border 12 and 100
# iterations, give 256). Tile 1, border 127 and 10000 iterations would ask
# for ~41000x more, ~1.75 s of decoding per hole pixel.
FSE_MAX_WORK_PER_PIXEL = 16_000


@dataclass(frozen=True)
class FseParams:
    """Configuration of the spectral hole-filling stage.

    tile_size is the edge of a hole-owning processing block, border the
    support margin included on each side. The transform edge fft_size is
    the smallest power of two that holds tile_size + 2*border, at most
    FSE_MAX_FFT_SIZE. The default tile 40 with border 12 spans the 64-point
    transform exactly; README "FSE tile geometry" gives the measurements it
    was chosen by. decay_rho controls the spatial weighting falloff from
    the tile center and orth_gamma damps each greedy coefficient update.
    A tile stops after max_iterations greedy steps, or earlier once its
    residual energy falls below stop_epsilon times its start.
    """

    tile_size: int = 40
    border: int = 12
    decay_rho: float = 0.8
    orth_gamma: float = 0.5
    max_iterations: int = 100
    stop_epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.tile_size < 1:
            raise ValueError("tile_size must be >= 1")
        if self.border < 0:
            raise ValueError("border must be >= 0")
        if not 0.0 < self.decay_rho < 1.0:
            raise ValueError("decay_rho must be in (0, 1)")
        if not 0.0 < self.orth_gamma <= 1.0:
            raise ValueError("orth_gamma must be in (0, 1]")
        if self.fft_size > FSE_MAX_FFT_SIZE:
            raise ValueError(
                f"fft_size {self.fft_size} for tile_size {self.tile_size} and "
                f"border {self.border} exceeds {FSE_MAX_FFT_SIZE}"
            )
        if not 1 <= self.max_iterations <= FSE_MAX_ITERATIONS:
            raise ValueError(f"max_iterations must be in [1, {FSE_MAX_ITERATIONS}]")
        work = self.fft_size**2 * self.max_iterations
        if work > FSE_MAX_WORK_PER_PIXEL * self.tile_size**2:
            raise ValueError(
                f"FSE work per pixel fft_size^2 * max_iterations / tile_size^2 = "
                f"{work / self.tile_size**2:.0f} exceeds {FSE_MAX_WORK_PER_PIXEL}"
            )
        if not 0.0 <= self.stop_epsilon < math.inf:
            raise ValueError("stop_epsilon must be finite and >= 0")

    @property
    def fft_size(self) -> int:
        return 1 << (self.tile_size + 2 * self.border - 1).bit_length()


@dataclass(frozen=True)
class LiftConfig:
    """Pipeline configuration for one decomposition level.

    block_size and search_range drive the motion search; the update mode
    and the FSE parameters drive the update step.
    """

    block_size: int = 16
    search_range: int = 15
    update_mode: UpdateMode = UpdateMode.FSE_FILL
    fse: FseParams = field(default_factory=FseParams)

    def __post_init__(self) -> None:
        # The container stores block_size as u16.
        if not 1 <= self.block_size <= 0xFFFF:
            raise ValueError(f"block_size must be in [1, 65535], got {self.block_size}")
        if self.search_range < 0:
            raise ValueError("search_range must be >= 0")

"""Quality and rate measurement for subband outputs.

The built-in lossless coder stands in for an external wavelet-coefficient
codec: a horizontal-predictor residual pass followed by a deflate entropy
stage, tagged with a codec id byte so another coder can be plugged in
behind the same payload interface.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .core import ConnectivityMap, DataFormatError, Frame

CODEC_HDIFF_DEFLATE = 1

_PAYLOAD_HEADER = struct.Struct("<BBHHB")


def psnr(a: Frame, b: Frame) -> float:
    """Peak signal-to-noise ratio in dB; math.inf for identical frames."""
    if not a.same_geometry(b):
        raise ValueError("psnr requires frames of identical geometry")
    diff = a.samples.astype(np.int64) - b.samples
    mse = float(np.mean(diff.astype(np.float64) ** 2))
    if mse == 0.0:
        return math.inf
    peak = float(a.max_value)
    return 10.0 * math.log10(peak * peak / mse)


def boundary_step_metric(lowpass: Frame, conn: ConnectivityMap) -> float:
    """Mean absolute sample step across hole boundaries in the lowpass band.

    A boundary is a 4-neighbor pixel pair with exactly one side unconnected.
    Returns 0.0 when no such pair exists.
    """
    if (conn.height, conn.width) != lowpass.samples.shape:
        raise ValueError("connectivity map geometry does not match frame")
    hole = conn.counts == 0
    lp = lowpass.samples.astype(np.int64)

    horiz = hole[:, :-1] ^ hole[:, 1:]
    vert = hole[:-1, :] ^ hole[1:, :]
    steps = np.concatenate(
        [
            np.abs(lp[:, :-1] - lp[:, 1:])[horiz],
            np.abs(lp[:-1, :] - lp[1:, :])[vert],
        ]
    )
    if steps.size == 0:
        return 0.0
    return float(steps.mean())


def _residuals(samples: np.ndarray) -> np.ndarray:
    # Horizontal predictor; the first column is predicted from the row above.
    s = samples.astype(np.int64)
    r = s.copy()
    r[:, 1:] -= s[:, :-1]
    r[1:, 0] -= s[:-1, 0]
    return r


def _unresiduals(r: np.ndarray) -> np.ndarray:
    acc = r.astype(np.int64).copy()
    acc[:, 0] = np.cumsum(acc[:, 0])
    return np.cumsum(acc, axis=1)


def encode_lossless(frame: Frame) -> bytes:
    """Self-contained lossless payload; decode_lossless inverts it bit-exactly."""
    r = _residuals(frame.samples)
    if -32768 <= r.min() and r.max() <= 32767:
        sample_width = 2
        body = r.astype("<i2").tobytes()
    else:
        sample_width = 4
        body = r.astype("<i4").tobytes()
    header = _PAYLOAD_HEADER.pack(
        CODEC_HDIFF_DEFLATE, frame.bit_depth, frame.width, frame.height, sample_width
    )
    return header + zlib.compress(body, 9)


def decode_lossless(payload: bytes) -> Frame:
    if len(payload) < _PAYLOAD_HEADER.size:
        raise DataFormatError("payload shorter than its header")
    codec_id, bit_depth, width, height, sample_width = _PAYLOAD_HEADER.unpack_from(
        payload, 0
    )
    if codec_id != CODEC_HDIFF_DEFLATE:
        raise DataFormatError(f"unknown codec id {codec_id}")
    if sample_width not in (2, 4):
        raise DataFormatError(f"invalid sample width {sample_width}")
    if not 1 <= bit_depth <= 16:
        raise DataFormatError(f"invalid bit depth {bit_depth}")
    if width < 1 or height < 1:
        raise DataFormatError(f"invalid dimensions {width}x{height}")
    expected = width * height * sample_width
    # Inflate at most one byte past the expected size, so a stream that
    # expands further cannot exhaust memory.
    inflater = zlib.decompressobj()
    try:
        body = inflater.decompress(payload[_PAYLOAD_HEADER.size :], expected + 1)
    except zlib.error as exc:
        raise DataFormatError(f"corrupt deflate stream: {exc}") from exc
    if len(body) != expected:
        raise DataFormatError(
            f"payload body {len(body)} bytes, expected {expected}"
        )
    if not inflater.eof or inflater.unused_data:
        raise DataFormatError("deflate stream truncated or followed by extra bytes")
    dtype = "<i2" if sample_width == 2 else "<i4"
    r = np.frombuffer(body, dtype=dtype).reshape(height, width)
    return Frame(_unresiduals(r).astype(np.int32), bit_depth)


def raw_frame_bytes(frame: Frame) -> int:
    """Size of the frame in its raw storage format (1 or 2 bytes a sample)."""
    per_sample = 1 if frame.bit_depth <= 8 else 2
    return frame.width * frame.height * per_sample

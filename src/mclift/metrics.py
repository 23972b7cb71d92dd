"""Quality and rate measurement for subband outputs.

The built-in lossless coder stands in for an external wavelet-coefficient
codec. It is tagged with a codec id byte so another coder can be plugged
in behind the same payload interface. Codec 2, the only one read:

1. horizontal-predictor residuals (the first column is predicted from the
   row above);
2. the LOCO-I/JPEG-LS error mapping ("zigzag": 0, -1, 1, -2, ... become
   0, 1, 2, 3, ...) onto unsigned integers of 2 bytes when every residual
   fits int16, else of 4 bytes after wrapping the residual to int32;
3. byte planes: every low byte first, then the next byte, and so on;
4. deflate at level 9 with the run-length strategy ``Z_RLE``.

The payload is only measured (its length is the rate figure), so the
coded lengths are those of the zlib build in use; another zlib may match
runs differently and give other lengths, while every build decodes every
payload.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .core import ConnectivityMap, DataFormatError, Frame

CODEC_ZIGZAG_PLANES_RLE = 2

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


def _zigzag(r: np.ndarray, sample_width: int) -> np.ndarray:
    # Wrap to the signed width first. Residuals past the int32 range stay
    # exact because decoding sums them and wraps the samples mod 2**32.
    signed = r.astype(f"<i{sample_width}")
    shift = 8 * sample_width - 1
    unsigned = f"<u{sample_width}"
    return (signed.astype(unsigned) << 1) ^ (signed >> shift).astype(unsigned)


def _unzigzag(z: np.ndarray) -> np.ndarray:
    return ((z >> 1) ^ (0 - (z & 1))).view(f"<i{z.itemsize}")


def encode_lossless(frame: Frame) -> bytes:
    """Self-contained lossless payload; decode_lossless inverts it bit-exactly."""
    r = _residuals(frame.samples)
    sample_width = 2 if -32768 <= r.min() and r.max() <= 32767 else 4
    z = _zigzag(r, sample_width)
    planes = z.reshape(-1).view(np.uint8).reshape(-1, sample_width).T.tobytes()
    deflater = zlib.compressobj(9, zlib.DEFLATED, 15, 8, zlib.Z_RLE)
    header = _PAYLOAD_HEADER.pack(
        CODEC_ZIGZAG_PLANES_RLE, frame.bit_depth, frame.width, frame.height, sample_width
    )
    return header + deflater.compress(planes) + deflater.flush()


def decode_lossless(payload: bytes) -> Frame:
    if len(payload) < _PAYLOAD_HEADER.size:
        raise DataFormatError("payload shorter than its header")
    codec_id, bit_depth, width, height, sample_width = _PAYLOAD_HEADER.unpack_from(
        payload, 0
    )
    if codec_id != CODEC_ZIGZAG_PLANES_RLE:
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
    planes = np.frombuffer(body, dtype=np.uint8).reshape(sample_width, -1)
    z = planes.T.copy().view(f"<u{sample_width}").reshape(height, width)
    return Frame(_unresiduals(_unzigzag(z)).astype(np.int32), bit_depth)


def raw_frame_bytes(frame: Frame) -> int:
    """Size of the frame in its raw storage format (1 or 2 bytes a sample)."""
    per_sample = 1 if frame.bit_depth <= 8 else 2
    return frame.width * frame.height * per_sample

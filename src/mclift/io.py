"""Raw sequence, sidecar, and diagnostic image I/O, and the one file writer.

Datasets are raw sample planes plus a JSON sidecar describing geometry:
{"width", "height", "bit_depth", "frames", "axis", "data"}. 8-bit data is
one byte per sample; larger depths use two bytes little-endian. There is
no container parsing here; synthetic sequences come from the fixtures
module instead.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .core import ConnectivityMap, DataFormatError, Frame, Sequence, UpdateField

SIDECAR_KEYS = ("width", "height", "bit_depth", "frames", "axis", "data")
# JSON type of each sidecar value: four integers, then two strings.
_SIDECAR_TYPES = dict(zip(SIDECAR_KEYS, (int, int, int, int, str, str)))


def _bytes_per_sample(bit_depth: int) -> int:
    return 1 if bit_depth <= 8 else 2


def frames_from_raw(
    data: bytes, width: int, height: int, bit_depth: int, frame_count: int
) -> list[Frame]:
    if width < 1 or height < 1:
        raise DataFormatError(f"invalid frame dimensions {width}x{height}")
    # The container and the rate coder store each dimension as a u16.
    if width > 0xFFFF or height > 0xFFFF:
        raise DataFormatError(
            f"frame dimensions {width}x{height} exceed the limit of 65535 per side"
        )
    bps = _bytes_per_sample(bit_depth)
    frame_bytes = width * height * bps
    need = frame_count * frame_bytes
    if len(data) < need:
        raise DataFormatError(
            f"raw data too short: {len(data)} bytes, need {need} "
            f"(truncated at frame {len(data) // frame_bytes})"
        )
    dtype = np.uint8 if bps == 1 else np.dtype("<u2")
    limit = 1 << bit_depth
    frames = []
    for i in range(frame_count):
        flat = np.frombuffer(
            data, dtype=dtype, count=width * height, offset=i * frame_bytes
        )
        if flat.max(initial=0) >= limit:
            raise DataFormatError(
                f"frame {i}: sample {int(flat.max())} out of range for "
                f"{bit_depth}-bit data"
            )
        frames.append(Frame(flat.reshape(height, width).astype(np.int32), bit_depth))
    return frames


def read_raw_sequence(
    path, width: int, height: int, bit_depth: int, frame_count: int,
    axis_label: str = "time",
) -> Sequence:
    data = Path(path).read_bytes()
    frames = frames_from_raw(data, width, height, bit_depth, frame_count)
    return Sequence(tuple(frames), axis_label=axis_label)


def sequence_to_raw_bytes(seq: Sequence) -> bytes:
    bps = _bytes_per_sample(seq.bit_depth)
    limit = 1 << seq.bit_depth
    chunks = []
    for i, frame in enumerate(seq):
        s = frame.samples
        if s.min() < 0 or s.max() >= limit:
            raise ValueError(
                f"frame {i} has samples outside [0, {limit}); "
                "only original-range frames can be written raw"
            )
        chunks.append(s.astype(np.uint8 if bps == 1 else "<u2").tobytes())
    return b"".join(chunks)


def write_file(path, payload: bytes) -> None:
    """Write `payload` to `path` as `open(path, "wb")` would, without O_TRUNC.

    Every file the package writes goes through here. On ext4 mounted with
    `discard`, an open with O_TRUNC of a file that holds data takes 50-80 ms
    by itself; overwriting in place and cutting a stale tail afterwards
    takes microseconds. The outcome is the same: the same inode, the umask
    applied on creation, symlinks followed, exactly `payload` left behind.
    Only a file that was longer than `payload` is truncated, so character
    devices and pipes (which cannot be truncated) still work.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(payload)
        if os.fstat(fd).st_size > len(payload):
            fh.truncate()


def write_raw_sequence(seq: Sequence, path) -> bytes:
    """Write raw planes; returns the bytes written (handy for hashing)."""
    payload = sequence_to_raw_bytes(seq)
    write_file(path, payload)
    return payload


def write_sidecar(seq: Sequence, sidecar_path, data_filename: str) -> None:
    meta = {
        "width": seq.width,
        "height": seq.height,
        "bit_depth": seq.bit_depth,
        "frames": len(seq),
        "axis": seq.axis_label,
        "data": data_filename,
    }
    write_file(sidecar_path, (json.dumps(meta, indent=2) + "\n").encode("utf-8"))


def write_dataset(
    seq: Sequence, sidecar_path, data_filename: str | None = None
) -> bytes:
    """Write raw planes plus JSON sidecar; returns the raw bytes written."""
    sidecar = Path(sidecar_path)
    if data_filename is None:
        data_filename = sidecar.stem + ".raw"
    payload = write_raw_sequence(seq, sidecar.parent / data_filename)
    write_sidecar(seq, sidecar, data_filename)
    return payload


def read_dataset(sidecar_path) -> Sequence:
    sidecar = Path(sidecar_path)
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"sidecar {sidecar} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataFormatError(f"sidecar {sidecar} is not a JSON object")
    missing = [k for k in SIDECAR_KEYS if k not in meta]
    if missing:
        raise DataFormatError(f"sidecar {sidecar} missing keys: {missing}")
    for key, kind in _SIDECAR_TYPES.items():
        value = meta[key]
        # bool is a subclass of int, but true/false is no frame count.
        if not isinstance(value, kind) or isinstance(value, bool):
            name = "an integer" if kind is int else "a string"
            raise DataFormatError(
                f"sidecar {sidecar}: {key!r} must be {name}, got {value!r}"
            )
    return read_raw_sequence(
        sidecar.parent / meta["data"],
        meta["width"],
        meta["height"],
        meta["bit_depth"],
        meta["frames"],
        axis_label=meta["axis"],
    )


def write_pgm(frame: Frame, path) -> None:
    """8-bit binary PGM of an original-range frame."""
    s = frame.samples
    if s.min() < 0 or s.max() > 255:
        raise ValueError("write_pgm requires samples in [0, 255]; see write_pgm16")
    header = f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii")
    write_file(path, header + s.astype(np.uint8).tobytes())


def write_pgm16(frame: Frame, path) -> None:
    """16-bit binary PGM (big-endian samples, per the format)."""
    s = frame.samples
    if s.min() < 0 or s.max() > 65535:
        raise ValueError("write_pgm16 requires samples in [0, 65535]")
    header = f"P5\n{frame.width} {frame.height}\n65535\n".encode("ascii")
    write_file(path, header + s.astype(">u2").tobytes())


def write_pgm_subband(frame: Frame, path) -> None:
    """Subband export with the symmetric affine map: 0 maps to mid-gray 128.

    Coefficients in [-2**bit_depth, 2**bit_depth] map linearly around 128
    and clamp at the 8-bit limits; the mapping is recorded as a header
    comment.
    """
    full = float(1 << frame.bit_depth)
    mapped = np.clip(
        np.rint(128.0 + frame.samples * (127.0 / full)), 0, 255
    ).astype(np.uint8)
    header = (
        f"P5\n# symmetric subband map: 0 -> 128, +/-{int(full)} -> 128 +/- 127\n"
        f"{frame.width} {frame.height}\n255\n"
    ).encode("ascii")
    write_file(path, header + mapped.tobytes())


def _heatmap_rgb(values: np.ndarray, holes: np.ndarray) -> np.ndarray:
    height, width = values.shape
    rgb = np.zeros((height, width, 3), dtype=np.uint8)
    known = ~holes
    vmax = float(np.abs(values[known]).max()) if known.any() else 0.0
    if vmax == 0.0:
        t = np.zeros_like(values)
    else:
        t = np.clip(np.abs(values) / vmax, 0.0, 1.0)
    hot = np.rint(255.0 * t).astype(np.uint8)
    cold = np.rint(255.0 * (1.0 - t)).astype(np.uint8)
    pos = known & (values >= 0)
    neg = known & (values < 0)
    rgb[pos] = np.stack([hot[pos], cold[pos], np.zeros_like(hot[pos])], axis=-1)
    rgb[neg] = np.stack([np.zeros_like(hot[neg]), cold[neg], hot[neg]], axis=-1)
    rgb[holes] = (255, 255, 255)
    return rgb


def write_heatmap(field: UpdateField | ConnectivityMap, path) -> None:
    """Diagnostic PPM: zero green, positive toward red, negative toward blue,
    unconnected pixels white.

    Connectivity maps are shifted by one before mapping, so one-connected
    pixels show as the green baseline and multiple-connected ones heat up.
    """
    if isinstance(field, ConnectivityMap):
        holes = field.counts == 0
        values = np.where(holes, 0.0, field.counts.astype(np.float64) - 1.0)
    else:
        holes = field.hole_mask
        values = field.values
    rgb = _heatmap_rgb(np.asarray(values, dtype=np.float64), holes)
    header = f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode("ascii")
    write_file(path, header + rgb.tobytes())


def _read_netpbm_header(data: bytes, magic: bytes) -> tuple[int, int, int, int]:
    if not data.startswith(magic):
        raise DataFormatError(f"expected {magic!r} header")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise DataFormatError("unterminated header comment")
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataFormatError(f"truncated header at byte {pos}")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    return width, height, maxval, pos


def read_pgm(path) -> Frame:
    data = Path(path).read_bytes()
    width, height, maxval, pos = _read_netpbm_header(data, b"P5")
    if maxval <= 255:
        raw = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
        depth = 8
    else:
        raw = np.frombuffer(data, dtype=">u2", count=width * height, offset=pos)
        depth = 16
    return Frame(raw.reshape(height, width).astype(np.int32), depth)


def read_ppm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    width, height, maxval, pos = _read_netpbm_header(data, b"P6")
    if maxval != 255:
        raise DataFormatError(f"unsupported PPM maxval {maxval}")
    raw = np.frombuffer(data, dtype=np.uint8, count=3 * width * height, offset=pos)
    return raw.reshape(height, width, 3).copy()


def sha256_hex(payload: bytes) -> str:
    import hashlib

    return hashlib.sha256(payload).hexdigest()


def ensure_dir(path) -> Path:
    p = Path(path)
    os.makedirs(p, exist_ok=True)
    return p

"""Compensated Haar lifting: prediction and update steps plus exact inverses.

The prediction step subtracts a block-compensated predictor from the even
frame, giving the highpass band. The update step adds the weighted (and
optionally hole-filled) inverse-compensated highpass signal to the odd
frame, giving the lowpass band. All rounding goes through the arithmetic
floor, so synthesis reproduces the original samples bit-exactly.

The decoder never receives the update field: it recomputes it from the
transmitted highpass band and motion field, repeating the identical
deterministic weighting and hole filling. The container carries the motion
field and that recipe (update mode, FSE parameters), so it decodes alone.
Analysis and synthesis run one path, so both compute the same update field.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import astuple, dataclass

import numpy as np

from .core import (
    ConnectivityMap,
    DataFormatError,
    Frame,
    FseParams,
    LiftConfig,
    MotionField,
    Sequence,
    UpdateField,
    UpdateMode,
    VerificationError,
    compensation_source,
    floor_samples,
)
from .fse import TileStats, fse_reconstruct
from .imc import apply_connectivity_weights, imc_scatter
from .io import write_file
from .motion import estimate_motion, motion_from_bytes, motion_to_bytes

_CONTAINER_MAGIC = b"MCLF"
# The version also names the update arithmetic (weights and FSE fill), which
# the decoder recomputes: any change that moves an update value must bump it.
_CONTAINER_VERSION = 3
# magic, version, bit_depth, width, height, pair_count, mode, FseParams fields
_CONTAINER_HEADER = struct.Struct("<4sBBHHHBHHddId")
_CRC = struct.Struct("<I")


@dataclass(frozen=True, eq=False)
class SubbandPair:
    """Transform output of one frame pair plus the side information."""

    lowpass: Frame
    highpass: Frame
    motion: MotionField
    update_mode: UpdateMode
    fse: FseParams

    def __post_init__(self) -> None:
        if not self.lowpass.same_geometry(self.highpass):
            raise ValueError("lowpass and highpass geometry differ")
        if not self.motion.matches_frame(self.lowpass.width, self.lowpass.height):
            raise ValueError("motion field does not match subband geometry")


@dataclass(frozen=True, eq=False)
class PairProducts:
    """All intermediate stages of one pair analysis, for diagnostics."""

    subbands: SubbandPair
    conn: ConnectivityMap
    weighted_update: UpdateField
    final_update: UpdateField
    fse_stats: tuple[TileStats, ...] = ()


@dataclass(frozen=True, eq=False)
class SequenceBands:
    """Transform of a whole sequence: one subband pair per frame pair.

    An odd trailing frame passes through unchanged as the last lowpass
    entry and is flagged. crcs holds the CRC32 of each original pair, then
    of the trailing frame if any; synthesis checks its output against them.
    """

    lowpass: tuple[Frame, ...]
    highpass: tuple[Frame, ...]
    motion_fields: tuple[MotionField, ...]
    update_mode: UpdateMode
    fse: FseParams
    has_trailing: bool
    crcs: tuple[int, ...]

    @property
    def pair_count(self) -> int:
        return len(self.highpass)

    def __post_init__(self) -> None:
        if len(self.motion_fields) != len(self.highpass):
            raise ValueError("one motion field per highpass frame required")
        expected_lp = len(self.highpass) + (1 if self.has_trailing else 0)
        if len(self.lowpass) != expected_lp:
            raise ValueError(
                f"expected {expected_lp} lowpass frames, got {len(self.lowpass)}"
            )
        if len(self.crcs) != expected_lp:
            raise ValueError(f"expected {expected_lp} CRCs, got {len(self.crcs)}")
        if not self.lowpass:
            raise ValueError("bands must contain at least one lowpass frame")


def mc_predict(reference: Frame, source: np.ndarray) -> Frame:
    """Assemble the block-compensated predictor by a gather through the
    compensation map `source` (see `compensation_source`); each pixel is
    read once."""
    if source.shape != reference.samples.shape:
        raise ValueError("compensation map shape does not match frame")
    return Frame(reference.samples.ravel()[source], reference.bit_depth)


def analyze_highpass(current: Frame, predictor: Frame) -> Frame:
    """Highpass band: current minus the predictor. Both are integer
    (full-pel) frames, so the difference is exact and no rounding enters."""
    if not current.same_geometry(predictor):
        raise ValueError("current and predictor geometry differ")
    hp = current.samples.astype(np.int64) - predictor.samples
    return Frame(hp, current.bit_depth)


def analyze_lowpass(reference: Frame, update: UpdateField) -> Frame:
    """Lowpass band: reference plus floored (already weighted) update."""
    if (update.height, update.width) != reference.samples.shape:
        raise ValueError("update field geometry does not match reference")
    lp = reference.samples.astype(np.int64) + floor_samples(update.values)
    return Frame(lp, reference.bit_depth)


def _build_update(
    highpass: Frame, source: np.ndarray, mode: UpdateMode, fse: FseParams
) -> tuple[UpdateField, UpdateField, ConnectivityMap, tuple[TileStats, ...]]:
    """Recomputable update pipeline shared by analysis and synthesis.

    Returns (final, weighted, conn, fse_stats); `final` is what the update
    step actually adds.
    """
    sums, conn = imc_scatter(highpass, source)
    weighted = apply_connectivity_weights(sums, conn)
    stats: list[TileStats] = []
    if mode is UpdateMode.NO_UPDATE:
        final = UpdateField(np.zeros_like(weighted.values), weighted.hole_mask)
    elif mode is UpdateMode.COPY_UNCONNECTED:
        final = weighted
    else:
        final, stats = fse_reconstruct(weighted, fse)
    return final, weighted, conn, tuple(stats)


def analyze_pair(reference: Frame, current: Frame, cfg: LiftConfig) -> PairProducts:
    """Full analysis of one (reference, current) pair, keeping every stage."""
    if not reference.same_geometry(current):
        raise ValueError("reference and current frames must share geometry")
    motion = estimate_motion(current, reference, cfg)
    source = compensation_source(motion, reference.width, reference.height)
    predictor = mc_predict(reference, source)
    highpass = analyze_highpass(current, predictor)
    final, weighted, conn, stats = _build_update(
        highpass, source, cfg.update_mode, cfg.fse
    )
    lowpass = analyze_lowpass(reference, final)
    subbands = SubbandPair(lowpass, highpass, motion, cfg.update_mode, cfg.fse)
    return PairProducts(
        subbands=subbands,
        conn=conn,
        weighted_update=weighted,
        final_update=final,
        fse_stats=stats,
    )


def synthesize_pair(bands: SubbandPair) -> tuple[Frame, Frame]:
    """Exact inverse of analyze_pair.

    The update field is recomputed from the highpass band and motion field,
    including the deterministic hole filling, then both lifting steps are
    undone in reverse order.
    """
    lowpass = bands.lowpass
    source = compensation_source(bands.motion, lowpass.width, lowpass.height)
    final = _build_update(bands.highpass, source, bands.update_mode, bands.fse)[0]
    lp = lowpass.samples.astype(np.int64)
    reference = Frame(lp - floor_samples(final.values), lowpass.bit_depth)
    predictor = mc_predict(reference, source)
    current = Frame(
        bands.highpass.samples.astype(np.int64) + predictor.samples,
        bands.highpass.bit_depth,
    )
    return reference, current


def _crc(frames: tuple[Frame, ...]) -> int:
    """CRC32 of the frames' samples as little-endian int32, in order."""
    crc = 0
    for frame in frames:
        crc = zlib.crc32(frame.samples.astype("<i4", copy=False), crc)
    return crc


def analyze_sequence(
    seq: Sequence, cfg: LiftConfig
) -> tuple[SequenceBands, list[PairProducts]]:
    """One decomposition level over consecutive frame pairs, keeping the
    per-pair intermediates for metrics and diagnostics."""
    if len(seq) < 1:
        raise ValueError("sequence must contain at least one frame")
    has_trailing = len(seq) % 2 == 1
    pairs = [(seq[2 * t], seq[2 * t + 1]) for t in range(len(seq) // 2)]
    results = [analyze_pair(ref, cur, cfg) for ref, cur in pairs]

    lowpass = [r.subbands.lowpass for r in results]
    groups = list(pairs)
    if has_trailing:
        lowpass.append(seq[len(seq) - 1])
        groups.append((seq[len(seq) - 1],))
    bands = SequenceBands(
        lowpass=tuple(lowpass),
        highpass=tuple(r.subbands.highpass for r in results),
        motion_fields=tuple(r.subbands.motion for r in results),
        update_mode=cfg.update_mode,
        fse=cfg.fse,
        has_trailing=has_trailing,
        crcs=tuple(_crc(g) for g in groups),
    )
    return bands, results


def synthesize_sequence(bands: SequenceBands) -> Sequence:
    """Bit-exact reconstruction of the original sequence.

    Raises VerificationError naming the first pair (or the trailing frame)
    whose reconstruction does not match its stored CRC32.
    """
    frames: list[Frame] = []
    for t, crc in enumerate(bands.crcs):
        if t < bands.pair_count:
            group = synthesize_pair(
                SubbandPair(
                    bands.lowpass[t],
                    bands.highpass[t],
                    bands.motion_fields[t],
                    bands.update_mode,
                    bands.fse,
                )
            )
            what = f"pair {t}"
        else:
            group = (bands.lowpass[t],)
            what = "trailing frame"
        got = _crc(group)
        if got != crc:
            raise VerificationError(
                f"{what}: reconstruction CRC32 {got:08x} != stored {crc:08x}"
            )
        frames.extend(group)
    return Sequence(tuple(frames))


def _frame_bytes(frame: Frame) -> bytes:
    return frame.samples.astype("<i4").tobytes()


def container_to_bytes(bands: SequenceBands) -> bytes:
    """Serialize bands to the subband container wire format."""
    first = bands.lowpass[0]
    if bands.pair_count > 0xFFFF:
        raise ValueError("too many pairs for the container format")
    parts = [
        _CONTAINER_HEADER.pack(
            _CONTAINER_MAGIC,
            _CONTAINER_VERSION,
            first.bit_depth,
            first.width,
            first.height,
            bands.pair_count,
            bands.update_mode.value,
            *astuple(bands.fse),
        )
    ]
    for lp, hp, mf, crc in zip(
        bands.lowpass, bands.highpass, bands.motion_fields, bands.crcs
    ):
        parts.append(motion_to_bytes(mf))
        parts.append(_frame_bytes(lp))
        parts.append(_frame_bytes(hp))
        parts.append(_CRC.pack(crc))
    parts.append(struct.pack("<B", 1 if bands.has_trailing else 0))
    if bands.has_trailing:
        parts.append(_frame_bytes(bands.lowpass[-1]))
        parts.append(_CRC.pack(bands.crcs[-1]))
    return b"".join(parts)


def _read_crc(data: bytes, offset: int, what: str) -> tuple[int, int]:
    if offset + _CRC.size > len(data):
        raise DataFormatError(f"{what} CRC32 truncated at byte {offset}")
    return _CRC.unpack_from(data, offset)[0], offset + _CRC.size


def _read_frame(
    data: bytes, offset: int, width: int, height: int, bit_depth: int, what: str
) -> tuple[Frame, int]:
    need = 4 * width * height
    if offset + need > len(data):
        raise DataFormatError(f"{what} samples truncated at byte {offset}")
    samples = np.frombuffer(data, dtype="<i4", count=width * height, offset=offset)
    return Frame(samples.reshape(height, width), bit_depth), offset + need


def container_from_bytes(data: bytes) -> SequenceBands:
    """Parse a subband container, validating structure with byte positions."""
    if len(data) < _CONTAINER_HEADER.size:
        raise DataFormatError("container shorter than its header")
    magic, version, bit_depth, width, height, pair_count, mode_byte, *fse = (
        _CONTAINER_HEADER.unpack_from(data, 0)
    )
    if magic != _CONTAINER_MAGIC:
        raise DataFormatError(f"bad container magic {magic!r} at byte 0")
    if version != _CONTAINER_VERSION:
        raise DataFormatError(f"unsupported container version {version}")
    if not 1 <= bit_depth <= 16:
        raise DataFormatError(f"invalid bit depth {bit_depth}")
    if width < 1 or height < 1:
        raise DataFormatError(f"invalid dimensions {width}x{height}")
    try:
        mode = UpdateMode(mode_byte)
    except ValueError as exc:
        raise DataFormatError(f"unknown update mode byte {mode_byte}") from exc
    try:
        fse_params = FseParams(*fse)
    except ValueError as exc:
        raise DataFormatError(f"invalid FSE parameters: {exc}") from exc

    offset = _CONTAINER_HEADER.size
    lowpass: list[Frame] = []
    highpass: list[Frame] = []
    fields: list[MotionField] = []
    crcs: list[int] = []
    for pair in range(pair_count):
        mf, offset = motion_from_bytes(data, offset)
        if not mf.matches_frame(width, height):
            raise DataFormatError(
                f"pair {pair}: motion field grid does not match {width}x{height}"
            )
        lp, offset = _read_frame(
            data, offset, width, height, bit_depth, f"pair {pair} lowpass"
        )
        hp, offset = _read_frame(
            data, offset, width, height, bit_depth, f"pair {pair} highpass"
        )
        crc, offset = _read_crc(data, offset, f"pair {pair}")
        crcs.append(crc)
        fields.append(mf)
        lowpass.append(lp)
        highpass.append(hp)
    if offset + 1 > len(data):
        raise DataFormatError(f"trailing-frame flag missing at byte {offset}")
    flag = data[offset]
    offset += 1
    if flag not in (0, 1):
        raise DataFormatError(f"invalid trailing-frame flag {flag}")
    if flag:
        trailing, offset = _read_frame(
            data, offset, width, height, bit_depth, "trailing frame"
        )
        crc, offset = _read_crc(data, offset, "trailing frame")
        lowpass.append(trailing)
        crcs.append(crc)
    if offset != len(data):
        raise DataFormatError(
            f"{len(data) - offset} unexpected extra bytes at byte {offset}"
        )
    try:
        return SequenceBands(
            lowpass=tuple(lowpass),
            highpass=tuple(highpass),
            motion_fields=tuple(fields),
            update_mode=mode,
            fse=fse_params,
            has_trailing=bool(flag),
            crcs=tuple(crcs),
        )
    except ValueError as exc:
        raise DataFormatError(f"invalid container contents: {exc}") from exc


def write_container(path, bands: SequenceBands) -> None:
    write_file(path, container_to_bytes(bands))


def read_container(path) -> SequenceBands:
    with open(path, "rb") as fh:
        return container_from_bytes(fh.read())

"""Motion-compensated Haar lifting with connectivity-weighted inversion
and spectral filling of unconnected update pixels."""

from .core import (
    ConnectivityMap,
    DataFormatError,
    Frame,
    FseParams,
    LiftConfig,
    MotionField,
    MotionVector,
    Sequence,
    UpdateField,
    UpdateMode,
    VerificationError,
    compensation_source,
    floor_samples,
)
from .fse import TileStats, fse_reconstruct, fse_tile_iterate, plan_tiles
from .imc import apply_connectivity_weights, connectivity_stats, imc_scatter
from .lifting import (
    PairProducts,
    SequenceBands,
    SubbandPair,
    analyze_highpass,
    analyze_lowpass,
    analyze_pair,
    analyze_sequence,
    mc_predict,
    read_container,
    synthesize_pair,
    synthesize_sequence,
    write_container,
)
from .metrics import (
    boundary_step_metric,
    decode_lossless,
    encode_lossless,
    psnr,
)
from .motion import block_ssd, estimate_motion

__version__ = "0.1.0"

__all__ = [
    "ConnectivityMap",
    "DataFormatError",
    "Frame",
    "FseParams",
    "LiftConfig",
    "MotionField",
    "MotionVector",
    "PairProducts",
    "Sequence",
    "SequenceBands",
    "SubbandPair",
    "TileStats",
    "UpdateField",
    "UpdateMode",
    "VerificationError",
    "analyze_highpass",
    "analyze_lowpass",
    "analyze_pair",
    "analyze_sequence",
    "apply_connectivity_weights",
    "block_ssd",
    "boundary_step_metric",
    "compensation_source",
    "connectivity_stats",
    "decode_lossless",
    "encode_lossless",
    "estimate_motion",
    "floor_samples",
    "fse_reconstruct",
    "fse_tile_iterate",
    "imc_scatter",
    "mc_predict",
    "plan_tiles",
    "psnr",
    "read_container",
    "synthesize_pair",
    "synthesize_sequence",
    "write_container",
]

"""Command-line driver: analyze, synthesize, compare, gen-fixture.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification failure.
Every run is deterministic given its flags and input files.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np

from . import fixtures
from .core import (
    DataFormatError,
    Frame,
    FseParams,
    LiftConfig,
    MODE_CLI_NAMES,
    MODE_FROM_CLI,
    Sequence,
    UpdateMode,
    VerificationError,
)
from .io import (
    ensure_dir,
    read_dataset,
    sha256_hex,
    write_dataset,
    write_file,
    write_heatmap,
    write_pgm,
    write_pgm16,
    write_pgm_subband,
    write_raw_sequence,
    write_sidecar,
)
from .lifting import (
    PairProducts,
    SequenceBands,
    analyze_sequence,
    read_container,
    synthesize_sequence,
    write_container,
)
from .metrics import boundary_step_metric, encode_lossless, psnr
from .motion import motion_to_bytes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

COMPARE_COLUMNS = (
    "mode",
    "total_bytes",
    "lowpass_bytes",
    "highpass_bytes",
    "motion_bytes",
    "mean_lowpass_psnr_db",
    "boundary_step",
)
METRICS_COLUMNS = (
    "sequence",
    "mode",
    "total_bytes",
    "lowpass_bytes",
    "highpass_bytes",
    "motion_bytes",
    "mean_lowpass_psnr_db",
    "boundary_step",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


def _add_analysis_flags(p: argparse.ArgumentParser) -> None:
    cfg = LiftConfig()
    mode = MODE_CLI_NAMES[cfg.update_mode]
    p.add_argument("--mode", choices=sorted(MODE_FROM_CLI), default=mode,
                   help=f"update mode (default: {mode})")
    p.add_argument("--block-size", type=int, default=cfg.block_size,
                   help="motion block edge in pixels (default: %(default)s)")
    p.add_argument("--search-range", type=int, default=cfg.search_range,
                   help="motion search range in pixels (default: %(default)s)")
    p.add_argument("--fse-iters", type=int, default=cfg.fse.max_iterations,
                   help="FSE iterations per tile (default: %(default)s)")
    p.add_argument("--fse-tile", type=int, default=cfg.fse.tile_size,
                   help="FSE hole-owning tile edge (default: %(default)s)")
    p.add_argument("--fse-border", type=int, default=cfg.fse.border,
                   help="FSE support margin around each tile (default: %(default)s)")


def _config_from_args(args) -> LiftConfig:
    try:
        return LiftConfig(
            block_size=args.block_size,
            search_range=args.search_range,
            update_mode=MODE_FROM_CLI[args.mode],
            fse=FseParams(
                tile_size=args.fse_tile,
                border=args.fse_border,
                max_iterations=args.fse_iters,
            ),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.4f}"


def _sequence_report(
    name: str, seq: Sequence, bands: SequenceBands, products: list[PairProducts]
) -> dict[str, object]:
    lowpass_bytes = sum(len(encode_lossless(f)) for f in bands.lowpass)
    highpass_bytes = sum(len(encode_lossless(f)) for f in bands.highpass)
    motion_bytes = sum(len(motion_to_bytes(m)) for m in bands.motion_fields)
    if products:
        psnrs = [
            psnr(prod.subbands.lowpass, seq[2 * t]) for t, prod in enumerate(products)
        ]
        steps = [
            boundary_step_metric(prod.subbands.lowpass, prod.conn)
            for prod in products
        ]
        mean_psnr = sum(psnrs) / len(psnrs)
        mean_step = sum(steps) / len(steps)
    else:
        mean_psnr = math.inf
        mean_step = 0.0
    return {
        "sequence": name,
        "mode": MODE_CLI_NAMES[bands.update_mode],
        "total_bytes": lowpass_bytes + highpass_bytes + motion_bytes,
        "lowpass_bytes": lowpass_bytes,
        "highpass_bytes": highpass_bytes,
        "motion_bytes": motion_bytes,
        "mean_lowpass_psnr_db": _fmt(mean_psnr),
        "boundary_step": _fmt(mean_step),
    }


def _write_csv(path, columns: tuple[str, ...], rows: list[dict[str, object]]) -> None:
    text = StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    write_file(path, text.getvalue().encode("utf-8"))


def _clip_to_range(frame: Frame) -> Frame:
    return Frame(
        np.clip(frame.samples, 0, frame.max_value).astype(np.int32), frame.bit_depth
    )


def _dump_diagnostics(
    out_dir, bands: SequenceBands, products: list[PairProducts]
) -> None:
    directory = ensure_dir(out_dir)
    trace_rows = []
    for t, prod in enumerate(products):
        write_heatmap(prod.conn, directory / f"conn_{t:03d}.ppm")
        write_heatmap(prod.weighted_update, directory / f"update_{t:03d}.ppm")
        if bands.update_mode is UpdateMode.FSE_FILL:
            write_heatmap(prod.final_update, directory / f"update_filled_{t:03d}.ppm")
        lp = _clip_to_range(prod.subbands.lowpass)
        if lp.bit_depth <= 8:
            write_pgm(lp, directory / f"lowpass_{t:03d}.pgm")
        else:
            write_pgm16(lp, directory / f"lowpass_{t:03d}.pgm")
        write_pgm_subband(prod.subbands.highpass, directory / f"highpass_{t:03d}.pgm")
        for stats in prod.fse_stats:
            for i, energy in enumerate(stats.energy_trace):
                trace_rows.append(
                    {
                        "pair": t,
                        "tile_y": stats.tile_y,
                        "tile_x": stats.tile_x,
                        "iteration": i,
                        "energy": f"{energy:.8g}",
                    }
                )
    if trace_rows:
        _write_csv(
            directory / "fse_trace.csv",
            ("pair", "tile_y", "tile_x", "iteration", "energy"),
            trace_rows,
        )


def cmd_analyze(args) -> int:
    cfg = _config_from_args(args)
    seq = read_dataset(args.input)
    bands, products = analyze_sequence(seq, cfg)
    write_container(args.output, bands)
    report = _sequence_report(Path(args.input).stem, seq, bands, products)
    metrics_path = args.metrics_csv or (str(args.output) + ".metrics.csv")
    _write_csv(metrics_path, METRICS_COLUMNS, [report])
    if args.dump_diagnostics:
        _dump_diagnostics(args.dump_diagnostics, bands, products)
    print(
        f"analyzed {len(seq)} frames -> {bands.pair_count} pairs "
        f"({report['mode']}), container {args.output}, "
        f"metrics {metrics_path}"
    )
    return EXIT_OK


def cmd_synthesize(args) -> int:
    bands = read_container(args.input)
    seq = synthesize_sequence(bands)
    payload = write_raw_sequence(seq, args.output)
    write_sidecar(seq, str(args.output) + ".json", Path(args.output).name)
    digest = sha256_hex(payload)
    print(f"sha256 {digest}  {args.output}")
    if args.expect_sha256 and args.expect_sha256.lower() != digest:
        raise VerificationError(
            f"reconstruction hash {digest} != expected {args.expect_sha256.lower()}"
        )
    return EXIT_OK


def cmd_compare(args) -> int:
    base_cfg = _config_from_args(args)
    mode_names = [m.strip() for m in args.modes.split(",") if m.strip()]
    if len(mode_names) < 2:
        raise UsageError("--modes needs at least two comma-separated modes")
    unknown = [m for m in mode_names if m not in MODE_FROM_CLI]
    if unknown:
        raise UsageError(f"unknown modes {unknown}; choose from {sorted(MODE_FROM_CLI)}")
    seq = read_dataset(args.input)
    name = Path(args.input).stem
    rows = []
    for mode_name in mode_names:
        cfg = replace(base_cfg, update_mode=MODE_FROM_CLI[mode_name])
        bands, products = analyze_sequence(seq, cfg)
        rows.append(_sequence_report(name, seq, bands, products))
    _write_csv(args.output, COMPARE_COLUMNS, rows)
    print(",".join(COMPARE_COLUMNS))
    for row in rows:
        print(",".join(str(row[c]) for c in COMPARE_COLUMNS))
    return EXIT_OK


def cmd_gen_fixture(args) -> int:
    try:
        seq = fixtures.generate(
            args.kind,
            width=args.width,
            height=args.height,
            bit_depth=args.bit_depth,
            frames=args.frames,
            seed=args.seed,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    write_dataset(seq, args.output)
    print(
        f"wrote {args.kind} fixture: {len(seq)}x{seq.width}x{seq.height} "
        f"@{seq.bit_depth}-bit, sidecar {args.output}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mclift",
        description="Motion-compensated Haar lifting with hole-filled updates",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_an = sub.add_parser("analyze", help="transform a dataset into a subband container")
    p_an.add_argument("--input", required=True, help="dataset sidecar (JSON)")
    p_an.add_argument("--output", required=True, help="subband container path")
    p_an.add_argument("--metrics-csv", default=None)
    p_an.add_argument("--dump-diagnostics", metavar="DIR", default=None)
    _add_analysis_flags(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_sy = sub.add_parser("synthesize", help="reconstruct the raw sequence from a container")
    p_sy.add_argument("--input", required=True, help="subband container path")
    p_sy.add_argument("--output", required=True, help="reconstructed raw path")
    p_sy.add_argument("--expect-sha256", default=None,
                      help="fail with exit 3 if the reconstruction hash differs")
    p_sy.set_defaults(func=cmd_synthesize)

    p_cmp = sub.add_parser("compare", help="run several update modes over one dataset")
    p_cmp.add_argument("--input", required=True, help="dataset sidecar (JSON)")
    p_cmp.add_argument("--output", required=True, help="comparison CSV path")
    p_cmp.add_argument("--modes", default="block,block+fse",
                       help="comma-separated update modes (default: block,block+fse)")
    _add_analysis_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_gen = sub.add_parser("gen-fixture", help="write a synthetic dataset")
    p_gen.add_argument("--kind", required=True, choices=fixtures.FIXTURE_KINDS)
    p_gen.add_argument("--output", required=True, help="sidecar path to write")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--width", type=int, default=128)
    p_gen.add_argument("--height", type=int, default=128)
    p_gen.add_argument("--frames", type=int, default=4)
    p_gen.add_argument("--bit-depth", type=int, default=8)
    p_gen.set_defaults(func=cmd_gen_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (DataFormatError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

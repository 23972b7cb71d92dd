#!/usr/bin/env python3
"""Export the intermediate stages of one analysis run as viewable images.

Writes connectivity and update-field heat maps (PPM), subband previews
(PGM), and the per-tile extrapolation energy curves (CSV), mirroring how
one would inspect where unconnected pixels appear and what the hole
filling puts there.
"""

import argparse
import sys
from pathlib import Path

from mclift.cli import main as cli_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/diagnostics", type=Path)
    parser.add_argument("--kind", default="flash_disocclusion")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", default="block+fse",
                        choices=["none", "block", "block+fse"])
    parser.add_argument("--fse-iters", type=int, default=None,
                        help="FSE iterations per tile (default: mclift analyze's)")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    sidecar = args.out_dir / "dataset.json"
    container = args.out_dir / "bands.mclf"

    rc = cli_main(
        ["gen-fixture", "--kind", args.kind, "--seed", str(args.seed),
         "--frames", "2", "--output", str(sidecar)]
    )
    if rc != 0:
        return rc
    fse_flags = [] if args.fse_iters is None else ["--fse-iters", str(args.fse_iters)]
    rc = cli_main(
        ["analyze", "--input", str(sidecar), "--output", str(container),
         "--mode", args.mode, *fse_flags,
         "--dump-diagnostics", str(args.out_dir / "images")]
    )
    if rc != 0:
        return rc
    print(f"\ndiagnostics written under {args.out_dir / 'images'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

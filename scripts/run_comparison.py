#!/usr/bin/env python3
"""Generate a disocclusion fixture and compare update modes on it.

Produces the mode-comparison CSV plus a short console summary of the
rate / boundary-artifact / PSNR trade-off.
"""

import argparse
import sys
from pathlib import Path

from mclift.cli import main as cli_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/comparison", type=Path)
    parser.add_argument("--kind", default="flash_disocclusion")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--fse-iters", type=int, default=None,
                        help="FSE iterations per tile (default: mclift analyze's)")
    args = parser.parse_args(argv)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    sidecar = args.out_dir / "dataset.json"
    csv_path = args.out_dir / "modes.csv"

    rc = cli_main(
        ["gen-fixture", "--kind", args.kind, "--seed", str(args.seed),
         "--frames", str(args.frames), "--output", str(sidecar)]
    )
    if rc != 0:
        return rc
    fse_flags = [] if args.fse_iters is None else ["--fse-iters", str(args.fse_iters)]
    rc = cli_main(
        ["compare", "--input", str(sidecar), "--output", str(csv_path),
         "--modes", "none,block,block+fse", *fse_flags]
    )
    if rc != 0:
        return rc
    print(f"\ncomparison written to {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(run())

#!/usr/bin/env python3
"""Regenerate every simulation preset's data files at desk scale.

Writes one CSV per preset into out/ (createable anywhere via --outdir).
At the default 10000 replicates the full run took 7.9-8.7 s in three
runs on a 2-vCPU Xeon host (Python 3.11.7, numpy 2.4.6, scipy 1.17.1),
about half of it in fig6; the same host has also run it in 3.6 s, as its
speed varies by up to 2x. Pass --reps 1000 for a quick pass.

    python scripts/run_presets.py --outdir out --reps 10000 --seed 0
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from phasorstats.cli import PRESETS, main as cli_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out")
    parser.add_argument("--reps", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for preset in PRESETS:
        target = outdir / f"{preset}.csv"
        start = time.perf_counter()
        rc = cli_main([
            "simulate", preset, "--reps", str(args.reps), "--seed",
            str(args.seed), "--out", str(target),
        ])
        if rc != 0:
            print(f"{preset}: FAILED ({rc})", file=sys.stderr)
            return rc
        print(f"{preset}: {target} ({time.perf_counter() - start:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Time the cold start of the command line, this tree against a base tree.

Each command runs in a fresh interpreter, with PYTHONPATH set to the tree's
``src``, so the time includes starting Python and importing phasorstats:

- ``import``: ``import phasorstats``;
- ``analyze-mouse`` / ``analyze-human``: ``phasorstats analyze`` on each
  fixture, as the golden reports are made (``--format json --seed 0``);
- ``cluster``: ``phasorstats cluster`` at the README example size: three
  nodes on a line (the mouse fixture at each), 1000 permutations.

Pairs alternate which tree runs first. Run from the root of a checkout,
with a second checkout (for instance the parent commit) as the base:

    python scripts/bench_cli.py --base ../parent --pairs 10

Prints one JSON object: the base (its short commit where it is the root of
a git checkout, else its directory name), the machine, the library versions,
and per command the wall seconds of every run of each tree, their medians
and quartiles, the change/base ratio of the medians and the pairs the change
won. Every command must exit 0. BLAS runs on one thread, as in perfbench.
Timings are not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"
MAIN = "import sys; from phasorstats.cli import main; sys.exit(main(sys.argv[1:]))"


def commands(workdir: Path) -> dict[str, list[str]]:
    edges = workdir / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    mouse = str(FIXTURES / "mouse_ssvep.csv")
    out = str(workdir / "out.json")
    return {
        "import": ["-c", "import phasorstats"],
        "analyze-mouse": ["-c", MAIN, "analyze", mouse, "--design", "paired",
                          "--format", "json", "--seed", "0", "--out", out],
        "analyze-human": ["-c", MAIN, "analyze", str(FIXTURES / "human_ssvep.csv"),
                          "--design", "oneway-rm", "--baseline", "0",
                          "--format", "json", "--seed", "0", "--out", out],
        "cluster": ["-c", MAIN, "cluster", mouse, mouse, mouse, "--edges", str(edges),
                    "--design", "paired", "--test", "T2circ", "--perms", "1000",
                    "--seed", "1", "--out", out],
    }


def run(tree: Path, name: str, args: list[str]) -> float:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{name} failed in {tree}:\n{proc.stderr}")
    return round(seconds, 4)


def quartiles(xs: list[float]) -> list[float]:
    return [round(float(q), 4) for q in np.percentile(xs, [25, 50, 75])]


def summary(base: list[float], change: list[float]) -> dict:
    return {
        "base_q1_median_q3": quartiles(base),
        "change_q1_median_q3": quartiles(change),
        "change_over_base_median": round(float(np.median(change) / np.median(base)), 4),
        "change_wins": f"{sum(c < b for b, c in zip(base, change))}/{len(base)}",
        "base_s": base,
        "change_s": change,
    }


def label(tree: Path) -> str:
    """The short commit of a tree that is the root of a git checkout, else
    its directory name: a tree inside another checkout is not that commit."""
    def git(*args: str) -> str:
        proc = subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else ""

    top = git("rev-parse", "--show-toplevel")
    if top and Path(top).resolve() == tree.resolve():
        return git("rev-parse", "--short", "HEAD")
    return tree.name


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True,
                        help="root of the checkout to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    base = args.base.resolve()
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in commands(Path(tmp)).items():
            runs = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    runs[side].append(run(base if side == "base" else ROOT, name, argv))
            times[name] = summary(runs["base"], runs["change"])
    print(json.dumps({
        "base": label(base), "pairs": args.pairs,
        "protocol": "fresh interpreter per run, wall seconds from spawn to exit; "
                    "pairs alternate which tree runs first; quartiles are numpy's "
                    "linear percentiles",
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor()
                    or platform.machine()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "commands": times,
    }, indent=1))


if __name__ == "__main__":
    main()

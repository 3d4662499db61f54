"""Time the cold start of the command line, this tree against a base tree.

Each command runs in a fresh interpreter, with PYTHONPATH set to the tree's
``src``, so the time includes starting Python and importing phasorstats:

- ``import``: ``import phasorstats``;
- ``analyze-mouse`` / ``analyze-human``: ``phasorstats analyze`` on each
  fixture, as the golden reports are made (``--format json --seed 0``);
- ``cluster``: ``phasorstats cluster`` at the README example size: three
  nodes on a line (the mouse fixture at each), 1000 permutations;
- ``cluster-128``: ``phasorstats cluster --design paired`` on 128 nodes on
  a chain, 1000 permutations. Each node is a components CSV of 24 units x 2
  conditions x 10 repetitions (480 rows), drawn from a seeded generator
  once per invocation of this script. After each of its runs a second
  fresh interpreter of the same tree reads every node file and builds its
  dataset (``read_components_csv`` plus ``build_dataset``, the CSV ingest
  in front of the cluster test), and its rows per second are reported
  next to the wall seconds.

Pairs alternate which tree runs first. Run from the root of a checkout,
with a second checkout (for instance the parent commit) as the base:

    python scripts/bench_cli.py --base ../parent --pairs 10

Prints one JSON object: the base (its short commit where it is the root of
a git checkout, else its directory name), the machine, the library versions,
and per command the wall seconds of every run of each tree, their medians
and quartiles, the change/base ratio of the medians and the pairs the change
won (for rows per second, the pairs where it read more). Every command must
exit 0. BLAS runs on one thread, as in perfbench.
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
sys.path.insert(0, str(ROOT / "src"))

from phasorstats.ingest import ComponentRow, write_components_csv  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"
MAIN = "import sys; from phasorstats.cli import main; sys.exit(main(sys.argv[1:]))"
#: Reads and builds every node file given, then prints the rows per second.
READ_BUILD = """\
import sys, time
from phasorstats import Design, build_dataset, read_components_csv
t0 = time.perf_counter()
rows = 0
for path in sys.argv[1:]:
    table = read_components_csv(path)
    build_dataset(table, Design.PAIRED)
    rows += len(table)
print(rows / (time.perf_counter() - t0))
"""
NODES, UNITS, REPETITIONS, NODE_SEED = 128, 24, 10, 128


def node_files(workdir: Path) -> list[str]:
    """The 128-node case's files: condition b is shifted by 0.8 + 0.4j at
    nodes 40-79, so the paired test finds a cluster there."""
    rng = np.random.default_rng(NODE_SEED)
    paths = []
    for node in range(NODES):
        values = rng.standard_normal((UNITS, 2, REPETITIONS, 2))
        if 40 <= node < 80:
            values[:, 1] += [0.8, 0.4]
        rows = [
            ComponentRow(f"u{u}", condition, re, im)
            for u in range(UNITS) for c, condition in enumerate("ab")
            for re, im in values[u, c].tolist()
        ]
        path = workdir / f"node{node:03d}.csv"
        path.write_text(write_components_csv(rows))
        paths.append(str(path))
    return paths


def commands(workdir: Path) -> dict[str, list[str]]:
    edges = workdir / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    chain = workdir / "chain.txt"
    chain.write_text("".join(f"{i} {i + 1}\n" for i in range(NODES - 1)))
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
        "cluster-128": ["-c", MAIN, "cluster", *node_files(workdir),
                        "--edges", str(chain), "--design", "paired", "--perms",
                        "1000", "--seed", "1", "--out", out],
    }


def run(tree: Path, name: str, args: list[str]) -> tuple[float, str]:
    """The wall seconds of one run and its stdout."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{name} failed in {tree}:\n{proc.stderr}")
    return round(seconds, 4), proc.stdout


def quartiles(xs: list[float]) -> list[float]:
    return [round(float(q), 4) for q in np.percentile(xs, [25, 50, 75])]


def summary(base: list[float], change: list[float], unit: str = "s") -> dict:
    """Quartiles, ratio and wins of two series: a win is a lower time, or a
    higher rate (any unit but seconds)."""
    wins = sum(c < b if unit == "s" else c > b for b, c in zip(base, change))
    return {
        "base_q1_median_q3": quartiles(base),
        "change_q1_median_q3": quartiles(change),
        "change_over_base_median": round(float(np.median(change) / np.median(base)), 4),
        "change_wins": f"{wins}/{len(base)}",
        f"base_{unit}": base,
        f"change_{unit}": change,
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
            rates = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base if side == "base" else ROOT
                    runs[side].append(run(tree, name, argv)[0])
                    if name == "cluster-128":
                        nodes = [a for a in argv if a.endswith(".csv")]
                        out = run(tree, "read-build", ["-c", READ_BUILD, *nodes])[1]
                        rates[side].append(round(float(out)))
            times[name] = summary(runs["base"], runs["change"])
            if rates["base"]:
                times[name]["read_build"] = summary(rates["base"], rates["change"],
                                                    "rows_per_s")
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

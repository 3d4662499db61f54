"""Time ``cluster_correct`` at sensor-array scale: the 16 x 16 grid (256
nodes) items of the perfbench ``cluster`` workload, run with 5000
permutations instead of 1000.

    python scripts/bench_cluster.py

Prints one JSON object with the machine, the library versions and, per
item, the wall seconds of every repeat (``seconds``) and of the part of each
spent before the permutations, in ``_validate_nodes`` and ``_unit_matrix``
(``front_seconds``). BLAS runs on one thread, as in perfbench. Timings are
not part of the test suite.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import phasorstats  # noqa: E402
from phasorstats import clusters  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    CLUSTER_SPECS,
    _cluster_datasets,
    _rng,
    grid_graph,
)

N_PERM = 5000
REPEATS = 3
SEED = 7


def _timed(fn, spent: list):
    """fn, adding the seconds of each call to spent[0]."""
    def call(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[0] += time.perf_counter() - t0
    return call


def main() -> None:
    front = [0.0]
    for name in ("_validate_nodes", "_unit_matrix"):
        setattr(clusters, name, _timed(getattr(clusters, name), front))
    cases = []
    for i, (side, design, test, n, patch) in enumerate(CLUSTER_SPECS):
        if side != 16:
            continue
        datasets, _ = _cluster_datasets(_rng(SEED, 3, i), side, design, n, patch)
        graph = grid_graph(side)
        seconds, front_seconds = [], []
        for _ in range(REPEATS):
            front[0] = 0.0
            t0 = time.perf_counter()
            phasorstats.cluster_correct(datasets, graph, test=test,
                                        n_perm=N_PERM, seed=SEED + i)
            seconds.append(round(time.perf_counter() - t0, 4))
            front_seconds.append(round(front[0], 5))
        cases.append({"design": design, "test": test, "units": n,
                      "seconds": seconds, "front_seconds": front_seconds})
    print(json.dumps({
        "nodes": 256, "n_perm": N_PERM, "seed": SEED,
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor()
                    or platform.machine()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "phasorstats": phasorstats.__version__},
        "cases": cases,
    }))


if __name__ == "__main__":
    main()

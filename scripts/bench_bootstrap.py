"""Time the amplitude bounds serially, one layer at a time: the bootstrap
and the standard-error ellipse.

    python scripts/bench_bootstrap.py [--repeats K]

Run it from each checkout to compare two trees; it imports the
``src/phasorstats`` next to it. For n in 6, 24, 89 and 400 it times
``amp_ci_bootstrap`` with 10 000 resamples (as ``analyze`` draws them) on one
seeded complex sample, and ``ellipse_summary`` on that sample's
``ELLIPSE`` run. Each is the best of K repeats, on the calling thread only,
so it gives the per-layer cost that the threaded bootstraps of a traced
``analyze`` run do not separate. A bootstrap repeat also reads the process's
minor page faults (``getrusage``) around the call.

Prints one JSON object with the machine, the library versions and, per n,
the best microseconds per resample index (10 000 x n indices a call), per
bootstrap call, per ellipse call, and the fewest minor faults of a
bootstrap call. Timings are not part of the test suite.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import phasorstats  # noqa: E402
from phasorstats import ComplexSample, amp_ci_bootstrap, inference  # noqa: E402
from phasorstats.amplitude import ellipse_summary  # noqa: E402

SIZES = (6, 24, 89, 400)
N_BOOT = 10_000
ELLIPSE_CALLS = 200  # per repeat: one ellipse is tens of microseconds
SEED = 7


def _faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7,
                        help="repeats per timing, the best kept (default 7)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(SEED)
    cases = []
    for n in SIZES:
        sample = ComplexSample(rng.standard_normal(n) + 1j * rng.standard_normal(n)
                               + 0.5)
        spectrum = inference.ELLIPSE.run(sample.observations)
        amp_ci_bootstrap(sample, n_boot=N_BOOT, seed=SEED)  # warm-up
        boot, faults, ellipse = [], [], []
        for _ in range(args.repeats):
            f0, t0 = _faults(), time.perf_counter()
            amp_ci_bootstrap(sample, n_boot=N_BOOT, seed=SEED)
            boot.append(time.perf_counter() - t0)
            faults.append(_faults() - f0)
            t0 = time.perf_counter()
            for _ in range(ELLIPSE_CALLS):
                ellipse_summary(spectrum, n, 0.68)
            ellipse.append((time.perf_counter() - t0) / ELLIPSE_CALLS)
        cases.append({
            "n": n,
            "bootstrap_us_per_index": round(min(boot) * 1e6 / (N_BOOT * n), 5),
            "bootstrap_ms_per_call": round(min(boot) * 1e3, 3),
            "bootstrap_min_faults": min(faults),
            "ellipse_us_per_call": round(min(ellipse) * 1e6, 2),
        })
    print(json.dumps({
        "n_boot": N_BOOT, "repeats": args.repeats, "seed": SEED,
        "machine": {"nproc": os.cpu_count(), "processor": platform.processor()
                    or platform.machine()},
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "phasorstats": phasorstats.__version__},
        "cases": cases,
    }))


if __name__ == "__main__":
    main()

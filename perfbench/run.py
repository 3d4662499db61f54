"""phasorstats benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one process, one thread):

- ``analyze``: one in-process ``phasorstats analyze ... --format json`` per
  op over a pool of generated component CSVs and the two fixtures.
- ``montecarlo``: one ``simulate_rates`` cell at a fixed replicate count per op.
- ``cluster``: one ``cluster_correct`` call with 1000 permutations per op.

``--trace 0`` times the ops with nothing wrapped and prints the end-to-end
metrics. ``--trace 1`` alternates untraced cycles with cycles in which
every layer entry point is wrapped (see tracing.py), then runs one traced
cycle of each other workload so that every per-layer metric has ops to be
read from; it prints the per-layer metrics and the tracing overhead, and
writes the spans to ``.perfbench-out/``.

End-to-end metric definitions. Op times are calibrated for host speed
(see calibration.py): each op's wall time is rescaled by a reference kernel
timed just before and just after it. Timed time is the sum of calibrated
op times; the raw wall figures are in the record.

- ``setup_s``: time from spawning a fresh interpreter to the point where
  it would start the first timed op (import, seeded input generation, one
  warm-up op), calibrated by the kernel timed in the child at the start
  and end of its set-up; the median of SETUP_SAMPLES child processes.
- ``op_ms_p50`` / ``op_ms_p90``: percentiles of calibrated op time.
- ``ops_per_s``: ops per second of timed time.
- ``reps_per_s``: replicates per second of timed time: simulation
  replicates (montecarlo), bootstrap resamples (analyze; 10 000 per
  condition), and node statistics under permutation, permutations x nodes
  (cluster).
- ``perms_per_s``: resampled datasets per second of timed time:
  permutations (cluster); replicates (montecarlo) and bootstrap resamples
  (analyze), which are that workload's resampled datasets, so there it
  equals ``reps_per_s``.
- ``peak_rss_mb``: peak resident set of the benchmark process.

``failed_frac`` (failed / attempted) is printed in the summary and carried
by the ``attempted`` and ``failed`` fields of the result; it is not a
metric, because it is 0 on a correct program.

The last stdout line is the result object; the line before it is a record
with the environment (nproc, load average, versions, git SHA), the output
digest and every figure the result leaves out.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CheckFailed, make_items  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
REQUIRED = (
    "src/phasorstats/__init__.py",
    "tests/fixtures/mouse_ssvep.csv",
    "tests/fixtures/mouse_report.json",
    "tests/fixtures/human_ssvep.csv",
    "tests/fixtures/human_report.json",
)


class SetupError(Exception):
    """The checkout cannot be benchmarked."""


def _import_program() -> None:
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise SetupError(f"not a phasorstats checkout, missing: {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    import phasorstats

    if Path(phasorstats.__file__).resolve().parent != (ROOT / "src" / "phasorstats"):
        raise SetupError(f"imported phasorstats from {phasorstats.__file__}")


def _workdir(workload: str, seed: int, tag: str) -> Path:
    path = ROOT / ".perfbench-work" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _setup(workload: str, seed: int, workdir: Path):
    """Import, generate the seeded inputs, run one warm-up op."""
    _import_program()
    items = make_items(workload, seed, ROOT, workdir)
    try:
        items[0].run()
    except Exception:  # the timed loop reports it as a failed op
        pass
    return items


def _remove(workdirs) -> None:
    for path in workdirs:
        shutil.rmtree(path, ignore_errors=True)
    try:
        (ROOT / ".perfbench-work").rmdir()
    except OSError:  # absent, or still used by another run
        pass


def _setup_child(workload: str, seed: int) -> None:
    """Set up once; print when it was ready and the reference kernel's time
    on the child's own CPU at the start and at the end of set-up."""
    kernels = [calibration.time_kernel()]
    workdir = _workdir(workload, seed, "setup")
    try:
        _setup(workload, seed, workdir)
        ready = time.time()
        kernels.append(calibration.time_kernel())
        print(json.dumps({"ready": ready, "kernel_s": kernels}), flush=True)
    finally:
        _remove([workdir])


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter to its first op, per child:
    calibrated, and wall time."""
    samples, wall = [], []
    for _ in range(SETUP_SAMPLES):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-child",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"setup child failed:\n{proc.stderr}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        wall.append(child["ready"] - spawned - child["kernel_s"][0])
        samples += calibration.scale(wall[-1:], child["kernel_s"])
    return samples, wall


class Loop:
    """Closed-loop driver: runs whole cycles over the pool until the time is
    up, checks the first output of every item in full and requires every
    later output of the item to match it byte for byte."""

    def __init__(self, items):
        self.items = items
        self.reference: dict[int, bytes] = {}
        self.valid: dict[int, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _record_failure(self, tag: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{tag}: {message}")

    def run_one(self, idx: int, call=None):
        """Run item idx once; returns (seconds, output or None)."""
        item = self.items[idx]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(item.run) if call else item.run()
        except Exception:  # a raising op is a failed op; keep measuring
            dt = time.perf_counter() - t0
            self._record_failure(item.tag, traceback.format_exc(limit=3))
            return dt, None
        dt = time.perf_counter() - t0
        try:
            encoded = item.encode(out)
            if idx not in self.reference:
                self.reference[idx] = encoded
                self.valid[idx] = False
                item.check(out)
                self.valid[idx] = True
            elif encoded != self.reference[idx]:
                raise CheckFailed("output differs from the item's first output")
            elif not self.valid[idx]:
                raise CheckFailed("repeats an output that failed its check")
        except Exception as exc:  # any check that cannot pass fails the op
            self._record_failure(item.tag, f"{type(exc).__name__}: {exc}")
            return dt, None
        return dt, out

    def timed(self, seconds: float) -> tuple[list[int], list[float], list[float]]:
        """Whole cycles until ``seconds`` have passed: item index and wall
        time of every op, and the reference kernel's time before the first
        op and after every op."""
        idxs, times, kernels = [], [], [calibration.time_kernel()]
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            for idx in range(len(self.items)):
                idxs.append(idx)
                times.append(self.run_one(idx)[0])
                kernels.append(calibration.time_kernel())
        return idxs, times, kernels

    def digest(self) -> str:
        h = hashlib.sha256()
        for idx in range(len(self.items)):
            h.update(self.reference.get(idx, b"<missing>"))
            h.update(b"\0")
        return h.hexdigest()


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def _git_sha():
    """HEAD of the checkout, read from its own .git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "phasorstats").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": src.hexdigest(),
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def _rate(items, idxs, times, per_item) -> float:
    return sum(per_item(items[i]) for i in idxs) / sum(times)


def _end_to_end(workload: str, items, idxs, times, setup: list[float]) -> dict:
    """Metrics of calibrated op and set-up times."""
    reps = (lambda it: it.work * it.meta["nodes"]) if workload == "cluster" else (lambda it: it.work)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms_p50": (_percentile(times, 50) * 1e3, "ms"),
        "op_ms_p90": (_percentile(times, 90) * 1e3, "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "reps_per_s": (_rate(items, idxs, times, reps), "1/s"),
        "perms_per_s": (_rate(items, idxs, times, lambda it: it.work), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _traced(args, loop: Loop, record: dict, workdirs: list) -> dict:
    """Alternate untraced and traced cycles for the run's time, so both see
    the same host, then run one traced cycle of each other workload;
    returns the per-layer metrics."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    ops: list[tracing.OpRecord] = []
    coverage: dict[str, list[tracing.OpRecord]] = {}

    def traced_cycle(pool: Loop, dest: list, times: list) -> None:
        tracer.install()
        try:
            for idx, item in enumerate(pool.items):
                dt, out = pool.run_one(idx, tracer.run_op)
                times.append(dt)
                observed = item.observe(out) if (out is not None and item.observe) else {}
                dest.append(tracing.OpRecord(len(tracer.counts) - 1, item.tag, item.work,
                                             item.meta, observed))
        finally:
            tracer.uninstall()

    t_start = time.perf_counter()
    while time.perf_counter() - t_start < args.seconds:
        untraced += [loop.run_one(idx)[0] for idx in range(len(loop.items))]
        traced_cycle(loop, ops, traced)
    for name in WORKLOADS:
        if name != args.workload:
            workdirs.append(_workdir(name, args.seed, "coverage"))
            other = Loop(make_items(name, args.seed, ROOT, workdirs[-1]))
            coverage[name] = []
            traced_cycle(other, coverage[name], [])
            loop.attempted += other.attempted
            loop.failed += other.failed
            loop.errors += other.errors
    table = tracer.table()

    metrics = {}
    sources = {}
    for m in tracing.LAYER_METRICS:
        if m.measured_on == args.workload:
            view, source = tracing.View(table, ops), "own ops"
        else:
            view, source = tracing.View(table, coverage[m.measured_on]), f"{m.measured_on} coverage cycle"
        value = m.compute(view)
        if value is None:
            value, source = 0.0, "absent"
        metrics[m.name] = (value, m.unit)
        sources[m.name] = source
    untraced_rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")
    own = np.isin(table.op, [o.op_id for o in ops])
    metrics["trace.spans_per_op"] = (float(own.sum()) / len(ops), "count")

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"trace-{args.workload}-seed{args.seed}.npz"
    table.save(spans_path)
    record.update({
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "traced_ops": len(traced),
        "spans": int(table.name.size),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "absent_entry_points": tracer.absent,
        "metric_sources": sources,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_child:
        _setup_child(args.workload, args.seed)
        return 0
    workdirs: list[Path] = []
    try:
        _import_program()
        setup, setup_wall = _setup_seconds(args.workload, args.seed)
        workdirs.append(_workdir(args.workload, args.seed, "run"))
        items = _setup(args.workload, args.seed, workdirs[0])
        loop = Loop(items)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "setup_samples_s": setup,
                  "setup_wall_s": setup_wall}
        if args.trace:
            metrics = _traced(args, loop, record, workdirs)
        else:
            idxs, wall, kernels = loop.timed(args.seconds)
            times = calibration.scale(wall, kernels)
            metrics = _end_to_end(args.workload, items, idxs, times, setup)
            record["wall"] = {"op_ms_p50": _percentile(wall, 50) * 1e3,
                              "op_ms_p90": _percentile(wall, 90) * 1e3,
                              "ops_per_s": len(wall) / sum(wall)}
            record["kernel_ms"] = {q: _percentile(kernels, p) * 1e3
                                   for q, p in (("min", 0), ("p50", 50), ("max", 100))}
            record["ops"] = len(times)
            record["cycles"] = len(times) // len(items)
        missing = [i for i in range(len(items)) if i not in loop.reference]
        correct = loop.failed == 0 and not missing
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        _remove(workdirs)

    record.update({
        "failed_frac": loop.failed / loop.attempted,
        "output_sha256": loop.digest(),
        "errors": loop.errors,
        "environment": _environment(),
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{'failed_frac':40s} {record['failed_frac']:14.6g} frac "
          f"({loop.failed}/{loop.attempted})")
    if "ops" in record:
        print(f"{'timed ops':40s} {record['ops']:14d} ({record['cycles']} cycles of {len(items)})")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

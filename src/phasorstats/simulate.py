"""Seeded Monte Carlo harness for calibration, power and outlier studies.

Samples are bivariate Gaussian: unit variance on the first axis, variance
``variance_ratio`` on the second, correlation ``correlation``, generated by
a Cholesky transform of standard normal draws. The effect size ``d`` (the
mean in population-SD units) is applied along the first axis; rotation
invariance of every statistic makes the direction irrelevant. With k > 1
groups the signal is added to the first group only.

Replicates are drawn and tested in blocks of at most ``_BLOCK_VALUES``
(2^16) complex values, 1 MiB, plus the kernel's temporaries of a few times
that. Each block is one ``standard_normal`` call that writes its (re, im)
pairs straight into the (B, k, n) complex array, whose memory has that
layout; the Cholesky step then rewrites the imaginary parts in place. The
call consumes the generator exactly as B sequential (k*n, 2) draws do, so
the stream, and with it every rate, does not depend on the block size. One
batched kernel call (kernels.py) on the block, the (B, k, n) stack itself
for the k-group tests, and vectorised p-values follow.
The blocks of every cell a thread runs are drawn into one buffer that the
thread keeps, at most 1 MiB, so a grid, a preset or a power curve does not
allocate, and fault in, a fresh block per cell; a cell whose one replicate
is larger than ``_BLOCK_VALUES`` draws into an array of its own.
Cells with a planted outlier first draw all n_reps outlier angles with one
``uniform`` call, then the normals block by block as the other cells do.

Determinism: all draws come from numpy PCG64 generators seeded through
SeedSequence as (seed, cell_index), with replicates consumed sequentially
inside a cell, so a (spec, seed) pair defines the output exactly and cells
can be evaluated concurrently without changing results.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, fields, replace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import checks, inference, kernels
from .exceptions import InvalidSpec, TooFewGroups, TooFewObservations
from .ingest import write_csv
from .records import Record

#: The contract (inference.py) of each test a cell can run: the one-sample
#: tests on the first group, the k-group tests on all k.
_CONTRACTS = {
    "T2": inference.T2,
    "T2circ": inference.T2CIRC,
    "ANOVA2circ": inference.ANOVA2CIRC,
    "MANOVA": inference.MANOVA,
    "CI_test": inference.CI_TEST,
}
TESTS = tuple(_CONTRACTS)

#: The tests whose contract refuses a degenerate sample (``kernels.degenerate``).
_REFUSE_DEGENERATE = ("T2", "CI_test", "MANOVA")

#: The spec fields that name a cell in an error message.
_CELL_FIELDS = ("test", "d", "n", "k", "correlation", "variance_ratio",
                "planted_outlier_distance")

#: Complex values drawn and tested per block (replicates x k x n), and the
#: most that a thread keeps between cells: a 400-replicate cell with
#: k n <= 163 is one block of at most 1 MiB.
_BLOCK_VALUES = 1 << 16

#: Each thread's spare block buffer (``buffer``), unset until the thread's
#: first cell ends; ``_blocks`` checks it out while it draws.
_spare = threading.local()

#: The range of each real SimulationSpec field, as a predicate and in words.
_RANGES = {
    "d": (lambda v: math.isfinite(v) and v >= 0.0, ">= 0"),
    "correlation": (lambda v: math.isfinite(v) and abs(v) < 1.0, "in (-1, 1)"),
    "variance_ratio": (lambda v: math.isfinite(v) and v > 0.0, "> 0"),
    "alpha": (lambda v: math.isfinite(v) and 0.0 < v < 1.0, "in (0, 1)"),
    "planted_outlier_distance": (lambda v: math.isfinite(v) and v >= 0.0, ">= 0"),
}


def _check_resolution(d: float, what: str) -> None:
    """InvalidSpec where the location d swamps the unit noise: from 2^43
    (about 8.8e12) on, math.ulp(d) exceeds 2^-10 of the noise SD and d +
    noise rounds the noise away from ``what`` the caller draws."""
    if math.ulp(d) > 2.0**-10:
        raise InvalidSpec(
            f"d = {d!r} leaves the {what} without resolution: "
            f"math.ulp(d) = {math.ulp(d)!r} exceeds 2^-10 of the unit noise "
            "SD, so d must be below 2^43")


def _check_outlier(dist: float) -> None:
    """InvalidSpec where the planted outlier's square overflows: from 2^512
    (about 1.3e154) on, dist * dist is inf, and so are the sums of squares
    of every sample the outlier is planted in."""
    if dist >= 2.0**512:
        raise InvalidSpec(
            f"planted_outlier_distance = {dist!r} overflows the sample's "
            "sums of squares: its square exceeds the float range, so it "
            "must be below 2^512")


def _check_population(r: float, v: float, test: str) -> None:
    """InvalidSpec where the population covariance [[1, r sqrt(v)],
    [r sqrt(v), v]] is degenerate by the rule (``kernels.degenerate``) and
    the test refuses a degenerate sample: every replicate would be refused.
    The field named is variance_ratio where the covariance is degenerate
    without the correlation too, otherwise correlation."""
    a, b, c = (np.array(x) for x in (1.0, r * math.sqrt(v), v))
    if not kernels.degenerate(a, b, c):
        return
    if kernels.degenerate(a, np.array(0.0), c):
        named = f"variance_ratio = {v!r}"
    else:
        named = f"correlation = {r!r} at variance_ratio = {v!r}"
    raise InvalidSpec(
        f"{named} makes the population covariance [[1, r sqrt(v)], "
        f"[r sqrt(v), v]] degenerate (lambda_min <= {kernels.DEGENERACY_RTOL} "
        f"trace), and {test} refuses a degenerate sample")


@dataclass(frozen=True)
class SimulationSpec:
    """One simulation cell: generator parameters, test, alpha, size and
    seed, a non-negative integer; InvalidSpec for a field out of range
    (n_reps in [1, 2^32), k * n at most 2^32 - 1, d below 2^43), for n, k
    or n_reps that is not an integer, or for d, correlation,
    variance_ratio, alpha or a planted outlier distance that is not a finite
    real number. From d = 2^43 on, d + noise rounds the unit noise away
    (``_check_resolution``), and the rates would be those of the rounding:
    T2 used to raise DegenerateCovariance at d = 1e20, and CI_test to
    reject every replicate at d = 1e308. A planted outlier distance must be
    below 2^512, where its square overflows (``_check_outlier``). For T2,
    CI_test and MANOVA, which refuse a degenerate sample, the population
    covariance must not be degenerate (``_check_population``), as it is at
    variance_ratio 1e13 or correlation 1 - 1e-13; a sample that is
    degenerate by chance raises the test's error, naming the cell
    (``_rejection_rate``)."""

    test: str
    d: float = 0.0
    n: int = 10
    correlation: float = 0.0
    variance_ratio: float = 1.0
    k: int = 1
    planted_outlier_distance: Optional[float] = None
    alpha: float = 0.05
    n_reps: int = 10000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.test not in TESTS:
            raise InvalidSpec(f"unknown test {self.test!r}; choose from {TESTS}")
        for name, minimum, maximum in (("n", None, None), ("k", 1, None),
                                       ("n_reps", 1, checks.MAX_DRAWS)):
            value = checks.integer(name, getattr(self, name), minimum,
                                   InvalidSpec, maximum)
            object.__setattr__(self, name, value)
        if self.k * self.n > checks.MAX_DRAWS:
            raise InvalidSpec(f"k * n must be <= {checks.MAX_DRAWS}, got "
                              f"{self.k} * {self.n}")
        reals = ["d", "correlation", "variance_ratio", "alpha"]
        if self.planted_outlier_distance is not None:
            reals.append("planted_outlier_distance")
        for name in reals:
            valid, what = _RANGES[name]
            checks.real(name, getattr(self, name), valid,
                        f"a finite real number {what}", InvalidSpec)
        _check_resolution(self.d, "draws")
        if self.planted_outlier_distance is not None:
            _check_outlier(self.planted_outlier_distance)
        if self.test in _REFUSE_DEGENERATE:
            _check_population(self.correlation, self.variance_ratio, self.test)
        contract = _CONTRACTS[self.test]
        try:
            contract.check((self.n,) * (self.k if contract.k_group else 1))
        except (TooFewGroups, TooFewObservations) as exc:
            raise InvalidSpec(str(exc)) from None
        object.__setattr__(self, "seed", checks.seed(self.seed, InvalidSpec))


@dataclass(frozen=True)
class RateCell(Record):
    """Rejection proportion for one grid cell, with its binomial SE."""

    test: str
    d: float
    n: int
    correlation: float
    variance_ratio: float
    k: int
    rate: float
    se: float
    n_reps: int


@dataclass(frozen=True)
class RateTable(Record):
    """Rejection rates over a grid of simulation cells."""

    seed: int
    cells: tuple[RateCell, ...]

    def to_csv(self) -> str:
        return write_csv([f.name for f in fields(RateCell)],
                         (c.to_dict().values() for c in self.cells))

    def rate(self, **filters) -> float:
        """Rate of the single cell matching the given field values."""
        hits = [
            c
            for c in self.cells
            if all(getattr(c, k) == v for k, v in filters.items())
        ]
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} cells match {filters}")
        return hits[0].rate


def _fill_normal(rng: np.random.Generator, X: np.ndarray) -> None:
    """Fill the complex array X with standard normal draws, in place.

    The draws land as (re, im) pairs, the layout of complex128, so X holds
    what ``z = rng.standard_normal(X.shape + (2,))`` and
    ``z[..., 0] + 1j * z[..., 1]`` give, and the generator moves on by the
    same 2 * X.size draws.
    """
    rng.standard_normal(out=X.view(np.float64).reshape(X.shape + (2,)))


def _blocks(rng: np.random.Generator, spec: SimulationSpec) -> Iterator[np.ndarray]:
    """The replicates of a cell as (B, k, n) complex blocks, in stream order.

    Each block is drawn in place: the standard normals fill the complex
    array as (re, im) pairs, and the Cholesky step rewrites the imaginary
    parts, so the block holds z0 + 1j * (a*z0 + c*z1) with no other array
    of its size. A block of B replicates consumes the stream as B
    sequential (k*n, 2) draws do, so the output does not depend on the
    block size.

    Every block is a C-contiguous view of one buffer: the calling thread's
    spare (``_spare``), checked out for the life of the generator and
    handed back when it ends, or a new one where the thread has none free
    (another live generator holds it) or it is too small. A buffer of more
    than ``_BLOCK_VALUES`` values, that of a cell whose one replicate is
    larger, is not kept. So a block is valid until the next one is drawn:
    use it, or copy what is needed of it, before asking for the next.
    """
    kn = spec.k * spec.n
    per_block = max(1, _BLOCK_VALUES // kn)
    dist = spec.planted_outlier_distance
    planted = dist is not None and dist > 0
    if planted:
        angles = rng.uniform(0.0, 2.0 * math.pi, spec.n_reps)
        offsets = dist * (np.cos(angles) + 1j * np.sin(angles))
    # Cholesky transform to covariance [[1, r sqrt(v)], [., v]]
    r, v = spec.correlation, spec.variance_ratio
    a, c = r * math.sqrt(v), math.sqrt(v * (1.0 - r * r))
    size = min(per_block, spec.n_reps) * kn
    buffer = None
    if size <= _BLOCK_VALUES:
        buffer, _spare.buffer = getattr(_spare, "buffer", None), None
    if buffer is None or buffer.size < size:
        buffer = np.empty(size, dtype=complex)
    try:
        for start in range(0, spec.n_reps, per_block):
            b = min(per_block, spec.n_reps - start)
            X = buffer[:b * kn].reshape(b, spec.k, spec.n)
            _fill_normal(rng, X)
            if (a, c) != (0.0, 1.0):
                im = X.imag
                im *= c
                im += a * X.real  # c*z1 + a*z0: the bits of a*z0 + c*z1
            X[:, 0] += spec.d
            if planted:
                # displace the first point of group 0 from the mean of the rest
                X[:, 0, 0] = X[:, 0, 1:].mean(axis=-1) + offsets[start:start + b]
            yield X
    finally:
        if buffer.size <= _BLOCK_VALUES:
            _spare.buffer = buffer


def _p_values(spec: SimulationSpec, X: np.ndarray) -> np.ndarray:
    """p-value of spec.test for each replicate of a (B, k, n) block; raises
    the test's contract error if any replicate is degenerate."""
    contract = _CONTRACTS[spec.test]
    result = contract.run(X if contract.k_group else X[:, 0])
    return contract.p_values(result, spec.n)


def _rejection_rate(spec: SimulationSpec, cell_index: int, seed: int) -> RateCell:
    """The cell's rate; a replicate that the test refuses (a sample
    degenerate by chance) raises the contract's error, naming the cell."""
    rng = np.random.default_rng([seed, cell_index])
    error = _CONTRACTS[spec.test].error
    try:
        hits = sum(
            int(np.count_nonzero(_p_values(spec, X) < spec.alpha))
            for X in _blocks(rng, spec)
        )
    except error as exc:
        named = ", ".join(f"{name}={getattr(spec, name)!r}" for name in _CELL_FIELDS
                          if getattr(spec, name) is not None)
        raise error(f"simulation cell {cell_index} ({named}): {exc}") from None
    rate = hits / spec.n_reps
    se = math.sqrt(rate * (1.0 - rate) / spec.n_reps)
    return RateCell(
        test=spec.test,
        d=spec.d,
        n=spec.n,
        correlation=spec.correlation,
        variance_ratio=spec.variance_ratio,
        k=spec.k,
        rate=rate,
        se=se,
        n_reps=spec.n_reps,
    )


def simulate_rates(spec: SimulationSpec) -> RateTable:
    """Rejection rate of one simulation cell; a pure function of its inputs."""
    return RateTable(spec.seed, (_rejection_rate(spec, 0, spec.seed),))


def simulate_grid(
    base: SimulationSpec,
    tests: Optional[Sequence[str]] = None,
    d_values: Optional[Sequence[float]] = None,
    n_values: Optional[Sequence[int]] = None,
    correlation_values: Optional[Sequence[float]] = None,
    variance_ratio_values: Optional[Sequence[float]] = None,
    outlier_values: Optional[Sequence[Optional[float]]] = None,
) -> RateTable:
    """Rejection rates over the Cartesian grid of the supplied axes.

    Axes left as None take the single value from ``base``. Cell RNG streams
    derive from (base.seed, cell index) in grid enumeration order.
    """
    axes = {
        "test": tests,
        "d": d_values,
        "n": n_values,
        "correlation": correlation_values,
        "variance_ratio": variance_ratio_values,
        "planted_outlier_distance": outlier_values,
    }
    grid = itertools.product(*(
        list(values) if values is not None else [getattr(base, name)]
        for name, values in axes.items()
    ))
    cells = tuple(
        _rejection_rate(replace(base, **dict(zip(axes, point))), index, base.seed)
        for index, point in enumerate(grid)
    )
    return RateTable(base.seed, cells)


def simulate_ci_distribution(n: int, n_reps: int, seed: int) -> np.ndarray:
    """Condition indices of n_reps null spherical samples of size n.

    The null CI_test cell's draws, vectorized over replicates;
    test_simulate.py pins the values to covariance_summary.
    """
    spec = SimulationSpec(test="CI_test", n=n, n_reps=n_reps, seed=seed)
    rng = np.random.default_rng([seed, 0])
    return np.concatenate(
        [kernels.condition_index(X[:, 0])[0] for X in _blocks(rng, spec)]
    )


def simulate_amplitude_skew(
    d: float, n_reps: int, seed: int
) -> tuple[np.ndarray, float]:
    """Amplitudes of unit-variance isotropic draws centered at (d, 0).

    Returns the amplitude sample and its skewness (m3 / m2^1.5); InvalidSpec
    unless d is a finite real in [0, 2^43) and n_reps an integer in
    [2, 2^32), and where every draw rounds to one amplitude. At d = 0 the
    amplitudes are Rayleigh with skewness 2 sqrt(pi) (pi - 3) / (4 - pi)^1.5;
    skew decays toward 0 as d grows. From 2^43 (about 8.8e12) on,
    math.ulp(d) exceeds 2^-10 of the unit noise SD and the rounding of
    d + noise shapes the amplitudes: at seed 0 and 10^5 reps the skew is
    0.0084 at d = 1e12 but 0.0135 at 1e14 and 1.0 at 1e18.
    """
    checks.real("d", d, math.isfinite, "a finite real number", InvalidSpec)
    n_reps = checks.integer("n_reps", n_reps, 2, InvalidSpec, checks.MAX_DRAWS)
    if d < 0.0:
        raise InvalidSpec(f"d must be >= 0, got {d}")
    rng = np.random.default_rng([checks.seed(seed, InvalidSpec), 0])
    _check_resolution(d, "amplitudes")
    draws = np.empty(n_reps, dtype=complex)
    _fill_normal(rng, draws)
    draws.real += d
    amps = np.abs(draws)
    centered = amps - amps.mean()
    spread = (centered**2).mean() ** 1.5
    if spread == 0.0:  # every draw rounded to one amplitude
        raise InvalidSpec(f"d = {d!r} leaves the amplitudes without spread, "
                          "so their skewness is undefined")
    return amps, float((centered**3).mean()) / float(spread)


def simulate_outlier_effect(
    n: int, outlier_distance: float, n_reps: int, seed: int, alpha: float = 0.05
) -> float:
    """Condition-index-test rejection rate with one planted outlier.

    Null spherical samples of size n in which one point is displaced to the
    requested distance (in population SD units) from the mean of the
    remaining points; at distance 0 the sample is left untouched.
    """
    if checks.integer("n", n, error=InvalidSpec) < 4:
        raise InvalidSpec(f"outlier simulation needs n >= 4, got {n}")
    spec = SimulationSpec(
        test="CI_test",
        n=n,
        planted_outlier_distance=outlier_distance,
        alpha=alpha,
        n_reps=n_reps,
        seed=seed,
    )
    return simulate_rates(spec).cells[0].rate

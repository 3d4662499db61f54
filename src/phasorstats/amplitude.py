"""Coherent amplitude summaries with error bars.

Two methods for putting bounds on the amplitude of a coherent mean:

- ``amp_errors_ellipse``: nearest and farthest points from the origin on the
  standard-error ellipse of the mean (after Pei et al., 2017). When the
  origin falls inside the ellipse the lower bound is zero.
- ``amp_ci_bootstrap``: percentile interval of resampled mean amplitudes;
  the 68% interval corresponds to a standard error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import checks, inference, kernels
from .data import ComplexSample
from .exceptions import TooFewObservations
from .records import Record

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AmplitudeSummary(Record):
    """Amplitude of the coherent mean with lower/upper error bounds."""

    mean_amplitude: float
    mean_phase: float
    error_low: float
    error_high: float
    method: str
    level: float


#: Coarse grid of ellipse angles the extremal searches start from.
_GRID = np.linspace(0.0, 2.0 * math.pi, 49).tolist()
_STEP = _GRID[1] - _GRID[0]


def ellipse_summary(spectrum, n: int, level: float) -> AmplitudeSummary:
    """``amp_errors_ellipse`` of a sample of n observations from its
    ``kernels.spectrum`` on a batch of one, which must meet ``ELLIPSE``'s
    precondition (n >= 3, not degenerate)."""
    mean, (a, b, c), (lmax, lmin), _, _ = spectrum
    vecs = kernels.eigvecs2(a, b, c, lmax)
    scale = -2.0 * math.log1p(-level) / n
    vmax, vmin = vecs.T
    r1 = math.sqrt(float(lmax) * scale)
    r2 = math.sqrt(float(lmin) * scale)
    c0, c1 = float(mean.real), float(mean.imag)
    center = np.array((c0, c1))
    a0, a1 = vmax.tolist()
    b0, b1 = vmin.tolist()

    def dist(theta: float) -> float:
        # center + r1 cos(theta) vmax + r2 sin(theta) vmin, term by term in
        # the order numpy evaluates it, so the floats round the same way
        u = r1 * math.cos(theta)
        w = r2 * math.sin(theta)
        return math.hypot(c0 + u * a0 + w * b0, c1 + u * a1 + w * b1)

    on_grid = [dist(t) for t in _GRID]

    def extremal(sign: float) -> float:
        # golden-section refinement of sign * dist from the three best cells
        # of the grid; the distance from a fixed point to an ellipse has at
        # most two local minima, so three restarts cover every candidate
        # basin. The distance is evaluated inline, the sign folded in.
        best = math.inf
        for i in np.argsort(np.multiply(sign, on_grid))[:3].tolist():
            lo, hi = _GRID[i] - _STEP, _GRID[i] + _STEP
            x = hi - _GOLDEN * (hi - lo)
            y = lo + _GOLDEN * (hi - lo)
            fx, fy = sign * dist(x), sign * dist(y)
            while abs(hi - lo) > 1e-10:
                left = fx < fy
                if left:
                    hi, y, fy = y, x, fx
                    t = x = hi - _GOLDEN * (hi - lo)
                else:
                    lo, x, fx = x, y, fy
                    t = y = lo + _GOLDEN * (hi - lo)
                u = r1 * math.cos(t)
                w = r2 * math.sin(t)
                f = sign * math.hypot(c0 + u * a0 + w * b0, c1 + u * a1 + w * b1)
                if left:
                    fx = f
                else:
                    fy = f
            best = min(best, sign * dist(0.5 * (lo + hi)))
        return sign * best

    # origin inside the ellipse <=> its Mahalanobis distance from the
    # center, in ellipse-axis units, is below 1
    m2 = ((center @ vmax) / r1) ** 2 + ((center @ vmin) / r2) ** 2
    return AmplitudeSummary(
        mean_amplitude=math.hypot(c0, c1),
        mean_phase=math.atan2(c1, c0),
        error_low=0.0 if m2 <= 1.0 else extremal(1.0),
        error_high=extremal(-1.0),
        method="ellipse_se",
        level=level,
    )


def amp_errors_ellipse(sample: ComplexSample, level: float = 0.68) -> AmplitudeSummary:
    """Amplitude bounds from the standard-error ellipse of the mean.

    The ellipse is the covariance of the mean (sample covariance / N)
    scaled by the chi-square(2) quantile for ``level``, -2 log(1 - level);
    bounds are its extremal distances from the origin, found by
    golden-section search over the ellipse angle (``ellipse_summary``, on
    this sample's ``ELLIPSE`` run). If the origin lies inside the ellipse,
    error_low is 0. The distance is evaluated in Python floats, in the same
    operation order as the vector form ``center + r1 cos(t) vmax + r2
    sin(t) vmin``, so the bounds are bit for bit those of that form at a
    fraction of its cost; the grid is evaluated once for both searches.
    Preconditions and errors are T^2's (``inference.ELLIPSE``).
    """
    checks.probability("level", level)
    X = inference._observations("sample", sample)
    inference.ELLIPSE.check([X.size])
    return ellipse_summary(inference.ELLIPSE.run(X), X.size, level)


def _quantiles(values: np.ndarray, qs) -> list[float]:
    """np.quantile(values, qs) of finite values, by numpy's default linear
    rule and bit for bit, from one partition on the neighbouring order
    statistics; np.quantile itself imports numpy.ma on its first call."""
    top = values.size - 1
    places = [top * q for q in qs]
    below = [min(math.floor(v), top) for v in places]
    above = [min(i + 1, top) for i in below]
    order = np.partition(values, sorted(set(below + above)))
    out = []
    for v, i, j in zip(places, below, above):
        low, high = float(order[i]), float(order[j])
        t, d = v - i, high - low
        out.append(low + d * t if t < 0.5 else high - d * (1.0 - t))
    return out


#: Resample indices drawn per bootstrap block; the bounds do not depend on
#: it. Much shorter blocks leave so much Python between the GIL-free numpy
#: calls that concurrent bootstraps serialise (``report.run_flowchart`` runs
#: one per thread). Longer ones make each block's indices and their complex
#: gather (24 bytes a value, 0.75 MiB here) large enough that glibc's heap
#: keeps or returns them by its history: at 2^16 a process of repeated
#: analyses settled at either of two peak sizes 2 MB apart, and ran slower.
_BOOT_VALUES = 1 << 15


def amp_ci_bootstrap(
    sample: ComplexSample,
    level: float = 0.68,
    n_boot: int = 10000,
    seed=0,
) -> AmplitudeSummary:
    """Percentile bootstrap confidence interval for the mean amplitude.

    Resamples the complex observations with replacement, takes the
    amplitude of each resampled coherent mean, and reads the bounds at the
    (1 -/+ level)/2 quantiles. Deterministic for a given seed: a
    non-negative integer or a list or tuple of them (``DomainError`` otherwise).
    n_boot must be an integer in [1, 2^32).

    The resamples are drawn and summed in blocks of about ``_BOOT_VALUES``
    indices, so memory is O(n_boot + block), not O(n_boot * N). The bounds
    are bit for bit those of the one-shot ``np.abs(obs[rng.integers(0, N,
    (n_boot, N))].mean(axis=1))``: consecutive ``integers`` calls continue
    one PCG64 stream, and each row is reduced on its own.
    """
    checks.probability("level", level)
    n_boot = checks.integer("n_boot", n_boot, 1, maximum=checks.MAX_DRAWS)
    obs = inference._observations("sample", sample)
    n = obs.size
    if n < 2:
        raise TooFewObservations(f"bootstrap needs >= 2 observations, got {n}")
    rng = np.random.default_rng(checks.seeds(seed))
    rows = max(1, _BOOT_VALUES // n)
    sums = np.empty(n_boot, dtype=complex)
    for start in range(0, n_boot, rows):
        stop = min(start + rows, n_boot)
        idx = rng.integers(0, n, size=(stop - start, n))
        np.add.reduce(obs[idx], axis=1, out=sums[start:stop])
    amps = np.abs(sums / n)  # the bits of .mean(axis=1)
    lo, hi = _quantiles(amps, ((1.0 - level) / 2.0, (1.0 + level) / 2.0))
    mean = obs.mean()
    return AmplitudeSummary(
        mean_amplitude=float(abs(mean)),
        mean_phase=math.atan2(mean.imag, mean.real),
        error_low=float(lo),
        error_high=float(hi),
        method="bootstrap",
        level=level,
    )

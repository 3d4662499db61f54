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
#: The indices are numpy's bounded-integer draws, ``Generator.integers(0,
#: n)``, taken from raw PCG64 words (``_draw_indices``).
_BOOT_VALUES = 1 << 15

#: Resample indices drawn per ``_draw_indices`` call, a whole number of
#: blocks; the bounds do not depend on it. A draw is four GIL-free numpy
#: calls where ``integers`` was one, so drawing each block alone left the
#: concurrent bootstraps waiting on each other for the GIL more than twice
#: as often, and most of the draw's saving was lost in the pool.
_DRAW_VALUES = 1 << 16

_NO_CARRY = np.empty(0, dtype=np.uint32)


def _draw_indices(bitgen, n: int, count: int, out: np.ndarray,
                  carry: np.ndarray) -> np.ndarray:
    """Write the next ``count`` draws of ``Generator.integers(0, n)`` on
    bit generator ``bitgen``'s stream to ``out[:count]`` (int64), bit for
    bit, for 2 <= n < 2^32, and return the new carry.

    For a range below 2^32 numpy draws each index by Lemire's multiply-shift
    rejection on 32-bit words: (u * n) >> 32, except that a u whose low 32
    bits of u * n fall below (2^32 - n) % n is skipped for the next word.
    The words are the halves of PCG64's raw 64-bit outputs, low half first,
    and a half left over by one draw is the first word of the next: that
    word, a uint32 array of 0 or 1 elements, is ``carry``. Here the products
    are formed in ``out`` for a whole array of words at once, and where some
    are skipped the kept ones move up and as many words again are drawn.
    """
    product = out[:count].view(np.uint64)
    floor = (2**32 - n) % n  # the lowest accepted low word
    n64 = np.uint64(n)
    done = 0
    while done < count:
        need = count - done
        words = bitgen.random_raw((need - carry.size + 1) // 2)
        words = words.astype("<u8", copy=False).view("<u4")
        head = product[done:done + carry.size]
        tail = product[done + carry.size:]
        np.multiply(carry, n64, out=head)
        np.multiply(words[:tail.size], n64, out=tail)
        carry = words[tail.size:].copy()
        low = product[done:].astype("<u8", copy=False).view("<u4")[::2]
        if floor and low.min() < floor:
            keep = low >= floor
            kept = product[done:][keep]
            product[done:done + kept.size] = kept
            done += kept.size
        else:
            done = count
    np.right_shift(product, 32, out=product)
    return carry


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

    The resamples are summed in blocks of about ``_BOOT_VALUES`` indices,
    drawn about ``_DRAW_VALUES`` at a time, so memory is O(n_boot + block),
    not O(n_boot * N). The bounds
    are bit for bit those of the one-shot ``np.abs(obs[default_rng(seed)
    .integers(0, N, (n_boot, N))].mean(axis=1))``: the indices are numpy's
    bounded-integer draws, taken from the raw words of the seed's PCG64
    stream by ``_draw_indices``, which continues that stream from block to
    block, and each row is reduced on its own. So the bits depend on
    PCG64's stream and on numpy's rule for bounded integers.
    """
    checks.probability("level", level)
    n_boot = checks.integer("n_boot", n_boot, 1, maximum=checks.MAX_DRAWS)
    obs = inference._observations("sample", sample)
    n = obs.size
    if n < 2:
        raise TooFewObservations(f"bootstrap needs >= 2 observations, got {n}")
    bitgen = np.random.PCG64(checks.seeds(seed))
    rows = max(1, _BOOT_VALUES // n)
    drawn = rows * max(1, _DRAW_VALUES // (rows * n))  # rows drawn at once
    idx = np.empty(drawn * n, dtype=np.int64)
    carry = _NO_CARRY
    sums = np.empty(n_boot, dtype=complex)
    for first in range(0, n_boot, drawn):
        last = min(first + drawn, n_boot)
        carry = _draw_indices(bitgen, n, (last - first) * n, idx, carry)
        for start in range(first, last, rows):
            stop = min(start + rows, last)
            block = idx[(start - first) * n:(stop - first) * n]
            np.add.reduce(obs[block].reshape(stop - start, n), axis=1,
                          out=sums[start:stop])
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

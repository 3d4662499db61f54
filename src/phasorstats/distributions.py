"""F-distribution helpers and the sampling distribution of condition indices.

The condition index of a bivariate sample is sqrt(lambda_max / lambda_min)
of its covariance eigenvalues. For i.i.d. circular Gaussian data its density
follows the classic result for condition indices of random Gaussian matrices
(Edelman, 1988). Centering the sample costs one degree of freedom, so the
distribution that matches covariance-based condition indices of N
observations is the classic density evaluated with N - 1; the ``modified``
variant below applies that correction and is the one hypothesis tests use.

With m = N - 1 (modified) or N (edelman) the density
(m-1) 2^(m-1) x^(m-2) (x^2-1) / (x^2+1)^m integrates in closed form:

    sf(x) = (2x / (1 + x^2))^(m-1),   cdf(x) = 1 - sf(x),
    quantile(p) = (1 + sqrt(1 - q^2)) / q  with  q = (1 - p)^(1/(m-1)),

so no quadrature or root finding is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .exceptions import DomainError

_VARIANTS = ("edelman", "modified")

_MAX = float(np.finfo(float).max)


def _f_args(x, df1: int, df2: int) -> tuple[np.ndarray, int, int]:
    """Checked F statistic array and integer degrees of freedom."""
    if not all(float(df).is_integer() and df >= 1 for df in (df1, df2)):
        raise DomainError(
            f"degrees of freedom must be integers >= 1, got ({df1}, {df2})")
    df1 = int(df1)
    df2 = int(df2)
    arr = np.asarray(x, dtype=float)
    invalid = ~(arr >= 0.0)  # negative or NaN
    if invalid.any():
        raise DomainError(f"F statistic must be >= 0, got {arr[invalid][0]}")
    return arr, df1, df2


def f_sf(x, df1: int, df2: int):
    """P(F > x) for an F distribution with (df1, df2) degrees of freedom.

    Computed directly (``special.fdtrc``), not as 1 - cdf, so the far tail
    keeps its digits instead of rounding to 0. ``x`` is a scalar (float
    result) or an array of statistics (array result), each >= 0
    (``DomainError`` otherwise, as for degrees of freedom that are not
    integers >= 1); inf maps to 0.
    """
    arr, df1, df2 = _f_args(x, df1, df2)
    sf = special.fdtrc(df1, df2, arr)
    huge = np.isfinite(arr) & (arr > _MAX / df1)
    if huge.any():  # fdtrc gives 0 once df1 x overflows; y = df2 / df1 / x there
        y = df2 / df1 / np.maximum(arr, 1.0)
        sf = np.where(huge, special.betainc(0.5 * df2, 0.5 * df1, y), sf)
    return float(sf) if sf.ndim == 0 else sf


def f_critical(alpha: float, df1: int, df2: int) -> float:
    """Upper-tail critical value: x such that f_sf(x, df1, df2) = alpha.

    Inverted on the survival side, so it keeps its digits for tiny alpha:
    f_sf(x) = I_y(df2/2, df1/2) with y = df2 / (df2 + df1 x). Where
    ``betaincinv``'s y underflows (or is nan), x starts from the tail
    I_y(a, b) ~ y^a / (a B(a, b)) in log space instead. Where that start
    leaves f_sf(x) more than 1e-14 relative off alpha, Newton steps on
    log f_sf against log x polish x and the point nearest alpha is
    returned; an answer already within 1e-14 keeps its bits. DomainError
    where x is beyond the float range, f_sf(float max) > alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must be in (0, 1), got {alpha}")
    if f_sf(_MAX, df1, df2) > alpha:
        raise DomainError(f"F({df1}, {df2}) critical value at alpha = {alpha} "
                          "exceeds the float range")
    a, b = 0.5 * df2, 0.5 * df1
    y = float(special.betaincinv(a, b, alpha))
    x = df2 / df1 * ((1.0 - y) / y) if np.finfo(float).tiny < y < 1.0 else math.inf
    if not x <= _MAX:  # y underflowed, or is nan
        log_y = (math.log(alpha) + math.log(a) + float(special.betaln(a, b))) / a
        x = math.exp(min(math.log(df2 / df1) - log_y, math.log(_MAX)))
    best, best_excess = x, math.inf
    for _ in range(8):
        sf = f_sf(x, df1, df2)
        if not sf > 0.0:
            break
        if abs(sf - alpha) < best_excess:
            best, best_excess = x, abs(sf - alpha)
        if best_excess <= 1e-14 * alpha:
            break
        # Newton on log f_sf against log x, whose slope is -x pdf / sf;
        # f_sf itself is only good to ~1e-13 relative here, so the best
        # point seen is kept
        slope = math.exp(_f_logpdf(x, df1, df2) + math.log(x) - math.log(sf))
        if not slope > 0.0:
            break
        x_new = min(x * math.exp(math.log(sf / alpha) / slope), _MAX)
        if x_new == x:
            break
        x = x_new
    return best


def _f_logpdf(x: float, df1: int, df2: int) -> float:
    """Log density of the F distribution at x > 0."""
    h1, h2 = 0.5 * df1, 0.5 * df2
    # log(1 + df1 x / df2), without overflow where df1 x is past the float range
    log_1p = math.log(x) + math.log(df1 / df2 + 1.0 / x)
    return (h1 * math.log(df1 / df2) + (h1 - 1.0) * math.log(x)
            - (h1 + h2) * log_1p - float(special.betaln(h1, h2)))


@dataclass(frozen=True)
class ConditionIndexDistribution:
    """Null distribution of bivariate condition indices for sample size n.

    variant:
        ``"modified"`` (default) matches covariance-based condition indices
        of n centered observations; ``"edelman"`` is the classic density for
        n uncentered rows. The two coincide under n -> n + 1, and for large
        n their quantiles agree closely; for small n only the modified form
        matches simulation.

    The support is x >= 1. n = 3 is the smallest supported size for the
    modified variant; its density there is 2(x^2-1)/(x^2+1)^2.
    """

    n: int
    variant: str = "modified"

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise DomainError(f"unknown variant {self.variant!r}")
        try:
            whole = int(self.n) == self.n
        except (TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
            whole = False
        if not whole or self.n < 3:
            raise DomainError(f"sample size must be an integer >= 3, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def _m(self) -> int:
        return self.n if self.variant == "edelman" else self.n - 1

    def pdf(self, x):
        """Density at x (scalar or array). Zero at x = 1, decaying tail."""
        arr = _support(x)
        m = self._m
        with np.errstate(divide="ignore"):
            logpdf = (
                math.log(m - 1)
                + (m - 1) * math.log(2.0)
                + np.log(arr * arr - 1.0)
                + (m - 2) * np.log(arr)
                - m * np.log(arr * arr + 1.0)
            )
        out = np.where(arr > 1.0, np.exp(logpdf), 0.0)
        return float(out) if np.isscalar(x) or arr.ndim == 0 else out

    def sf(self, x):
        """P(CI > x) = (2x / (1 + x^2))^(m-1), for a scalar or an array;
        evaluated as (2 / (x + 1/x))^(m-1), which cannot overflow and keeps
        full relative accuracy in the far tail."""
        arr = _support(x)
        row = np.atleast_1d(arr)  # a scalar gets the bits of an array entry
        out = (2.0 / (row + 1.0 / row)) ** (self._m - 1)
        return float(out[0]) if arr.ndim == 0 else out

    def cdf(self, x):
        """P(CI <= x) = 1 - sf(x), for a scalar or an array."""
        return 1.0 - self.sf(x)

    def quantile(self, p: float) -> float:
        """Inverse of cdf: (1 + sqrt(1 - q^2)) / q with q = (1 - p)^(1/(m-1));
        1 - q^2 is formed as (1 - q)(1 + q) with 1 - q from expm1, which
        keeps the accuracy as p -> 0. quantile(0) = 1."""
        if not 0.0 <= p < 1.0:
            raise DomainError(f"p must be in [0, 1), got {p}")
        log_q = math.log1p(-p) / (self._m - 1)
        q = math.exp(log_q)
        return (1.0 + math.sqrt(-math.expm1(log_q) * (1.0 + q))) / q


def _support(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(arr >= 1.0):  # below 1 or NaN
        raise DomainError("condition index is >= 1 by definition")
    return arr

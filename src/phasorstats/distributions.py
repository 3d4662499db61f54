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

from . import checks
from .exceptions import DomainError

_VARIANTS = ("edelman", "modified")

_MAX = float(np.finfo(float).max)

# even df1 above this go to fdtrc: the finite sum takes df1 / 2 numpy steps
_SUM_MAX_DF1 = 1000


def _f_args(x, df1: int, df2: int) -> tuple[np.ndarray, int, int]:
    """Checked F statistic array and integer degrees of freedom."""
    for df in (df1, df2):
        checks.real("degrees of freedom", df, lambda v: v >= 1 and checks.whole(v),
                    "integers >= 1")
    df1 = int(df1)
    df2 = int(df2)
    arr = checks.floats("F statistic", x)
    invalid = ~(arr >= 0.0)  # negative or NaN
    if invalid.any():
        raise DomainError(f"F statistic must be >= 0, got {arr[invalid][0]}")
    return arr, df1, df2


def f_sf(x, df1: int, df2: int):
    """P(F > x) for an F distribution with (df1, df2) degrees of freedom.

    Computed directly, not as 1 - cdf, so the far tail keeps its digits
    instead of rounding to 0. For even df1, which every test in the library
    has, the tail is the finite sum (Abramowitz & Stegun 26.6.4)

        sf(x) = y^a sum_{j < df1/2} ((a)_j / j!) (1 - y)^j,
        y = df2 / (df2 + df1 x),  a = df2 / 2,

    combined in log space, with log(1 / y) = log1p(df1 x / df2) formed
    without overflow; no scipy is imported. Odd df1, even df1 above 1000
    (the sum takes df1 / 2 steps) and an even df1 whose sum coefficients
    overflow (df1 and df2 both large, e.g. F(500, 3000)) go to
    ``scipy.special.fdtrc``, imported on that call. ``x`` is a scalar
    (float result) or an array of statistics (array result), each >= 0
    (``DomainError`` otherwise, as for degrees of freedom that are not
    integers >= 1); inf maps to 0. A scalar gets the bits of an array entry.
    """
    arr, df1, df2 = _f_args(x, df1, df2)
    row = np.ascontiguousarray(arr)  # 1-d: a scalar gets an array's bits
    if df1 % 2 == 0 and df1 <= _SUM_MAX_DF1:
        sf = _even_sf(row, df1, df2)
    else:
        sf = _scipy_sf(row, df1, df2)
    return float(sf[0]) if arr.ndim == 0 else sf.reshape(arr.shape)


def _even_sf(x: np.ndarray, df1: int, df2: int) -> np.ndarray:
    """A & S 26.6.4 for even df1: y^a times the partial sum, joined in log
    space, where y^a alone may underflow before the sum lifts it."""
    a, u = 0.5 * df2, df1 / df2
    coefs = [1.0]  # (a)_j / j!; their sum bounds the partial sum, 1 - y <= 1
    for j in range(1, df1 // 2):
        coefs.append(coefs[-1] * (a + j - 1) / j)
    if not math.isfinite(math.fsum(coefs)):  # df1 and df2 both large
        return _scipy_sf(x, df1, df2)
    if u * float(np.maximum.reduce(x, initial=0.0)) <= _MAX:
        log_inv_y = np.log1p(u * x)
    else:  # df1 x / df2 overflows, or x is inf: log x + log(df1 / df2 + 1 / x)
        with np.errstate(over="ignore"):
            log_inv_y = np.log1p(u * x)
        far = np.isinf(log_inv_y)
        log_inv_y[far] = np.log(x[far]) + np.log(u + 1.0 / x[far])
    if df1 == 2:
        return np.exp(-a * log_inv_y)
    one_minus_y = -np.expm1(-log_inv_y)
    total = coefs[-1] * one_minus_y  # Horner, from the highest term
    for c in reversed(coefs[1:-1]):
        total += c
        total *= one_minus_y
    total += 1.0
    return np.exp(np.log(total) - a * log_inv_y)


def _scipy_sf(x: np.ndarray, df1: int, df2: int) -> np.ndarray:
    """scipy's F tail, for the df1 the finite sum does not cover."""
    from scipy import special

    sf = special.fdtrc(df1, df2, x)
    huge = np.isfinite(x) & (x > _MAX / df1)
    if huge.any():  # fdtrc gives 0 once df1 x overflows; y = df2 / df1 / x there
        y = df2 / df1 / np.maximum(x, 1.0)
        sf = np.where(huge, special.betainc(0.5 * df2, 0.5 * df1, y), sf)
    return sf


def f_critical(alpha: float, df1: int, df2: int) -> float:
    """Upper-tail critical value: x such that f_sf(x, df1, df2) = alpha.

    Inverted on the survival side, so it keeps its digits for tiny alpha.
    For df1 = 2, the only df1 ``cluster_correct`` uses, the tail is
    y^(df2/2) with y = df2 / (df2 + 2x), so x starts at the closed form
    (df2 / 2) expm1(-(2 / df2) log alpha), with no scipy. Other df1 start
    from ``scipy.special.betaincinv`` (imported on that call), since
    f_sf(x) = I_y(df2/2, df1/2); where its y underflows, is nan, or gives
    f_sf(x) = 0, x starts from the tail I_y(a, b) ~ y^a / (a B(a, b)) in log
    space instead. Where the start leaves f_sf(x) more than 1e-14 relative
    off alpha, Newton steps on log f_sf against log x polish x and the point
    nearest alpha is returned; an answer already within 1e-14 keeps its
    bits. DomainError where x is beyond the float range,
    f_sf(float max) > alpha.
    """
    checks.probability("alpha", alpha)
    if f_sf(_MAX, df1, df2) > alpha:
        raise DomainError(f"F({df1}, {df2}) critical value at alpha = {alpha} "
                          "exceeds the float range")
    a, b = 0.5 * df2, 0.5 * df1
    if df1 == 2:
        t = -math.log(alpha) / a  # log(1 / y); expm1(t) = exp(t) past 40
        x = (a * math.expm1(t) if t < 700.0
             else math.exp(min(t + math.log(a), math.log(_MAX))))
    else:
        from scipy import special

        y = float(special.betaincinv(a, b, alpha))
        x = df2 / df1 * ((1.0 - y) / y) if np.finfo(float).tiny < y < 1.0 else math.inf
        if not (x <= _MAX and f_sf(x, df1, df2) > 0.0):
            # betaincinv's y underflowed, is nan, or is past the tail
            log_y = (math.log(alpha) + math.log(a) + _betaln(a, b)) / a
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


def _betaln(a: float, b: float) -> float:
    """log B(a, b)."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _f_logpdf(x: float, df1: int, df2: int) -> float:
    """Log density of the F distribution at x > 0."""
    h1, h2 = 0.5 * df1, 0.5 * df2
    # log(1 + df1 x / df2), without overflow where df1 x is past the float range
    log_1p = math.log(x) + math.log(df1 / df2 + 1.0 / x)
    return (h1 * math.log(df1 / df2) + (h1 - 1.0) * math.log(x)
            - (h1 + h2) * log_1p - _betaln(h1, h2))


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
        checks.real("sample size", self.n, lambda v: v >= 3 and checks.whole(v),
                    "an integer >= 3")
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
        checks.real("p", p, lambda v: 0.0 <= v < 1.0, "in [0, 1)")
        log_q = math.log1p(-p) / (self._m - 1)
        q = math.exp(log_q)
        return (1.0 + math.sqrt(-math.expm1(log_q) * (1.0 + q))) / q


def _support(x) -> np.ndarray:
    arr = checks.floats("condition index", x)
    if not np.all(arr >= 1.0):  # below 1 or NaN
        raise DomainError("condition index is >= 1 by definition")
    return arr

"""Test statistics batched over leading axes, and the 2x2 algebra they share.

This module is the only home of the bivariate moment sums, the 2x2
eigenvalues, the degeneracy rule and the inverse quadratic form. The scalar
tests in ``inference``, ``covariance_summary``, the ellipse in
``amplitude`` and the distances in ``outliers`` run these functions on a
batch of one. Every sum over the sample axis is a mean or a ``scatter``
sum of a C-contiguous copy, so a scalar test or covariance summary is bit
for bit the matching row of a batched call in any memory layout (C or
Fortran order, strided or selected).

Each kernel takes complex observations with the sample along the last axis,
(..., n), and returns arrays over the leading axes; the k-group kernels take
the stacked (..., k, n) array of k equal groups, or a list of k arrays of any
sizes. F kernels return ``(statistic, f, (df1, df2), bad)``.
``bad`` marks samples on which the test cannot be evaluated (degenerate
covariance, zero residual); there F = inf, so cluster permutations count
the node as supra-threshold. An exactly zero mean difference gives F = 0.

Each contract (``inference.Contract``) turns ``bad`` into its typed error,
and a test's results into p-values and ``TestResult`` records; the callers
above, the simulator and the cluster test all go through one.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative eigenvalue threshold below which a 2x2 covariance is treated as
#: degenerate (rank deficient): lambda_min <= DEGENERACY_RTOL * trace.
DEGENERACY_RTOL = 1e-12


def _dot(x: np.ndarray, y: np.ndarray):
    # row-wise dot products with the bits of the 1-d BLAS dot ``x @ y``
    # (np.vecdot does the same but needs numpy >= 2)
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _rows(X: np.ndarray):
    """X as C-contiguous rows, and their means over the last axis. Every sum
    over the sample axis starts here, so each row sums in the order of the
    1-d call whatever the memory layout of X."""
    X = np.ascontiguousarray(X)
    return X, X.sum(axis=-1) / X.shape[-1]  # the bits of X.mean(axis=-1)


def scatter(X: np.ndarray):
    """Mean and the scatter sums (sxx, sxy, syy) about it, over the last
    axis: the one reduction over the sample axis besides the mean."""
    X, m = _rows(X)
    dre = X.real - m.real[..., None]
    dim = X.imag - m.imag[..., None]
    return m, _dot(dre, dre), _dot(dre, dim), _dot(dim, dim)


def covariance(X: np.ndarray):
    """Mean and the covariance entries (a, b, c) of [[a, b], [b, c]], with the
    N - 1 denominator, over the last axis."""
    n = X.shape[-1]
    m, sxx, sxy, syy = scatter(X)
    return m, sxx / (n - 1), sxy / (n - 1), syy / (n - 1)


def pooled(A: np.ndarray, B: np.ndarray):
    """Mean difference A - B and the pooled covariance entries (a, b, c),
    with the Na + Nb - 2 denominator."""
    ma, aa, ab, ac = scatter(A)
    mb, ba, bb, bc = scatter(B)
    denom = A.shape[-1] + B.shape[-1] - 2
    return ma - mb, (aa + ba) / denom, (ab + bb) / denom, (ac + bc) / denom


def eig2(a, b, c):
    """Eigenvalues (lambda_max, lambda_min) of [[a, b], [b, c]]; lambda_min is
    clamped at zero, as sample covariances are positive semi-definite up to
    rounding."""
    half = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    return half + disc, np.maximum(half - disc, 0.0)


def _major_axis(a, b, c, lmax):
    """Unnormalised eigenvector (x, y) of [[a, b], [b, c]] for the eigenvalue
    lmax. A diagonal matrix (b = 0) gets the unit axis of its larger entry,
    (1, 0) where a >= c and (0, 1) where not: lmax - c may round to 0 there
    (a and c one ulp apart), and where it does not, (lmax - c, 0)
    normalises to the same axis."""
    diagonal = b == 0.0
    first = a >= c
    x = np.where(diagonal, np.where(first, 1.0, 0.0), np.where(first, lmax - c, b))
    y = np.where(diagonal, np.where(first, 0.0, 1.0), np.where(first, b, lmax - a))
    return x, y


def eigvecs2(a: float, b: float, c: float, lmax: float) -> np.ndarray:
    """Orthonormal eigenvectors of [[a, b], [b, c]] (scalars) as the columns
    (v_max, v_min), v_max for the eigenvalue lmax; the coordinate axes when
    the matrix is a multiple of the identity."""
    x, y = (float(v) for v in _major_axis(a, b, c, lmax))
    return np.array([[x, -y], [y, x]]) / math.hypot(x, y)


#: lambda_min <= RTOL trace  <=>  det <= RTOL (1 - RTOL) trace^2 for a
#: positive semi-definite 2x2 matrix, because lambda_min lambda_max = det
#: and lambda_min + lambda_max = trace
_DET_RTOL = DEGENERACY_RTOL * (1.0 - DEGENERACY_RTOL)


def _two_product(x, y):
    """(p, e) with p = fl(x y) and p + e = x y exactly: Dekker's product,
    on Veltkamp's split of each factor into two halves of 26 bits."""
    p = x * y
    xs, ys = 134217729.0 * x, 134217729.0 * y  # 2^27 + 1
    xh, yh = xs - (xs - x), ys - (ys - y)
    xl, yl = x - xh, y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


#: limit = _DET_RTOL trace^2 at the trace 2^-400: above that, and below a
#: trace of 2^400, no product of the rule or of its Veltkamp splits
#: overflows or falls to a subnormal where the decision depends on it
_LIMIT_FLOOR = _DET_RTOL * 2.0**-800


def _exact_rule(a, b, c):
    """The rule with the exact product errors added to the determinant."""
    det = (a * c - b * b) + (_two_product(a, c)[1] - _two_product(b, b)[1])
    return det <= _DET_RTOL * (a + c) * (a + c)


def degenerate(a, b, c):
    """The degeneracy rule lambda_min <= DEGENERACY_RTOL * trace for the
    positive semi-definite [[a, b], [b, c]], in its determinant form; a zero
    matrix is degenerate.

    The rounded a c - b b is within 2^-52 (a c + b b) of the exact
    determinant. Where that is not enough to place it on one side of the
    threshold, the exact product errors are added, so a sample at the
    threshold is decided by the rule and not by rounding. The rule does not
    change when a, b and c are scaled by one factor, so where a trace lies
    outside [2^-400, 2^400] every matrix is first scaled, exactly, by the
    power of two that brings its trace into [1/2, 1). One reduction tests
    the upper end before any product is formed. Below the lower end the
    products lose bits to subnormals only by a few multiples of 2^-1074, so
    an absolute 2^-1070 in the margin sends every decision they could
    change, with the near-threshold ones, to the test of the lower end.
    """
    trace = a + c
    if np.fmax.reduce(trace, axis=None) <= 2.0**400:
        ac, bb = a * c, b * b
        det = ac - bb
        limit = _DET_RTOL * trace * trace
        del trace  # held on, it gave the cluster loop a third more page faults
        if np.all(np.abs(det - limit) > 2.0**-50 * (ac + bb) + 2.0**-1070):
            return det <= limit
        if np.fmin.reduce(limit, axis=None) >= _LIMIT_FLOOR:
            return _exact_rule(a, b, c)
        trace = a + c
    shift = -np.frexp(trace)[1]
    return _exact_rule(*(np.ldexp(v, shift) for v in (a, b, c)))


def _adjugate_form(a, b, c, x, y):
    return c * (x * x) - 2.0 * b * x * y + a * (y * y)


def quadform_inv(a, b, c, x, y):
    """(x, y) [[a, b], [b, c]]^{-1} (x, y)' through the closed-form inverse."""
    return _adjugate_form(a, b, c, x, y) / (a * c - b * b)


def mahalanobis(X: np.ndarray):
    """Distance D (not D^2) of each observation from its sample mean in
    covariance units, over the last axis, and ``bad`` (a degenerate
    covariance, where D = nan)."""
    m, a, b, c = covariance(X)
    bad = degenerate(a, b, c)
    # transposed, the sample axis comes first and the moments broadcast
    # over it; a 1-d sample and its scalar moments are left as they are
    z = X.T - m.T
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(np.maximum(quadform_inv(a.T, b.T, c.T, z.real, z.imag), 0.0))
    return np.where(bad.T, np.nan, d).T, bad


def pairwise_mahalanobis(A: np.ndarray, B: np.ndarray):
    """Distance between the means of A and B in pooled-covariance units, and
    ``bad``. Where the pooled covariance is degenerate, a mean difference
    along its non-degenerate axis gives the univariate distance along that
    axis (0 for no difference); one with a component across it, or a zero
    covariance, is ``bad`` (d = nan)."""
    diff, a, b, c = pooled(A, B)
    x, y = diff.real, diff.imag
    degen = degenerate(a, b, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(np.maximum(quadform_inv(a, b, c, x, y), 0.0))
        lmax, _ = eig2(a, b, c)
        ex, ey = _major_axis(a, b, c, lmax)
        norm = np.hypot(ex, ey)
        moved = diff != 0
        across = np.abs(y * ex - x * ey) / norm
        bad = degen & moved & ((lmax <= 0.0) | (across > 1e-9 * np.abs(diff)))
        along = np.abs(x * ex + y * ey) / norm
        d = np.where(degen, np.where(moved, along / np.sqrt(lmax), 0.0), d)
    return np.where(bad, np.nan, d), bad


def f_ratio(ss_model, df_m: int, ss_resid, df_r: int, ss_total):
    """Mean-square ratio with guards against pure rounding noise: (f, bad).

    A model sum of squares at most 1e-24 of the total variation is exact
    zero up to float error (identical group means), giving F = 0; a residual
    sum that small with a genuine model term is a perfect fit, which is not
    testable: ``bad``, F = inf.
    """
    floor = 1e-24 * ss_total
    zero = np.logical_or(ss_total <= 0.0, ss_model <= floor)
    bad = np.logical_and(~zero, ss_resid <= floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (ss_model / df_m) / (ss_resid / df_r)
    return np.where(zero, 0.0, np.where(bad, np.inf, f)), bad


def pillai(b00, b01, b11, wa, wb, wc, k: int, total_n: int):
    """Pillai's trace of W^{-1} B for k groups of total_n observations.

    Returns (trace, F, (df1, df2), bad): ``bad`` marks a singular W, and a
    trace within 1e-12 of its maximum gives F = inf (p = 0).
    """
    det_w = wa * wc - wb * wb
    bad = degenerate(wa, wb, wc)
    s = min(2, k - 1)
    df1 = s * (abs(2 - k + 1) - 1 + s + 1)  # s(2m + s + 1) with 2m integral
    df2 = s * (total_n - k - 3 + s + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # eigenvalues of W^{-1} B from its trace and determinant (2x2)
        tr_m = (wc * b00 - 2.0 * wb * b01 + wa * b11) / det_w
        det_m = np.maximum(b00 * b11 - b01**2, 0.0) / det_w
        disc = np.sqrt(np.maximum(tr_m * tr_m - 4.0 * det_m, 0.0))
        lam1 = np.maximum((tr_m + disc) / 2.0, 0.0)
        lam2 = np.maximum((tr_m - disc) / 2.0, 0.0)
        trace = lam1 / (1.0 + lam1) + lam2 / (1.0 + lam2)
        f = (trace / (s - trace)) * (df2 / df1)
    f = np.where(bad | (s - trace <= 1e-12), np.inf, f)
    return trace, f, (df1, df2), bad


def _ratio(num, den, bad, diff):
    """num / den, except where ``bad`` (den may be 0): 0 where ``diff`` is
    exactly 0, as in the scalar tests, and inf otherwise. Returns the ratio
    and ``bad`` without those zero entries."""
    if not bad.any():  # the common case: den > 0 everywhere
        return num / den, bad
    zero = np.equal(diff, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(bad, np.where(zero, 0.0, np.inf), num / den)
    return out, bad & ~zero


def hotelling(h, a, b, c, diff, df2: int):
    """T^2 = h d' C^{-1} d for covariance [[a, b], [b, c]];
    F = T^2 df2 / (2 (df2 + 1))."""
    det = a * c - b * b
    q, bad = _ratio(_adjugate_form(a, b, c, diff.real, diff.imag), det,
                    degenerate(a, b, c), diff)
    t2 = h * q
    return t2, t2 * df2 / (2.0 * (df2 + 1)), (2, df2), bad


def circular(h, dfr: int, diff, resid):
    """T^2_circ = dfr |d|^2 / resid; F = h T^2_circ with df (2, 2 dfr)."""
    num = diff.real * diff.real + diff.imag * diff.imag
    t2c, bad = _ratio(dfr * num, resid, resid <= 0.0, num)
    return t2c, h * t2c, (2, 2 * dfr), bad


def t2_one_sample(X: np.ndarray, mu: complex = 0j):
    """Hotelling's T^2 against mu; df (2, n-2)."""
    n = X.shape[-1]
    m, a, b, c = covariance(X)
    return hotelling(n, a, b, c, m - mu, n - 2)


def t2circ_one_sample(X: np.ndarray, mu: complex = 0j):
    """T^2_circ against mu, the residual power sxx + syy; df (2, 2n-2)."""
    n = X.shape[-1]
    m, sxx, _, syy = scatter(X)
    return circular(n, n - 1, m - mu, sxx + syy)


def t2_two_sample(A: np.ndarray, B: np.ndarray):
    """Two-sample T^2 with pooled covariance; df (2, na + nb - 3)."""
    na, nb = A.shape[-1], B.shape[-1]
    diff, a, b, c = pooled(A, B)
    return hotelling(na * nb / (na + nb), a, b, c, diff, na + nb - 3)


def t2circ_two_sample(A: np.ndarray, B: np.ndarray):
    """Two-sample T^2_circ with pooled residual power; df (2, 2(na + nb - 2))."""
    na, nb = A.shape[-1], B.shape[-1]
    ma, axx, _, ayy = scatter(A)
    mb, bxx, _, byy = scatter(B)
    return circular(na * nb / (na + nb), na + nb - 2, ma - mb,
                    (axx + bxx) + (ayy + byy))


def _sizes(groups) -> tuple[int, ...]:
    """The size of each of k groups, given stacked or as a list (see
    ``_between_within``)."""
    if isinstance(groups, np.ndarray):
        return (groups.shape[-1],) * groups.shape[-2]
    return tuple(g.shape[-1] for g in groups)


def _between_within(groups):
    """Between-group (b00, b01, b11) and within-group (wa, wb, wc) scatter
    entries of the (re, im) responses of k groups: the stacked (..., k, n)
    array, or a list of k arrays, each (..., n_g).

    A stacked block takes one ``scatter`` pass for every group, and its
    grand mean reads the same contiguous memory as (..., k n) rows, the
    bits of the list's concatenation. Either way the groups are folded in
    order, so the two forms give the same bits."""
    if isinstance(groups, np.ndarray):
        X = np.ascontiguousarray(groups)
        grand = _rows(X.reshape(X.shape[:-2] + (-1,)))[1]
        m, sxx, sxy, syy = scatter(X)
        stats = [(m[..., j], sxx[..., j], sxy[..., j], syy[..., j])
                 for j in range(X.shape[-2])]
    else:
        grand = _rows(np.concatenate(groups, axis=-1))[1]
        stats = [scatter(g) for g in groups]
    b00 = b01 = b11 = wa = wb = wc = 0.0
    for n, (m, sxx, sxy, syy) in zip(_sizes(groups), stats):
        d0, d1 = m.real - grand.real, m.imag - grand.imag
        b00, b01, b11 = (b00 + n * (d0 * d0), b01 + n * (d0 * d1),
                         b11 + n * (d1 * d1))
        wa, wb, wc = wa + sxx, wb + sxy, wc + syy
    return b00, b01, b11, wa, wb, wc


def anova2circ_independent(groups):
    """One-way independent ANOVA^2_circ over k groups, the stacked (..., k, n)
    array or a list of k arrays, each (..., n_g): the traces of MANOVA's
    between- and within-group scatter. The statistic is F, df
    (2(k-1), 2(N-k)), zero and ``bad`` as in f_ratio."""
    b00, _, b11, wa, _, wc = _between_within(groups)
    ss_model, ss_resid = b00 + b11, wa + wc
    sizes = _sizes(groups)
    k = len(sizes)
    df_m, df_r = 2 * (k - 1), 2 * (sum(sizes) - k)
    f, bad = f_ratio(ss_model, df_m, ss_resid, df_r, ss_model + ss_resid)
    return f, f, (df_m, df_r), bad


def anova2circ_repeated(X: np.ndarray):
    """Repeated-measures ANOVA^2_circ over the (..., k, n) matrix of k
    conditions by n units: the residual is the condition-by-unit
    interaction, the scatter of each condition once the unit means are
    removed. The statistic is F, df (2(k-1), 2(n-1)(k-1)), zero and ``bad``
    as in f_ratio."""
    k, n = X.shape[-2:]
    _, txx, _, tyy = scatter(X.reshape(X.shape[:-2] + (k * n,)))
    unit = _rows(X.swapaxes(-1, -2))[1]
    # unit offsets out first: condition means about the grand mean, residual
    cond, rxx, _, ryy = scatter(X - unit[..., None, :])
    _, mxx, _, myy = scatter(cond)
    df_m, df_r = 2 * (k - 1), 2 * (n - 1) * (k - 1)
    f, bad = f_ratio(n * (mxx + myy), df_m, (rxx + ryy).sum(axis=-1), df_r,
                     txx + tyy)
    return f, f, (df_m, df_r), bad


def manova_oneway(groups):
    """One-way MANOVA over k groups, the stacked (..., k, n) array or a list
    of k arrays, each (..., n_g): ``pillai`` of the between- and
    within-group scatter matrices of the (re, im) responses."""
    sizes = _sizes(groups)
    return pillai(*_between_within(groups), len(sizes), sum(sizes))


def spectrum(X: np.ndarray):
    """(mean, (a, b, c), (lambda_max, lambda_min), condition index,
    degenerate) of the covariance over the last axis; the condition index
    sqrt(lambda_max / lambda_min) is inf where lambda_min is zero."""
    m, a, b, c = covariance(X)
    lmax, lmin = eig2(a, b, c)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0: a zero covariance
        ci = np.sqrt(np.where(lmin > 0.0, lmax / lmin, np.inf))
    return m, (a, b, c), (lmax, lmin), ci, degenerate(a, b, c)


def condition_index(X: np.ndarray):
    """sqrt(lambda_max / lambda_min) of the covariance over the last axis, and
    ``bad`` (a degenerate covariance); see ``spectrum``."""
    return spectrum(X)[3:]

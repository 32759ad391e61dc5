"""Closed-form selected-SNR curves and the incomplete-gamma routines behind them."""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

_MAX_ITER = 600
_ERLANG_A_MAX = 170       # 1/j! stays a normal double for j <= 170
_ERLANG_X_MAX = 700.0     # e^-x stays normal and the Erlang sum below e^x stays finite
_HALLEY_MAX_ITER = 40
_HALLEY_RTOL = 1e-7       # a step this small leaves an error of order its cube
_INV_BLOCK = 8192         # cells per Halley iteration: bounds its temporaries' memory
# starting values of the inverse: nodes uniform in the log-odds t = log(p / (1 - p)) on
# |t| <= 30, that is p or 1 - p down to 9.4e-14
_T_MAX = 30.0
_T_PER_UNIT = 16          # nodes per unit of t
_T_NODES = np.arange(-_T_MAX * _T_PER_UNIT, _T_MAX * _T_PER_UNIT + 1) / _T_PER_UNIT


class GammaNotConverged(ArithmeticError):
    """The incomplete gamma's series or continued fraction did not converge."""


def _not_converged(method: str, a: float, n: int, size: int) -> GammaNotConverged:
    return GammaNotConverged(f"regularized_gamma_p: {method} for a={a!r} did not converge "
                             f"in {_MAX_ITER} iterations at {n} of {size} points")


def _erlang_sum(m: int, x: np.ndarray) -> np.ndarray:
    # e^-x sum_{j=1}^{m-1} x^j/j! for m >= 2, the sum by Horner in x
    s = np.full_like(x, 1.0 / math.factorial(m - 1))
    for j in range(m - 2, 0, -1):
        s *= x
        s += 1.0 / math.factorial(j)
    s *= x
    s *= np.exp(-x)
    return s


def _erlang_p(m: int, x: np.ndarray) -> np.ndarray:
    # P(m,x) = -expm1(-x) - e^-x sum_{j=1}^{m-1} x^j/j!
    p = -np.expm1(-x)
    if m == 1:
        return p
    p -= _erlang_sum(m, x)
    return p


def _series_p(a: float, x: np.ndarray) -> np.ndarray:
    # P(a,x) = x^a e^-x / Gamma(a+1) * sum_{n>=0} x^n / ((a+1)...(a+n)),  x < a+1
    total = np.ones_like(x)
    term = np.ones_like(x)
    active = np.arange(x.size)
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term[active] *= x[active] / ap
        total[active] += term[active]
        live = term[active] > 1e-17 * total[active]
        if not live.any():
            break
        active = active[live]
    else:
        raise _not_converged("series", a, active.size, x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        logpre = a * np.log(x) - x - math.lgamma(a + 1.0)
    out = total * np.exp(logpre)
    out[x == 0.0] = 0.0
    return out


def _contfrac_q(a: float, x: np.ndarray) -> np.ndarray:
    # Q(a,x) via modified Lentz continued fraction, x >= a+1
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = 1.0 / np.where(b == 0.0, tiny, b)
    h = d.copy()
    active = np.arange(x.size)
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b[active] += 2.0
        da = an * d[active] + b[active]
        da[da == 0.0] = tiny
        ca = b[active] + an / c[active]
        ca[ca == 0.0] = tiny
        da = 1.0 / da
        d[active] = da
        c[active] = ca
        delta = da * ca
        h[active] *= delta
        live = np.abs(delta - 1.0) >= 1e-16
        if not live.any():
            break
        active = active[live]
    else:
        raise _not_converged("continued fraction", a, active.size, x.size)
    return np.exp(a * np.log(x) - x - math.lgamma(a)) * h


def _gamma_p_one_shape(a: float, x: np.ndarray) -> np.ndarray:
    if not math.isfinite(a):
        raise ValueError(f"shape parameter a must be positive and finite, got {a!r}")
    if a.is_integer() and a <= _ERLANG_A_MAX:
        # at these shapes P(a, x) rounds to 1 from x = 700 on, where e^-x is still normal
        p = _erlang_p(int(a), np.minimum(x, _ERLANG_X_MAX))
        return np.clip(p, 0.0, 1.0, out=p)
    out = np.ones_like(x)                  # P(a, inf) = 1
    small = x < a + 1.0
    if small.any():
        out[small] = _series_p(a, x[small])
    tail = ~small & (x < np.inf)
    if tail.any():
        out[tail] = 1.0 - _contfrac_q(a, x[tail])
    return np.clip(out, 0.0, 1.0)


def regularized_gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x), elementwise over broadcast a and x.

    Integer shapes up to 170 use the closed-form Erlang sum
    P(m, x) = 1 - e^-x sum_{j<m} x^j / j!.  Other shapes use the series for
    x < a+1 and the continued fraction otherwise; either raises
    GammaNotConverged (an ArithmeticError) when a point has not converged
    after 600 iterations.
    Absolute accuracy is better than 1e-13 over the tested domain.  At
    integer shapes a small P is the difference of two terms near 1 - e^-x,
    so its relative accuracy falls as P shrinks (0.3 % at P(9, 0.1) = 2.5e-15).
    A shape that is not positive and finite, or an x that is negative or NaN,
    raises ValueError; P(a, inf) = 1.  Scalar a and x give a Python float.
    """
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if not np.all(a_arr > 0.0):           # NaN too
        raise ValueError("shape parameter a must be positive and finite")
    if not np.all(x_arr >= 0.0):
        raise ValueError("x must be nonnegative, not NaN")
    shape = np.broadcast_shapes(a_arr.shape, x_arr.shape)
    x_b = np.broadcast_to(x_arr, shape)
    if a_arr.size == 1:
        out = _gamma_p_one_shape(float(a_arr.flat[0]), x_b.ravel()).reshape(shape)
    else:
        if shape[len(shape) - a_arr.ndim:] != a_arr.shape:
            a_arr = np.broadcast_to(a_arr, shape)
        # one row of x per element of a (a spans the trailing axes); group the rows by shape
        a_flat = a_arr.ravel()
        x_rows = x_b.reshape(-1, a_flat.size).T
        out = np.empty(x_rows.shape)
        for val in np.unique(a_flat):
            rows = np.flatnonzero(a_flat == val)
            out[rows] = _gamma_p_one_shape(float(val), x_rows[rows].ravel()).reshape(rows.size, -1)
        out = out.T.reshape(shape)
    return float(out) if out.ndim == 0 else out


def _erlang_tail(m: np.ndarray, x: np.ndarray, lgam: np.ndarray) -> np.ndarray:
    # P(m,x) = x^m e^-x/m! sum_{k>=0} x^k m!/(m+k)!, positive terms, by Horner; for the
    # x < m where the Erlang sum cancels, its terms shrink at least as fast as (x/(m+1))^k
    r = x / (m + 1.0)
    with np.errstate(divide="ignore"):
        terms = np.ceil(np.log(1e-17 * (1.0 - r)) / np.log(r))
    k = np.arange(1.0, terms.max(initial=0.0) + 1.0)[:, None]
    ratio = x / (m + k)
    ratio[k > terms] = 0.0           # each cell's sum starts at its own last term
    s = np.ones_like(x)
    for row in ratio[::-1]:
        s *= row
        s += 1.0
    with np.errstate(divide="ignore"):
        return s * np.exp(m * np.log(x) - x - lgam - np.log(m))


def _tail_residual(a, lgam, erlang, x, p, q) -> np.ndarray:
    """P(a, x) - p per cell, computed in the tail that is small, with q = 1 - p;
    `erlang` marks the cells of integer shape up to 170.

    At integer shapes the Erlang sums give q - Q for p > 1/2 and P - p
    otherwise, with the positive tail series where the Erlang P cancels.
    Other shapes give P - p from the series below a+1 and q - Q from the
    continued fraction above.  Either way the residual keeps its tail's
    relative accuracy.
    """
    r = np.empty_like(x)
    if erlang.any():
        cells = slice(None) if erlang.all() else np.flatnonzero(erlang)
        m, xe, pe, qe = a[cells], x[cells], p[cells], q[cells]
        # Q(a, x) stays below 1e-128 from x = 700 on, below any q = 1 - p > 0
        xs = np.minimum(xe, _ERLANG_X_MAX)
        # the cells come in ascending order of shape, so each shape is one run of them
        s = np.empty_like(xs)
        start = 0
        vals, counts = _shape_runs(m)
        for val, n in zip(vals.tolist(), counts.tolist()):
            s[start:start + n] = _erlang_sum(int(val), xs[start:start + n])
            start += n
        one_minus_e = -np.expm1(-xs)
        re = np.where(pe > 0.5, qe - (np.exp(-xs) + s), one_minus_e - s - pe)
        # P = (1 - e^-x) - s loses its digits where it is far below 1 - e^-x
        cancels = np.flatnonzero((pe <= 0.5) & (re + pe < 1e-3 * one_minus_e))
        if cancels.size:
            re[cancels] = _erlang_tail(m[cancels], xe[cancels], lgam[cells][cancels]) - pe[cancels]
        r[cells] = re
    for val in () if erlang.all() else np.unique(a[~erlang]):
        sel = a == val
        low = sel & (x < val + 1.0)
        high = sel & ~low
        r[low] = _series_p(float(val), x[low]) - p[low]
        r[high] = q[high] - _contfrac_q(float(val), x[high])
    return r


def _dm_start(a: np.ndarray, lgam: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # starting values of DiDonato & Morris (1986) as in Numerical Recipes' invgammp
    t = np.sqrt(-2.0 * np.log(np.minimum(p, q)))
    z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
    z = np.where(p < 0.5, z, -z)                       # the standard normal p-quantile
    wilson_hilferty = a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * np.sqrt(a))) ** 3
    # P(a, x) < x^a / Gamma(a+1) for every x, so this root lies below the solution
    x = np.maximum(wilson_hilferty, np.exp((np.log(p) + lgam + np.log(a)) / a))
    small = a < 1.0
    if small.any():
        t = 1.0 - a[small] * (0.253 + a[small] * 0.12)
        ps, qs = p[small], q[small]
        x[small] = np.where(ps < t, (ps / t) ** (1.0 / a[small]), 1.0 - np.log(qs / (1.0 - t)))
    return x


def _shape_runs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of a nonempty ascending array and the length of each one's run."""
    bounds = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1], [True])))
    return a[bounds[:-1]], np.diff(bounds)


@functools.lru_cache(maxsize=256)
def _start_row(a: float) -> np.ndarray | None:
    """(4, 960) array: on each interval between log-odds nodes, the coefficients
    c0..c3 in f (the position in the interval, 0 to 1) of the cubic Hermite
    interpolant of y = log P^-1(a, p) through its values and slopes dy/dt at
    the two nodes.

    The nodes are solved from the DiDonato & Morris start.  A row takes a few
    ms to build and 30 KB to keep.  None where the nodes cannot be solved
    (shapes near 0, whose lower tail underflows, or in the tens of thousands).
    """
    e = np.exp(-np.abs(_T_NODES))
    lo, hi = e / (1.0 + e), 1.0 / (1.0 + e)            # both tails to full relative accuracy
    p, q = np.where(_T_NODES < 0.0, lo, hi), np.where(_T_NODES < 0.0, hi, lo)
    shape, lgam = np.full(p.size, a), np.full(p.size, math.lgamma(a))
    with np.errstate(all="ignore"):
        try:
            x = _gamma_p_inv_cells(shape, lgam, _dm_start(shape, lgam, p, q), p, q)
        except GammaNotConverged:
            return None
        y = np.log(x)
        # dy/dt = p q / (x pdf(x)), scaled to the node spacing
        d = p * q / np.exp(a * y - x - lgam) / _T_PER_UNIT
        dy = np.diff(y)
        row = np.array([y[:-1], d[:-1], 3.0 * dy - 2.0 * d[:-1] - d[1:], d[:-1] + d[1:] - 2.0 * dy])
    row.flags.writeable = False
    return row


def _tabulated_start(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp of each cell's shape's interpolant at its log-odds t, |t| <= 30;
    the cells in ascending order of shape."""
    vals, counts = _shape_runs(a)
    rows = [_start_row(v) for v in vals.tolist()]
    # a shape without a row gives NaN starts, so its cells fall back to DiDonato & Morris
    c0, c1, c2, c3 = np.concatenate(
        [np.full((4, _T_NODES.size - 1), np.nan) if row is None else row for row in rows], axis=1)
    s = t * _T_PER_UNIT
    s += _T_MAX * _T_PER_UNIT
    k = np.minimum(s.astype(np.intp), _T_NODES.size - 2)
    f = s - k
    k += np.repeat(np.arange(0, c0.size, _T_NODES.size - 1), counts)
    y = c3.take(k)
    y *= f
    y += c2.take(k)
    y *= f
    y += c1.take(k)
    y *= f
    y += c0.take(k)
    with np.errstate(invalid="ignore", over="ignore"):
        return np.exp(y, out=y)


def _gamma_p_inv_block(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """P^-1(a, p) for shapes a != 1 and 0 < p < 1, one shape per cell, in
    ascending order of shape.

    The cells with log-odds |t| <= 30 start from their shape's tabulated row;
    the others, and any start that under- or overflows, start from the
    DiDonato & Morris values.
    """
    q = 1.0 - p
    vals, counts = _shape_runs(a)
    lgam = np.repeat([math.lgamma(v) for v in vals.tolist()], counts)
    t = np.log(p / q)
    inside = np.abs(t) <= _T_MAX
    x = np.full_like(p, np.nan)
    if inside.all():
        x = _tabulated_start(a, t)
    elif inside.any():
        x[inside] = _tabulated_start(a[inside], t[inside])
    dm = ~((x > 0.0) & (x < np.inf))
    if dm.any():
        x[dm] = _dm_start(a[dm], lgam[dm], p[dm], q[dm])
    return _gamma_p_inv_cells(a, lgam, x, p, q)


def _gamma_p_inv_cells(a, lgam, x, p, q) -> np.ndarray:
    """P^-1(a, p) by Halley steps from x, with lgam = log Gamma(a) and q = 1 - p;
    one shape per cell, in ascending order of shape."""
    out = np.empty_like(p)
    cells = np.arange(p.size)
    a1 = a - 1.0
    erlang = (a <= _ERLANG_A_MAX) & (a == np.floor(a))
    for _ in range(_HALLEY_MAX_ITER):
        err = _tail_residual(a, lgam, erlang, x, p, q)
        with np.errstate(divide="ignore"):
            u = err / np.exp(a1 * np.log(x) - x - lgam)       # Newton step err / pdf
        step = u / (1.0 - 0.5 * np.minimum(1.0, u * (a1 / x - 1.0)))
        x = x - step
        np.copyto(x, 0.5 * (x + step), where=x <= 0.0)      # halve the last x instead
        done = np.abs(step) <= _HALLEY_RTOL * x
        if done.all():
            out[cells] = x
            return out
        if done.any():
            out[cells[done]] = x[done]
            live = ~done
            cells, a, a1, lgam, erlang = cells[live], a[live], a1[live], lgam[live], erlang[live]
            x, p, q = x[live], p[live], q[live]
    raise GammaNotConverged(f"regularized_gamma_p_inv: Halley iteration did not converge in "
                            f"{_HALLEY_MAX_ITER} steps at {cells.size} of {out.size} points "
                            f"(shapes {np.unique(a).tolist()})")


def regularized_gamma_p_inv(a, p):
    """Inverse of P(a, x) in x: the x >= 0 with P(a, x) = p, elementwise over
    broadcast a and p in [0, 1].

    At a = 1 it is the closed form -log(1 - p).  Other shapes take Halley
    steps on P, evaluated in the tail (P or 1 - P) that is small, so the
    result keeps its relative accuracy in both tails: within 1e-11 of scipy's
    gammaincinv for p and 1 - p down to 1e-12.  A point whose log-odds
    t = log(p / (1 - p)) lies in [-30, 30] starts from its shape's table: a
    cubic Hermite interpolant of log x in t over 961 nodes, built on the
    shape's first use and good to a few parts in 1e9, so one step settles
    it.  Other points, and the shapes whose table cannot be built, start
    from the DiDonato & Morris (1986) values.  The result depends on a and p
    alone.  A point whose steps have not settled after 40 raises
    GammaNotConverged, as do the series and continued fraction of P.
    P^-1(a, 0) = 0 and P^-1(a, 1) = inf.  Scalar a and p give a Python float.
    """
    a_arr = np.asarray(a, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    if not np.all((a_arr > 0.0) & (a_arr < np.inf)):
        raise ValueError("shape parameter a must be positive and finite")
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):
        raise ValueError("p must lie in [0, 1]")
    shape = np.broadcast_shapes(a_arr.shape, p_arr.shape)
    p_flat = np.broadcast_to(p_arr, shape).ravel()
    if a_arr.size and a_arr.min() == a_arr.max() == 1.0:
        with np.errstate(divide="ignore"):        # P^-1(1, 1) = -log(0) = inf
            out = -np.log1p(-p_flat)
    else:
        a_flat = np.broadcast_to(a_arr, shape).ravel()
        out = np.where(p_flat == 1.0, np.inf, 0.0)
        inner = (p_flat > 0.0) & (p_flat < 1.0)
        unit = inner & (a_flat == 1.0)
        out[unit] = -np.log1p(-p_flat[unit])
        cells = np.flatnonzero(inner & ~unit)
        # in order of shape, each shape's cells of a block are one run, summed by one Horner
        # loop; a scalar shape needs no sort
        if a_arr.size > 1:
            cells = cells[np.argsort(a_flat[cells], kind="stable")]
        for start in range(0, cells.size, _INV_BLOCK):
            block = cells[start:start + _INV_BLOCK]
            out[block] = _gamma_p_inv_block(a_flat[block], p_flat[block])
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class AnalyticCurve:
    """A closed-form CDF / probability curve tabulated on an ascending SNR grid.

    `exact`, where given, is the CDF itself: evaluate() then computes the curve
    at s instead of interpolating the table.
    """

    grid: np.ndarray
    values: np.ndarray
    provenance: dict = field(default_factory=dict)
    exact: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid/value length mismatch")

    def evaluate(self, s) -> np.ndarray:
        if self.exact is not None:
            return np.clip(self.exact(np.asarray(s, dtype=float)), 0.0, 1.0)
        return np.interp(s, self.grid, self.values, left=0.0, right=1.0)


def _quantile(cdf, p: float) -> float:
    """Invert a monotone CDF callable by bracketed geometric bisection.

    The upper bracket doubles from 1 until the CDF reaches p; a CDF that stays
    below p up to the largest double raises ValueError.  At most 200 steps; it
    stops at the first step that leaves the bracket unchanged, since every
    later step would repeat that one.
    """
    lo, hi = 1e-30, 1.0
    while cdf(hi) < p:
        hi *= 2.0
        if math.isinf(hi):
            raise ValueError(f"the CDF stays below {p!r} at every finite SNR, so its "
                             f"{p!r} quantile has no upper bracket")
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if cdf(mid) < p:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return hi


def make_log_grid(cdf, n: int = 2048) -> np.ndarray:
    """Logarithmic SNR grid of n points spanning the 1e-4 and 1 - 1e-4 quantiles of a CDF."""
    return np.geomspace(_quantile(cdf, 1e-4), _quantile(cdf, 1.0 - 1e-4), n)


def _cdf_guard(values: np.ndarray) -> np.ndarray:
    # roundoff guard: clamp into [0,1] and restore monotonicity on the grid
    return np.maximum.accumulate(np.clip(values, 0.0, 1.0))


def _selected_curve(base, of_F: Callable, provenance: dict) -> AnalyticCurve:
    """of_F(F) tabulated on the log grid of the base CDF F, a callable."""
    grid = make_log_grid(base)
    return AnalyticCurve(grid, _cdf_guard(of_F(np.asarray(base(grid)))), provenance)


def bcs_selected_cdf(base, K: int) -> AnalyticCurve:
    """Selected-SNR CDF under single-user CDF competition: F^K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return _selected_curve(base, lambda F: F ** K, {"kind": "bcs-selected", "K": K})


def cfs_selected_cdfs(base_c, base_d, K1: int, K2: int) -> tuple[AnalyticCurve, AnalyticCurve]:
    """Selected-SNR CDFs under the cellular-threshold policy.

    Cellular: max(0, (K/K1) F_c^K1 - 2 K2/K1); D2D users see their base CDF.
    """
    if K1 < 1:
        raise ValueError("K1 must be >= 1")
    K = K1 + 2 * K2
    cell = _selected_curve(base_c, lambda F: (K / K1) * F ** K1 - 2.0 * K2 / K1,
                           {"kind": "cfs-selected-cellular", "K1": K1, "K2": K2})
    d2d = _selected_curve(base_d, lambda F: F, {"kind": "cfs-selected-d2d"})
    return cell, d2d


def dfs_selected_cdfs(base_c, base_d, K: int) -> tuple[AnalyticCurve | None, AnalyticCurve]:
    """Selected-SNR CDFs with pairs as double-weight contenders: F_c^K (None without
    a base_c, i.e. no cellular users) and F_d^(K/2)."""
    if K < 2:
        raise ValueError("K must be >= 2")
    cell = None if base_c is None else _selected_curve(
        base_c, lambda F: F ** K, {"kind": "dfs-selected-cellular", "K": K})
    d2d = _selected_curve(base_d, lambda F: F ** (K / 2.0), {"kind": "dfs-selected-d2d", "K": K})
    return cell, d2d


def gfs_selected_cdf(base, m_i: int, mu_i: float) -> AnalyticCurve:
    """Selected-SNR CDF for a member of a size-m_i sharing group with selection factor mu_i."""
    if m_i < 1:
        raise ValueError("m_i must be >= 1")
    if not (mu_i > 1.0 or (mu_i == 1.0 and m_i == 1)):
        raise ValueError("mu_i must exceed 1, or equal 1 for a singleton group")
    provenance = {"kind": "group-selected", "m_i": m_i, "mu_i": mu_i}
    if m_i == 1:
        # a = 0 and b = 1: F^mu_i, and the base CDF for a lone group granted every slot
        return _selected_curve(base, lambda F: F ** mu_i, provenance)
    a = (mu_i * (m_i - 1)) / (m_i * (mu_i - 1))
    b = (mu_i - m_i) / (m_i * (mu_i - 1))
    return _selected_curve(base, lambda F: a * F + b * F ** mu_i, provenance)


# ---------------------------------------------------------------------------
# unconditional curves (spatial distribution integrated out, m = 1 fading)

def _distance_average(A: float, eta: float, k: float, lo: float, hi: float, density):
    """s -> E_d[(1 - exp(-A s d^eta))^k] for d with the given density on [lo, hi].

    Composite Gauss-Legendre in ln d: 16 equal panels of 32 nodes.  Vectorized
    over s; a scalar s gives a scalar.
    """
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(math.log(lo), math.log(hi), 17)
    half = 0.5 * np.diff(edges)[:, None]
    d = np.exp(edges[:-1, None] + half * (x + 1.0)).ravel()
    weight = (half * w).ravel() * d * density(d)       # dd = d dln(d)
    exponent = -A * d ** eta

    def cdf(s):
        f = np.multiply.outer(s, exponent)     # updated in place: peak memory is this one array
        np.expm1(f, out=f)
        np.negative(f, out=f)
        f **= k
        f *= weight
        return f.sum(axis=-1)

    return cdf


def dfs_unconditional_cdfs(config, K: int, n_grid: int = 2048) -> tuple[AnalyticCurve, AnalyticCurve]:
    """Unconditional downlink selected-SNR curves for cellular users and pairs.

    E_d[F(s|d)^k] by fixed quadrature over the distance density: 2d/R^2 on
    [1e-8 R, R] with k = K for cellular users (the mass left out is 1e-16),
    uniform on [D_min, D_max] with k = K/2 for pairs.  Only valid for unit
    Nakagami shape (exponential fading power).
    """
    shapes = config.shapes_per_contender()
    if np.any(shapes != 1.0):
        raise ValueError("unconditional curves require fading_shape_m = 1")
    A_c = config.noise_power_mw / (config.pathloss_const_cellular * config.tx_power_dl_mw)
    A_d = config.noise_power_mw / (config.pathloss_const_d2d * config.tx_power_d2d_mw)
    R, d_min, d_max = config.cell_radius_m, config.d2d_min_m, config.d2d_max_m
    f_cell = _distance_average(A_c, config.pathloss_exp_cellular, K, 1e-8 * R, R,
                               lambda d: 2.0 * d / R ** 2)
    f_d2d = _distance_average(A_d, config.pathloss_exp_d2d, K / 2.0, d_min, d_max,
                              lambda d: 1.0 / (d_max - d_min))
    grid_c = make_log_grid(f_cell, n_grid)
    grid_d = make_log_grid(f_d2d, n_grid)
    cell_curve = AnalyticCurve(grid_c, _cdf_guard(f_cell(grid_c)),
                               {"kind": "dfs-unconditional-cellular", "K": K, "A_c": A_c}, f_cell)
    d2d_curve = AnalyticCurve(grid_d, _cdf_guard(f_d2d(grid_d)),
                              {"kind": "dfs-unconditional-d2d", "K": K, "A_d": A_d}, f_d2d)
    return cell_curve, d2d_curve


# ---------------------------------------------------------------------------
# per-user performance-index references

def cfs_threshold(K1: int, K2: int) -> float:
    K = K1 + 2 * K2
    if K1 < 1:
        raise ValueError("K1 must be >= 1")
    return ((K - K1) / K) ** (1.0 / K1)


def upi_reference(policy: str, *, K: int | None = None, K1: int | None = None,
                  K2: int | None = None):
    """Closed-form per-user performance-index values, where one exists.

    bcs -> 2/(K+1) for everyone; cfs -> cellular closed form, D2D undefined
    (None).  The group policies' value is `weights.upi_closed_form`.
    """
    if policy == "bcs":
        return np.full(K, 2.0 / (K + 1))
    if policy == "cfs":
        u_th = cfs_threshold(K1, K2)
        cell = 2.0 * (1.0 - u_th ** (K1 + 1)) / (K1 + 1)
        return {"cellular": cell, "d2d": None}
    raise ValueError(f"no closed-form reference for policy {policy!r}")

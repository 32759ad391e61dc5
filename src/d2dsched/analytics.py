"""Closed-form selected-SNR curves and the incomplete-gamma routines behind them.

Each policy's selected-SNR law is a map of a contender's base CDF F, written
once: `selected_maps` gives every contender's map under a policy, and
`bcs_selected_cdf`, `cfs_selected_cdfs`, `dfs_selected_cdfs` and
`gfs_selected_cdf` tabulate the same maps for the bases they are given.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

_MAX_ITER = 600
# the largest Nakagami shape the simulator accepts: within it P and P^-1 converge and
# match scipy.  Near x = a the series needs about 8.6 sqrt(a) terms, so its 600 reach
# a = 4980 (4990 raises); the bound keeps a fifth of that in hand
MAX_SHAPE = 4000.0
_ERLANG_A_MAX = 170       # 1/j! stays a normal double for j <= 170
_ERLANG_X_MAX = 700.0     # e^-x stays normal and the Erlang sum below e^x stays finite
_HALLEY_MAX_ITER = 40
_HALLEY_RTOL = 1e-7       # a step this small leaves an error of order its cube
_INV_BLOCK = 8192         # cells per table lookup or Halley iteration: bounds their temporaries
_ROW_RTOL = 1e-12         # a row's interpolant must be this close to P^-1 at every midpoint
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


def _series_p(a: float, x: np.ndarray) -> np.ndarray:
    # P(a,x) = x^a e^-x / Gamma(a+1) * sum_{n>=0} x^n / ((a+1)...(a+n)),  x < a+1
    total = np.empty_like(x)
    # the cells still summing, with their x, last term and partial sum
    cells, xc, term, sc = np.arange(x.size), x, np.ones_like(x), np.ones_like(x)
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= xc / ap
        sc += term
        live = term > 1e-17 * sc
        if not live.all():
            total[cells] = sc               # final for the cells that stop here
            cells, xc, term, sc = cells[live], xc[live], term[live], sc[live]
        if not cells.size:
            break
    else:
        raise _not_converged("series", a, cells.size, x.size)
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


def _is_erlang(a: float) -> bool:
    return a.is_integer() and a <= _ERLANG_A_MAX


def _gamma_tail(a: float, x: np.ndarray, upper: np.ndarray | None = None) -> np.ndarray:
    """P(a, x) per cell, or Q(a, x) = 1 - P(a, x) where `upper` is set, each to its own
    relative accuracy.

    At integer shapes up to 170 both come from the Erlang sum
    S = e^-x sum_{j=1}^{a-1} x^j / j! at x clipped to 700, where e^-x is still
    normal, P rounds to 1 and Q is below 1e-128: Q = e^-x + S, and
    P = (1 - e^-x) - S, from the series where that difference is below
    1e-3 (1 - e^-x), having lost three digits or more; `upper` may then be
    any mask.  Other shapes take P from the series and Q from the continued
    fraction, which need x < a+1 and x >= a+1: there `upper` must be x >= a+1.
    """
    if _is_erlang(a):
        xs = np.minimum(x, _ERLANG_X_MAX)
        one_minus_e = -np.expm1(-xs)
        if a == 1.0:
            return one_minus_e if upper is None else np.where(upper, np.exp(-xs), one_minus_e)
        s = _erlang_sum(int(a), xs)
        out = one_minus_e - s
        cancels = out < 1e-3 * one_minus_e
        if upper is not None:
            cancels &= ~upper
            out = np.where(upper, np.exp(-xs) + s, out)
        if cancels.any():
            out[cancels] = _series_p(a, x[cancels])
        return out
    out = np.empty_like(x)
    low = ~upper
    out[low] = _series_p(a, x[low])
    out[upper] = _contfrac_q(a, x[upper])
    return out


def _one_shape(a) -> float:
    if np.ndim(a):
        raise ValueError(f"shape parameter a must be one shape, got an array of shape "
                         f"{np.shape(a)}: regularized_gamma_p_inv_runs maps cells of several")
    return float(a)


def regularized_gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x) at one shape a, elementwise over x.

    Integer shapes up to 170 use the closed-form Erlang sum
    P(m, x) = 1 - e^-x sum_{j<m} x^j / j!, and the series where that
    difference has cancelled to below 1e-3 (1 - e^-x).  Other shapes use the
    series for x < a+1 and the continued fraction otherwise; either raises
    GammaNotConverged (an ArithmeticError) when a point has not converged
    after 600 iterations.
    Absolute accuracy is better than 1e-13 over the tested domain, and a
    small P keeps its relative accuracy at every shape: within 1e-12 of
    scipy's gammainc where the Erlang difference cancels, as at
    P(9, 0.03) = 5.3e-20.
    An array of shapes, a shape that is not positive and finite, or an x
    that is negative or NaN raises ValueError; P(a, inf) = 1.  A scalar x
    gives a Python float.
    """
    a = _one_shape(a)
    if not 0.0 < a < math.inf:              # NaN too
        raise ValueError(f"shape parameter a must be positive and finite, got {a!r}")
    x_arr = np.asarray(x, dtype=float)
    if not np.all(x_arr >= 0.0):
        raise ValueError("x must be nonnegative, not NaN")
    x_flat = x_arr.ravel()
    if _is_erlang(a):
        out = _gamma_tail(a, x_flat)            # P in both tails, x = inf too
    else:
        out = np.ones_like(x_flat)              # P(a, inf) = 1
        finite = x_flat < np.inf
        if finite.any():
            xf = x_flat[finite]
            upper = xf >= a + 1.0
            t = _gamma_tail(a, xf, upper)
            out[finite] = np.where(upper, 1.0 - t, t)
    out = np.clip(out, 0.0, 1.0, out=out).reshape(x_arr.shape)
    return float(out) if out.ndim == 0 else out


def _tail_residual(a: float, x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P(a, x) - p per cell, computed in the tail that is small, with q = 1 - p.

    At integer shapes up to 170, where `_gamma_tail` resolves both tails
    anywhere, it is q - Q for p > 1/2 and P - p otherwise; other shapes take
    P - p below a+1 and q - Q above.  Either way the residual keeps its
    tail's relative accuracy.
    """
    upper = p > 0.5 if _is_erlang(a) else x >= a + 1.0
    t = _gamma_tail(a, x, upper)
    return np.where(upper, q - t, t - p)


def _dm_start(a: float, low: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # starting values of DiDonato & Morris (1986) as in Numerical Recipes' invgammp;
    # `low` is the root of x^a / Gamma(a+1) = p
    if a < 1.0:
        t = 1.0 - a * (0.253 + a * 0.12)
        return np.where(p < t, (p / t) ** (1.0 / a), 1.0 - np.log(q / (1.0 - t)))
    t = np.sqrt(-2.0 * np.log(np.minimum(p, q)))
    z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
    z = np.where(p < 0.5, z, -z)                       # the standard normal p-quantile
    wilson_hilferty = a * (1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))) ** 3
    # P(a, x) < x^a / Gamma(a+1) for every x, so `low` lies below the solution
    return np.maximum(wilson_hilferty, low)


def _tails(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and q = 1 - p at log-odds t = log(p / q), each to full relative accuracy."""
    e = np.exp(-np.abs(t))
    lo, hi = e / (1.0 + e), 1.0 / (1.0 + e)
    return np.where(t < 0.0, lo, hi), np.where(t < 0.0, hi, lo)


@functools.lru_cache(maxsize=256)
def _start_row(a: float) -> np.ndarray | None:
    """(6, 960) array: on each interval between log-odds nodes, the coefficients
    c0..c5 in f (the position in the interval, 0 to 1) of the quintic Hermite
    interpolant of y = log P^-1(a, p) through its values and its first and
    second derivatives in t at the two nodes.

    The nodes are solved by Halley steps from the DiDonato & Morris start; the
    derivatives have closed forms.  A row is kept only if, at every interval
    midpoint, the residual of P there puts exp(y) within _ROW_RTOL of P^-1
    relative to it.  A row takes a few ms to build and 46 KB to keep.  None
    at shape 1, where the nodes cannot be solved (shapes near 0 such as 0.02,
    whose lower tail underflows, or above about 5000) and where a midpoint
    misses the bound (shapes of 0.31 and below).
    """
    if a == 1.0:            # the closed form -log(1 - p) answers shape 1
        return None
    p, q = _tails(_T_NODES)
    lgam = math.lgamma(a)
    h = 1.0 / _T_PER_UNIT
    with np.errstate(all="ignore"):
        try:
            x = _halley(a, p, q)
        except GammaNotConverged:
            return None
        if not np.all(x > 0.0):                 # nodes unsettled (NaN) or underflowed
            return None
        y = np.log(x)
        # with f the Gamma(a) pdf and dx/dt = p q / f: dy/dt = p q / (x f) and
        # d2y/dt2 = (dx/dt) ((q - p) x f - p q (a - x)) / (x^2 f) = dy/dt (q - p - dy/dt (a - x))
        slope = p * q / np.exp(a * y - x - lgam)
        curve = slope * (q - p - slope * (a - x))
        slope *= h                  # both scaled to the node spacing
        curve *= h * h
        dy = np.diff(y)
        d0, d1 = slope[:-1], slope[1:]      # at each interval's two ends
        s0, s1 = curve[:-1], curve[1:]
        row = np.array([y[:-1], d0, 0.5 * s0,
                        10.0 * dy - 6.0 * d0 - 4.0 * d1 - 1.5 * s0 + 0.5 * s1,
                        -15.0 * dy + 8.0 * d0 + 7.0 * d1 + 1.5 * s0 - s1,
                        6.0 * dy - 3.0 * d0 - 3.0 * d1 - 0.5 * s0 + 0.5 * s1])
        # the check: the true residual at every midpoint, as a relative error in x
        pm, qm = _tails(_T_NODES[:-1] + 0.5 * h)
        xm = row[5].copy()                      # the interpolant's Horner sum at f = 1/2
        for coef in row[4::-1]:
            xm *= 0.5
            xm += coef
        np.exp(xm, out=xm)
        try:
            r = _tail_residual(a, xm, pm, qm)
        except GammaNotConverged:
            return None
        miss = np.abs(r) / np.exp(a * np.log(xm) - xm - lgam)
    if not np.all(miss <= _ROW_RTOL):          # NaN too
        return None
    row.flags.writeable = False
    return row


@functools.lru_cache(maxsize=16)
def _run_rows(shapes: tuple[float, ...]) -> tuple[np.ndarray | None, np.ndarray]:
    """The (6, N) table of coefficient rows c0..c5 of a set of runs, given each
    run's shape, and each run's offset into it.

    A lone run reads its shape's row itself, at offset 0 (None without a
    row).  More runs read the rows of their distinct shapes side by side, with
    a NaN segment last for the shapes without a row (shape 1 among them).  So
    the runs of a contender set build one table, whichever contenders hold
    cells.
    """
    width = _T_NODES.size - 1
    rows = {v: _start_row(v) for v in shapes}
    if len(shapes) == 1:
        return rows[shapes[0]], np.zeros(1, dtype=np.intp)
    kept = [v for v, row in rows.items() if row is not None]
    at = {v: i * width for i, v in enumerate(kept)}
    table = np.concatenate([rows[v] for v in kept] + [np.full((6, width), np.nan)], axis=1)
    offsets = np.array([at.get(v, len(kept) * width) for v in shapes], dtype=np.intp)
    table.flags.writeable = offsets.flags.writeable = False
    return table, offsets


def _tabulated_start(shapes: tuple[float, ...], counts: np.ndarray, p: np.ndarray,
                     out: np.ndarray) -> None:
    """P^-1 of each cell of p, counts[i] cells of shape shapes[i] run after run,
    from its shape's row into `out`: exp of the interpolant at the log-odds
    t = log(p / (1 - p)), within _ROW_RTOL of the solution for |t| <= 30;
    NaN for |t| > 30 and for shapes without a row.  The caller ignores the
    divide (t = +-inf at p = 0 and 1) and overflow warnings.
    """
    t = 1.0 - p
    np.divide(p, t, out=t)
    np.log(t, out=t)
    lo, hi = t.min(), t.max()
    off = None
    if lo < -_T_MAX or hi > _T_MAX:
        off = np.abs(t) > _T_MAX
        if off.all():               # a block wholly off the table reads, and so builds, no row
            out.fill(np.nan)
            return
        np.clip(t, -_T_MAX, _T_MAX, out=t)
        hi = min(hi, _T_MAX)
    table, offset = _run_rows(shapes)
    if table is None:
        out.fill(np.nan)
        return
    f = t
    f *= _T_PER_UNIT
    f += _T_MAX * _T_PER_UNIT
    k = f.astype(np.intp)
    # f rises with t, so only a block whose largest t lands on the last node has a
    # cell past the last interval
    if hi * _T_PER_UNIT + _T_MAX * _T_PER_UNIT >= _T_NODES.size - 1:
        np.minimum(k, _T_NODES.size - 2, out=k)
    f -= k                                      # the position in the interval
    if len(shapes) > 1:
        k += offset.repeat(counts)
    coef = table.take(k, axis=1)                # c0..c5 of each cell's interval
    y = np.multiply(coef[5], f, out=out)
    for c in coef[4:0:-1]:
        y += c
        y *= f
    y += coef[0]
    if off is not None:
        y[off] = np.nan
    np.exp(y, out=y)


def _halley(a: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """P^-1(a, p) for 0 < p < 1 by Halley steps from the DiDonato & Morris start,
    with q = 1 - p; NaN where the steps have not settled after _HALLEY_MAX_ITER.

    A root below the smallest normal double is the root of x^a / Gamma(a+1) = p,
    which equals P(a, x) there to the last bit; it is 0 where it underflows.
    """
    a1, lgam = a - 1.0, math.lgamma(a)
    low = np.exp((np.log(p) + lgam + math.log(a)) / a)
    out = np.full_like(p, np.nan)
    tiny = low < np.finfo(float).tiny           # no Halley step: it would divide by x
    out[tiny] = low[tiny]
    cells = np.flatnonzero(~tiny)
    p, q = p[cells], q[cells]
    x = _dm_start(a, low[cells], p, q)
    for _ in range(_HALLEY_MAX_ITER):
        err = _tail_residual(a, x, p, q)
        with np.errstate(divide="ignore"):
            u = err / np.exp(a1 * np.log(x) - x - lgam)       # Newton step err / pdf
        step = u / (1.0 - 0.5 * np.minimum(1.0, u * (a1 / x - 1.0)))
        x = x - step
        np.copyto(x, 0.5 * (x + step), where=x <= 0.0)      # halve the last x instead
        done = np.abs(step) <= _HALLEY_RTOL * x
        out[cells[done]] = x[done]
        if done.all():
            break
        live = ~done
        cells, x, p, q = cells[live], x[live], p[live], q[live]
    return out


def _gamma_p_inv_runs(shapes: np.ndarray, counts: np.ndarray, p: np.ndarray,
                      x: np.ndarray) -> None:
    """x = P^-1 of the flat p in [0, 1]: counts[i] cells of shape shapes[i], run
    after run.

    Runs all of one shape are one run.  A run of shape 1 takes the closed
    form -log(1 - p).  Other cells are answered from the table of the runs'
    shapes in slices of _INV_BLOCK cells, with no residual evaluated.  The
    rest (off the table, of a shape without a row, or whose table value
    under- or overflows) give 0 at p = 0 and inf at p = 1, or take Halley
    steps from the DiDonato & Morris start, one shape at a time, in blocks of
    _INV_BLOCK cells.  Points whose steps have not settled, of every shape,
    raise one GammaNotConverged.
    """
    if shapes.size > 1 and (shapes == shapes[0]).all():
        shapes, counts = shapes[:1], np.array([p.size])
    ends = counts.cumsum()
    starts = ends - counts
    unit = shapes == 1.0
    # t = log(p / (1 - p)) is -inf at p = 0 and inf at p = 1; P^-1(1, 1) = -log(0) = inf
    with np.errstate(divide="ignore", over="ignore"):
        if not unit.all():
            key = tuple(shapes.tolist())
            for start in range(0, p.size, _INV_BLOCK):
                stop = min(start + _INV_BLOCK, p.size)
                in_block = counts if p.size <= _INV_BLOCK else \
                    np.clip(ends, start, stop) - np.clip(starts, start, stop)
                _tabulated_start(key, in_block, p[start:stop], x[start:stop])
        for j in np.flatnonzero(unit).tolist():
            cells = slice(starts[j], ends[j])
            np.negative(p[cells], out=x[cells])
            np.log1p(x[cells], out=x[cells])
            np.negative(x[cells], out=x[cells])
    if unit.all() or (x.min() > 0.0 and x.max() < np.inf):     # NaN scans
        return
    rest = np.flatnonzero(~(x > 0.0) | (x == np.inf))
    if rest.size:
        a, pr = shapes[np.searchsorted(ends, rest, side="right")], p[rest]
        # a shape-1 cell is here only at p = 0 or 1
        halley = (pr > 0.0) & (pr < 1.0)
        x[rest] = np.where(pr == 1.0, np.inf, 0.0)
        for val in np.unique(a[halley]).tolist():
            cells = rest[halley & (a == val)]
            for start in range(0, cells.size, _INV_BLOCK):
                block = cells[start:start + _INV_BLOCK]
                x[block] = _halley(val, p[block], 1.0 - p[block])
        unsettled = np.isnan(x[rest[halley]])
        if unsettled.any():
            raise GammaNotConverged(
                f"regularized_gamma_p_inv: Halley iteration did not converge in "
                f"{_HALLEY_MAX_ITER} steps at {np.count_nonzero(unsettled)} of {unsettled.size} "
                f"points (shapes {np.unique(a[halley][unsettled]).tolist()})")


def regularized_gamma_p_inv(a, p):
    """Inverse of P(a, x) in x at one shape a: the x >= 0 with P(a, x) = p,
    elementwise over p in [0, 1].

    At a = 1 it is the closed form -log(1 - p).  At other shapes a point
    whose log-odds t = log(p / (1 - p)) lies in [-30, 30] is answered from
    its shape's table: a quintic Hermite interpolant of log x in t through
    the values and first and second derivatives at 961 nodes, built on the
    shape's first use (a few ms, 46 KB) and kept only if it lies within
    1e-12 of the solution, relative to it, at every interval midpoint, by
    the true residual of P there.  Other points, and every point of a shape
    whose table misses that bound or cannot be built, take Halley steps on P
    from the DiDonato & Morris (1986) values, with the residual evaluated in
    the tail (P or 1 - P) that is small, so the result keeps its relative
    accuracy in both tails: within 1e-11 of scipy's gammaincinv for p and
    1 - p down to 1e-12.  The result depends on a and p alone.  Points whose
    steps have not settled after 40 raise one GammaNotConverged that counts
    them; the series and continued fraction of P raise it too.  A root below
    the smallest normal double is that of x^a / Gamma(a+1) = p, 0 where it
    underflows.  P^-1(a, 0) = 0 and P^-1(a, 1) = inf.  A scalar p gives a
    Python float.  It maps p as one run of `regularized_gamma_p_inv_runs`,
    which takes cells of several shapes; an array of shapes raises ValueError.
    """
    out = regularized_gamma_p_inv_runs([_one_shape(a)], [np.size(p)], p)
    return float(out) if out.ndim == 0 else out


def regularized_gamma_p_inv_runs(shapes, counts, p, out: np.ndarray | None = None) -> np.ndarray:
    """P^-1 of cells laid out run by run, as the simulator lays them out contender
    by contender: the cells of p in C order, the first counts[0] of shape
    shapes[0], the next counts[1] of shape shapes[1], and so on.  Each run
    gets the bits `regularized_gamma_p_inv` gives at its shape.

    The shapes are checked per run, not per cell.  The cells are read from
    one table per tuple of run shapes at each run's row offset, so a
    contender set builds one table however its cells fall, in slices whose
    float temporaries hold at most 8192 cells.  Shapes without a table take
    Halley steps one shape at a time, and points unsettled after them raise
    one GammaNotConverged that counts them over every shape.  The result
    goes into `out`, a C-contiguous float array shaped like p, when one is
    given.  Shapes must be positive and finite, counts nonnegative and
    summing to the number of cells, and p within [0, 1], else ValueError.
    """
    a = np.asarray(shapes, dtype=float)
    n = np.asarray(counts, dtype=np.intp)
    p_arr = np.asarray(p, dtype=float)
    if a.ndim != 1 or n.shape != a.shape:
        raise ValueError(f"shapes and counts must be 1-D and of equal length, "
                         f"got {a.shape} and {n.shape}")
    if not ((a > 0.0) & (a < np.inf)).all():
        raise ValueError("shape parameter a must be positive and finite")
    if (n < 0).any() or n.sum() != p_arr.size:
        raise ValueError(f"counts must be nonnegative and sum to the {p_arr.size} cells of p")
    if p_arr.size and not (p_arr.min() >= 0.0 and p_arr.max() <= 1.0):    # NaN too
        raise ValueError("p must lie in [0, 1]")
    if out is None:
        out = np.empty(p_arr.shape)
    elif out.shape != p_arr.shape or out.dtype != float or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float array shaped like p")
    if p_arr.size:
        _gamma_p_inv_runs(a, n, p_arr.reshape(-1), out.reshape(-1))
    return out


@dataclass(frozen=True)
class AnalyticCurve:
    """A closed-form CDF / probability curve tabulated on an ascending SNR grid."""

    grid: np.ndarray
    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.grid) != len(self.values):
            raise ValueError("grid/value length mismatch")


_S_LOW = 1e-30                     # the lower bracket of every quantile search
_S_MAX = sys.float_info.max
_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _bits(s: float) -> int:
    """The bit pattern of a double s >= 0 as an integer, which orders such doubles
    as their values do and counts the doubles between them."""
    return _INT64.unpack(_DOUBLE.pack(s))[0]


def _double(i: int) -> float:
    return _DOUBLE.unpack(_INT64.pack(i))[0]


def _quantile(cdf, p: float) -> float:
    """The smallest double s above 1e-30 with cdf(s) >= p, for a nondecreasing CDF
    callable; the same double a geometric bisection to the last bit returns.

    It serves only CDFs without a closed-form inverse, which are the
    unconditional curves' distance mixtures.  The upper bracket squares from 2
    (2, 4, 16, 256, ...) until the CDF reaches p; a CDF that stays below p up
    to the largest double raises ValueError, and so does one that reaches p
    already at the lower bracket 1e-30.  Inside the bracket a regula falsi of
    the Illinois kind (Dowell & Jarratt 1971) steps in ln s on g = ln(F / p),
    or on g = ln((1 - p) / (1 - F)) above the median, where F is resolved
    relative to 1 - F; a step within a sixteenth of the bracket of one end
    goes twice as far from that end, so the root is bracketed from both
    sides.  Where an end's F is 0 or 1, or the ends' g differ by two steps of
    F or less (near 1 - 1e-4, F moves in steps of 1.1e-16, so its crossing
    of p is a plateau thousands of doubles wide), it bisects the doubles'
    integer representation instead.  It stops when the bracket's ends are
    adjacent doubles; the decisions compare cdf(s) with p, as the bisection
    does, so g only places the points.
    """
    lower = p <= 0.5
    scale = p if lower else 1.0 - p
    # g of an F that equals p: half a step of F above it, which places the next
    # point just past a plateau at p
    on_p = 0.5 * math.ulp(p) / scale

    def g(F) -> float:
        if F == p:
            return on_p
        r = (F - p) / scale if lower else (p - F) / scale
        if r <= -1.0:
            return -math.inf if lower else math.inf
        return math.log1p(r) if lower else -math.log1p(r)

    lo, hi = _S_LOW, 2.0
    F = cdf(hi)
    while F < p:
        if hi == _S_MAX:
            raise ValueError(f"the CDF stays below {p!r} at every finite SNR, so its "
                             f"{p!r} quantile has no upper bracket")
        lo, g_lo = hi, g(F)
        hi = min(hi * hi, _S_MAX)
        F = cdf(hi)
    g_hi = g(F)
    if lo == _S_LOW:
        F = cdf(lo)
        if F >= p:
            raise ValueError(f"the CDF reaches {p!r} already at {lo!r}, so its "
                             f"{p!r} quantile has no lower bracket")
        g_lo = g(F)
    i_lo, i_hi = _bits(lo), _bits(hi)
    kept = 0                            # which end the last step kept: -1 lo, 1 hi
    while i_hi - i_lo > 1:
        w = i_hi - i_lo
        i = (i_lo + i_hi) // 2
        if -math.inf < g_lo < 0.0 < g_hi < math.inf and g_hi - g_lo > 4.0 * on_p:
            x_lo, x_hi = math.log(_double(i_lo)), math.log(_double(i_hi))
            x = x_hi - g_hi * (x_hi - x_lo) / (g_hi - g_lo)
            i = min(max(_bits(math.exp(min(x, x_hi))), i_lo), i_hi)
            if 16 * (i - i_lo) < w:
                i = i_lo + max(2 * (i - i_lo), 1)
            elif 16 * (i_hi - i) < w:
                i = i_hi - max(2 * (i_hi - i), 1)
        F = cdf(_double(i))
        if F < p:
            i_lo, g_lo = i, g(F)
            if kept == 1:
                g_hi *= 0.5             # hi kept twice in a row: the Illinois halving
            kept = 1
        else:
            i_hi, g_hi = i, g(F)
            if kept == -1:
                g_lo *= 0.5
            kept = -1
    return _double(i_hi)


def make_log_grid(quantile: Callable[[float], float], n: int = 2048) -> np.ndarray:
    """Logarithmic SNR grid of n points spanning the 1e-4 and 1 - 1e-4 quantiles of a
    CDF, given its quantile function p -> s.

    A conditional curve passes its base's closed-form `quantile`; the
    unconditional curves, whose CDFs have no closed-form inverse, pass the
    bracketed search `functools.partial(_quantile, cdf)`: an Illinois regula
    falsi in ln s that ends in a bisection of the doubles (10 to 30 CDF
    evaluations per end of the table2 curves, where a geometric bisection
    took 60 to 92).
    """
    return np.geomspace(quantile(1e-4), quantile(1.0 - 1e-4), n)


def _cdf_guard(values: np.ndarray) -> np.ndarray:
    # roundoff guard: clamp into [0,1] and restore monotonicity on the grid
    return np.maximum.accumulate(np.clip(values, 0.0, 1.0))


@dataclass(frozen=True)
class SelectedMap:
    """A contender's selected-SNR law, a map of its base CDF F, with its provenance."""

    of_F: Callable[[np.ndarray], np.ndarray]
    provenance: dict

    def curve(self, base) -> AnalyticCurve:
        """The law on the log grid of `base`, a CDF with a closed-form `quantile`
        (channel.GammaSnrCdf), so no search runs."""
        grid = make_log_grid(base.quantile)
        return AnalyticCurve(grid, _cdf_guard(self.of_F(np.asarray(base(grid)))), self.provenance)


def _class_maps(policy: str, K1: int, K2: int) -> tuple[SelectedMap, SelectedMap]:
    """The laws of a cellular user and of a pair under bcs, dfs, cfs or grr among
    K1 cellular users and K2 pairs; bcs sees only C = K1 + K2, dfs K = K1 + 2 K2."""
    C, K = K1 + K2, K1 + 2 * K2
    if policy == "bcs":
        law = SelectedMap(lambda F: F ** C, {"kind": "bcs-selected", "K": C})
        return law, law
    if policy == "dfs":
        return (SelectedMap(lambda F: F ** K, {"kind": "dfs-selected-cellular", "K": K}),
                SelectedMap(lambda F: F ** (K / 2.0), {"kind": "dfs-selected-d2d", "K": K}))
    if policy == "cfs":
        return (SelectedMap(lambda F: (K / K1) * F ** K1 - 2.0 * K2 / K1,
                            {"kind": "cfs-selected-cellular", "K1": K1, "K2": K2}),
                SelectedMap(lambda F: F, {"kind": "cfs-selected-d2d"}))
    if policy == "grr":
        law = SelectedMap(lambda F: F, {"kind": "grr-selected"})
        return law, law
    raise ValueError(f"unknown policy {policy!r}")


def _group_map(m_i: int, mu_i: float) -> SelectedMap:
    if m_i < 1:
        raise ValueError("m_i must be >= 1")
    if not (mu_i > 1.0 or (mu_i == 1.0 and m_i == 1)):
        raise ValueError("mu_i must exceed 1, or equal 1 for a singleton group")
    provenance = {"kind": "group-selected", "m_i": m_i, "mu_i": mu_i}
    if m_i == 1:
        # a = 0 and b = 1: F^mu_i, and the base CDF for a lone group granted every slot
        return SelectedMap(lambda F: F ** mu_i, provenance)
    a = (mu_i * (m_i - 1)) / (m_i * (mu_i - 1))
    b = (mu_i - m_i) / (m_i * (mu_i - 1))
    return SelectedMap(lambda F: a * F + b * F ** mu_i, provenance)


MAPPED_POLICIES = ("bcs", "cfs", "dfs", "gfs", "ecs", "grr")     # pfs has no closed form


def selected_maps(policy: str, cs, structure=None, weights=None) -> list[SelectedMap] | None:
    """Each contender's selected-SNR law under `policy`, a map of its base CDF F, in
    a contender set `cs` (simcore.ContenderSet) of K1 cellular users and K2 pairs,
    given a group policy's structure and weights.  bcs: F^C over C = K1 + K2;
    dfs: F^K for a cellular user and F^(K/2) for a pair, K = K1 + 2 K2; cfs:
    (K/K1) F^K1 - 2 K2/K1 for a cellular user and F for a pair; gfs and ecs:
    a F + b F^mu in a group of size m with selection factor mu, where
    a = mu (m-1) / (m (mu-1)) and b = (mu-m) / (m (mu-1)), and F^mu for a
    singleton; grr: F, a group being granted in its turn; pfs: None.
    """
    if policy == "pfs":
        return None
    if policy in ("gfs", "ecs"):
        group_of = structure.group_of()
        return [_group_map(structure.groups[g].size, float(weights.mu[g]))
                for g in map(group_of.get, range(cs.n_contenders))]
    K2 = int(np.count_nonzero(cs.is_pair))
    cell, pair = _class_maps(policy, cs.n_contenders - K2, K2)
    return [pair if is_pair else cell for is_pair in cs.is_pair.tolist()]


def bcs_selected_cdf(base, K: int) -> AnalyticCurve:
    """Selected-SNR CDF under single-user CDF competition: F^K."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return _class_maps("bcs", K, 0)[0].curve(base)


def cfs_selected_cdfs(base_c, base_d, K1: int, K2: int) -> tuple[AnalyticCurve, AnalyticCurve]:
    """Selected-SNR CDFs under the cellular-threshold policy.

    Cellular: max(0, (K/K1) F_c^K1 - 2 K2/K1); D2D users see their base CDF.
    """
    if K1 < 1:
        raise ValueError("K1 must be >= 1")
    cell, d2d = _class_maps("cfs", K1, K2)
    return cell.curve(base_c), d2d.curve(base_d)


def dfs_selected_cdfs(base_c, base_d, K: int) -> tuple[AnalyticCurve | None, AnalyticCurve]:
    """Selected-SNR CDFs with pairs as double-weight contenders: F_c^K (None without
    a base_c, i.e. no cellular users) and F_d^(K/2)."""
    if K < 2:
        raise ValueError("K must be >= 2")
    cell, d2d = _class_maps("dfs", K, 0)       # dfs sees K alone
    return None if base_c is None else cell.curve(base_c), d2d.curve(base_d)


def gfs_selected_cdf(base, m_i: int, mu_i: float) -> AnalyticCurve:
    """Selected-SNR CDF for a member of a size-m_i sharing group with selection factor mu_i."""
    return _group_map(m_i, mu_i).curve(base)


# ---------------------------------------------------------------------------
# unconditional curves (spatial distribution integrated out, m = 1 fading)

@functools.cache
def _gauss_legendre_32() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 32-point Gauss-Legendre rule on [-1, 1], built on
    first use and shared read-only."""
    x, w = np.polynomial.legendre.leggauss(32)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _zero_power_floor(k: float) -> float:
    """The base below which h ** k is exactly 0.0, for k >= 1: 2^(-1076 / k).

    Below it h^k lies under 2^-1076, half of 2^-1075, which is half the
    smallest subnormal and rounds to 0.0 like everything below it.  The factor
    2 covers a power that is not correctly rounded and the rounding of the
    floor itself.  At k = 1 the floor is 0.0.
    """
    return 0.5 ** (1076.0 / k)


def _distance_average(A: float, eta: float, k: float, lo: float, hi: float, density):
    """s -> E_d[(1 - exp(-A s d^eta))^k] for d with the given density on [lo, hi], k >= 1.

    Composite Gauss-Legendre in ln d: 16 equal panels of 32 nodes.  Vectorized
    over s; a scalar s gives a scalar.  A node whose base h = 1 - exp(-A s d^eta)
    lies below _zero_power_floor(k) counts 0 without taking the power, whose
    result would be exactly 0.0 there, so the sum is the same to the bit; an
    underflowing power costs 15 to 40 times a normal one.
    """
    x, w = _gauss_legendre_32()
    edges = np.linspace(math.log(lo), math.log(hi), 17)
    half = 0.5 * np.diff(edges)[:, None]
    d = np.exp(edges[:-1, None] + half * (x + 1.0)).ravel()
    weight = (half * w).ravel() * d * density(d)       # dd = d dln(d)
    exponent = -A * d ** eta
    floor = _zero_power_floor(k)

    def cdf(s):
        f = np.multiply.outer(s, exponent)     # updated in place: peak memory is this array and its masks
        np.expm1(f, out=f)
        np.negative(f, out=f)
        live = f >= floor
        np.power(f, k, out=f, where=live)
        np.copyto(f, 0.0, where=~live)
        f *= weight
        return f.sum(axis=-1)

    return cdf


def dfs_unconditional_refusal(config, K: int) -> str | None:
    """Why `dfs_unconditional_mixtures` has no curves for config at K, or None
    when it has them: K >= 2, a layout to average over (no `mean_snr`) and unit
    Nakagami shape for every contender."""
    if K < 2:
        return "K must be >= 2"
    if config.mean_snr is not None:
        return ("unconditional curves average over the layout; "
                "a config that sets mean_snr has none")
    if np.any(config.shapes_per_contender() != 1.0):
        return "unconditional curves require fading_shape_m = 1"
    return None


def dfs_unconditional_mixtures(config, K: int) -> tuple[Callable, Callable]:
    """The unconditional downlink selected-SNR CDFs of cellular users and pairs,
    K >= 2, as callables s -> F(s), vectorized over s.

    E_d[F(s|d)^k] by fixed quadrature over the distance density: 2d/R^2 on
    [1e-8 R, R] with k = K for cellular users (the mass left out is 1e-16),
    uniform on [D_min, D_max] with k = K/2 for pairs.  Only valid for unit
    Nakagami shape (exponential fading power) and a config with a layout: one
    that sets `mean_snr` has none to average over.
    """
    refusal = dfs_unconditional_refusal(config, K)
    if refusal is not None:
        raise ValueError(refusal)
    A_c = config.noise_power_mw / (config.pathloss_const_cellular * config.tx_power_dl_mw)
    A_d = config.noise_power_mw / (config.pathloss_const_d2d * config.tx_power_d2d_mw)
    R, d_min, d_max = config.cell_radius_m, config.d2d_min_m, config.d2d_max_m
    f_cell = _distance_average(A_c, config.pathloss_exp_cellular, K, 1e-8 * R, R,
                               lambda d: 2.0 * d / R ** 2)
    f_d2d = _distance_average(A_d, config.pathloss_exp_d2d, K / 2.0, d_min, d_max,
                              lambda d: 1.0 / (d_max - d_min))
    return f_cell, f_d2d


def dfs_unconditional_cdfs(config, K: int, n_grid: int = 2048
                           ) -> tuple[AnalyticCurve | None, AnalyticCurve | None]:
    """The cellular and pair curves of `dfs_unconditional_mixtures`, each
    tabulated on an n_grid-point log grid between the 1e-4 and 1 - 1e-4
    quantiles that `_quantile` searches its mixture for; None for a class the
    config has no users of."""
    def curve(cdf, kind):
        grid = make_log_grid(functools.partial(_quantile, cdf), n_grid)
        return AnalyticCurve(grid, _cdf_guard(cdf(grid)), {"kind": kind, "K": K})

    f_cell, f_d2d = dfs_unconditional_mixtures(config, K)
    return (curve(f_cell, "dfs-unconditional-cellular") if config.K1 else None,
            curve(f_d2d, "dfs-unconditional-d2d") if config.K2 else None)


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

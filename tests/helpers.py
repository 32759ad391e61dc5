"""Shared test utilities: geometry replay, KS statistics, a quadrature oracle, the
per-group-maximum group selection and the numpy proportional-fair loop."""

import math

import numpy as np
from scipy import integrate

from d2dsched import simcore
from d2dsched.model import sample_spatial


def first_realization_contenders(config):
    """Rebuild the contender set of realization 0 exactly as
    the experiment driver derives it, so tests can recover per-user base CDFs."""
    spatial = sample_spatial(config, simcore.realization_rng(config.rng_seed))
    return simcore.contenders_from_spatial(config, spatial), spatial


def ks_uniform(u):
    """Exact KS statistic of samples against the uniform distribution on [0, 1]."""
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(np.abs(u - hi)), np.max(np.abs(u - lo))))


def empirical_cdf_at(samples, grid):
    samples = np.sort(np.asarray(samples, dtype=float))
    return np.searchsorted(samples, grid, side="right") / samples.size


def unconditional_quad(config, K):
    """E_d[F(s|d)^k] by adaptive quadrature: k = K over the cellular density 2d/R^2
    on [0, R], k = K/2 over the uniform pair distance on [D_min, D_max]."""
    A_c = config.noise_power_mw / (config.pathloss_const_cellular * config.tx_power_dl_mw)
    A_d = config.noise_power_mw / (config.pathloss_const_d2d * config.tx_power_d2d_mw)
    R, eta_c, eta_d = config.cell_radius_m, config.pathloss_exp_cellular, config.pathloss_exp_d2d
    lo, hi = config.d2d_min_m, config.d2d_max_m

    def cell(s):
        f = lambda d: (-math.expm1(-A_c * s * d ** eta_c)) ** K * 2.0 * d / R ** 2
        return integrate.quad(f, 0.0, R, epsabs=1e-14, epsrel=1e-12, limit=400)[0]

    def d2d(s):
        f = lambda d: (-math.expm1(-A_d * s * d ** eta_d)) ** (K / 2.0) / (hi - lo)
        return integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)[0]

    return cell, d2d


def log_grid_200(cdf, n):
    """make_log_grid with every quantile run through all 200 geometric bisection
    steps: the oracle for analytics._quantile, which stops once the bracket stops
    moving."""
    def quantile(p):
        lo, hi = 1e-30, 1.0
        while cdf(hi) < p:
            hi *= 2.0
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return hi

    return np.geomspace(quantile(1e-4), quantile(1.0 - 1e-4), n)


def mws_select_reps(u, structure, weights):
    """Group selection from each group's best member, argmax Y_i^(1/w_i) over the
    column of per-group maxima: the oracle for policies.mws_select, which selects
    over contenders and maps the winner to its group."""
    u = np.atleast_2d(u)
    reps = np.column_stack([u[:, g.members].max(axis=1) for g in structure.groups])
    with np.errstate(divide="ignore"):
        return np.argmax(np.log(reps) / np.asarray(weights.w), axis=1)


def pfs_select_numpy(X, structure, state):
    """Proportional-fair group selection as one numpy step per slot: the oracle for
    policies.pfs_select, which must pick the same winners and leave the same averages."""
    X = np.atleast_2d(X)
    a = 1.0 / state.t_c
    members = [np.asarray(g.members) for g in structure.groups]
    winners = np.empty(X.shape[0], dtype=int)
    xbar = state.xbar
    for t in range(X.shape[0]):
        x = X[t]
        ratio = x if xbar is None else x / xbar
        gi = int(np.argmax([ratio[mem].max() for mem in members]))
        winners[t] = gi
        if xbar is None:
            xbar = x.copy()
        else:
            xbar *= (1.0 - a)
            sel = members[gi]
            xbar[sel] += a * x[sel]
    state.xbar = xbar
    return winners

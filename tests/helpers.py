"""Shared test utilities: geometry replay, KS statistics, a quadrature oracle, the
per-group-maximum group selection, the numpy proportional-fair loop, the
cell-by-cell grant accounting and a nested-loop Welsh-Powell coloring."""

import math

import numpy as np
from scipy import integrate

from d2dsched import policies, simcore
from d2dsched.analytics import regularized_gamma_p_inv
from d2dsched.cli import PRESETS
from d2dsched.grouping import Group, GroupStructure
from d2dsched.weights import ecs_weights, solve_group_weights
from d2dsched.model import SystemConfig


def first_realization_contenders(config):
    """Rebuild the contenders' mean SNRs of realization 0, and its layout, exactly as
    the experiment driver derives them, so tests can recover per-user base CDFs."""
    spatial, _ = simcore.layout(config, 0)
    return simcore.contenders_from_spatial(config, spatial), spatial


def table5_config(**settings):
    """The table-5 preset, four groups of fixed channels, with some settings changed."""
    return SystemConfig(**{**PRESETS["table5-gfs"]["desk"], **settings})


def lone_contenders(means, shapes=1.0, **settings):
    """A config of one single-user contender per given mean SNR and shape, and the
    contenders' means as its realizations carry them."""
    config = SystemConfig(K1=len(means), K2=0, mean_snr=tuple(means), fading_shape_m=shapes,
                          **settings)
    return config, simcore.contenders_from_spatial(config, None)


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


def distance_average_plain(A, eta, k, lo, hi, density):
    """analytics._distance_average with the plain kernel: the same 512 quadrature
    nodes, every node's (1 - exp(-A s d^eta)) ** k taken, weighted and summed.  The
    oracle for the kernel that skips the powers which underflow to 0.0, which must
    give the same bits."""
    x, w = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(math.log(lo), math.log(hi), 17)
    half = 0.5 * np.diff(edges)[:, None]
    d = np.exp(edges[:-1, None] + half * (x + 1.0)).ravel()
    weight = (half * w).ravel() * d * density(d)
    exponent = -A * d ** eta

    def cdf(s):
        f = -np.expm1(np.multiply.outer(s, exponent))
        f **= k
        f *= weight
        return f.sum(axis=-1)

    return cdf


def log_grid_200(cdf, n):
    """make_log_grid with every quantile run through all 200 geometric bisection
    steps from the bracket [1e-30, first power of two the CDF reaches p at]: the
    oracle for analytics._quantile, which must return the same doubles."""
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
    """Proportional-fair group selection of one realization, one numpy step per
    slot over its (n, C) rates: the oracle for each row of policies.pfs_select,
    which must pick the same winners and leave the same averages."""
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


def reference_accounting(config, means, rng, structure=None, chunk=None):
    """One realization of simcore.simulate_block with the plain accounting, for the
    policy, slot count, rate base and pfs window of `config` and the contenders'
    mean SNRs `means`; it numbers the pair members itself.  The granted cells
    are gathered as u[rows, cols] and each contender's mapped by one
    scalar-shape call of the inverse, pfs's every cell mapped by one call per
    column, its winners picked by pfs_select_numpy and its granted cells mapped
    again, and two 1-D sums per pair member.  The oracle for the flat gathers, the
    run-by-run inverse, pfs's lockstep selection over its one reused map buffer
    and the two-row sums of simcore, which must give the same bits.  `chunk` slots are
    drawn and summed at once, by default simcore.CHUNK_SLOTS; a block of R
    realizations steps pfs in simcore.CHUNK_SLOTS // R.  Each chunk draws the
    rows its policy reads contender-major, (rows, n), and reads them through
    their (n, rows) view: every contender's, cfs's K1 cellular users' or grr's
    none.  Then it draws one score per granted cell of the other rows, contender
    by contender in slot order, and advances the stream past the rest of a
    full (C, n) draw.
    Returns (user_grants, user_u_sum, user_rate_sum, group_grants, selected_snr)
    with selected_snr one concatenated array per contender."""
    policy, slots, K1, K2 = config.policy, config.slots_per_realization, config.K1, config.K2
    C, nU = K1 + K2, K1 + 2 * K2
    shapes = config.shapes_per_contender()
    members = [(k,) for k in range(K1)] + [(K1 + 2 * p, K1 + 2 * p + 1) for p in range(K2)]
    log_base = np.log(config.rate_log_base)
    if policy in simcore.GROUP_POLICIES:
        group_of = structure.group_of()
        winner_of = [group_of[j] for j in range(C)]
        n_winners = structure.n_groups
        if policy == "gfs":
            weights = solve_group_weights(structure)
        elif policy == "ecs":
            weights = ecs_weights(structure)
    else:
        winner_of, n_winners = list(range(C)), C
    grants = np.zeros(nU, dtype=np.int64)
    u_sum, rate_sum = np.zeros(nU), np.zeros(nU)
    group_grants = np.zeros(n_winners, dtype=np.int64)
    snrs = [[] for _ in range(C)]
    turn = [0] * C
    below, pf_state = 0, policies.PfState(t_c=config.pf_time_const)   # cfs: its pair slots
    read = {"cfs": K1, "grr": 0}.get(policy, C)
    done = 0
    while done < slots:
        n = min(chunk or simcore.CHUNK_SLOTS, slots - done)
        u = rng.random((read, n)).T
        if policy == "pfs":
            snr_all = np.column_stack([regularized_gamma_p_inv(m, u[:, j])
                                       for j, m in enumerate(shapes.tolist())])
            snr_all *= means / shapes
            win = pfs_select_numpy(np.log1p(snr_all) / log_base, structure, pf_state)
        elif policy == "bcs":
            win = policies.bcs_select(u, np.full(C, 1.0 / C))
        elif policy == "dfs":
            win = policies.dfs_select(u, K1, K2)
        elif policy == "cfs":
            win = policies.cfs_select(u, K1, K2, offset=below)
            below += int(np.count_nonzero(win >= K1))
        elif policy in ("gfs", "ecs"):
            win = policies.mws_select(u, structure, weights)
        else:
            win = policies.grr_select(n, structure.n_groups, offset=done)
        group_grants += np.bincount(win, minlength=n_winners)
        granted = [np.flatnonzero(win == w) for w in winner_of]
        sizes = [g.size for g in granted]
        cols = np.repeat(np.arange(C), sizes)
        u_g = np.concatenate([u[granted[j], j] if j < read else rng.random(sizes[j])
                              for j in range(C)])
        rng.bit_generator.advance((C - read) * n - sum(sizes[read:]))
        snr = np.concatenate([regularized_gamma_p_inv(m, cells) for m, cells in
                              zip(shapes.tolist(), np.split(u_g, np.cumsum(sizes)[:-1]))])
        snr *= (means / shapes)[cols]
        rates = np.log1p(snr) / log_base
        stop = 0
        for j, size in enumerate(sizes):
            start, stop = stop, stop + size
            snrs[j].append(snr[start:stop])
            k = len(members[j])
            for t, uid in enumerate(members[j]):
                take = slice(start + (t - turn[j]) % k, stop, k)
                grants[uid] += rates[take].size
                u_sum[uid] += u_g[take].sum()
                rate_sum[uid] += rates[take].sum()
            turn[j] = (turn[j] + size) % k
        done += n
    return grants, u_sum, rate_sum, group_grants, [np.concatenate(s) for s in snrs]


def welsh_powell_reference(adjacency):
    """Welsh-Powell by nested loops over the adjacency matrix: repeatedly take the
    uncolored vertex of highest degree (the lowest id among equals) and give it the
    smallest color no neighbor holds.  The oracle for grouping.greedy_coloring, which
    must return the same GroupStructure, groups in color order with members in
    ascending id."""
    adj = np.asarray(adjacency, dtype=bool).tolist()
    n = len(adj)
    degree = [sum(row) for row in adj]
    color = [None] * n
    for _ in range(n):
        v = None
        for u in range(n):
            if color[u] is None and (v is None or degree[u] > degree[v]):
                v = u
        c = 0
        while any(adj[v][u] and color[u] == c for u in range(n)):
            c += 1
        color[v] = c
    n_colors = max(color, default=-1) + 1
    return GroupStructure(tuple(Group(tuple(v for v in range(n) if color[v] == c), 0.5)
                                for c in range(n_colors)))

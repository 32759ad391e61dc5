"""Monte Carlo engine: spatial realizations x fading slots driving one policy.

Each realization is one `_Accounts` record, from its first chunk of slots to
`_reduce`, which folds the records into the experiment's report and draws no
random number: every random number of a run comes from its realization's stream.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from d2dsched import channel, policies
from d2dsched.analytics import regularized_gamma_p_inv_runs
from d2dsched.grouping import Group, GroupStructure, build_conflict_graph, fixed_grouping, \
    greedy_coloring, with_cellular_singletons
from d2dsched.model import ConfigError, SpatialRealization, SystemConfig, cellular_downlink, \
    d2d_direct, sample_spatial
from d2dsched.weights import PolicyWeights, ecs_weights, solve_group_weights

GROUP_POLICIES = ("gfs", "ecs", "pfs", "grr")
RESERVOIR_CAPACITY = 100_000    # selected-SNR samples kept per contender
CHUNK_SLOTS = 200_000           # slots drawn at once: bounds the (contenders, slots) arrays


def contenders_from_spatial(config: SystemConfig, spatial: SpatialRealization | None) -> np.ndarray:
    """Each contender's linear mean SNR, cellular users then pairs, (C,): from the
    sampled geometry, or the config's `mean_snr`, which gives K1 single-user
    contenders and needs no geometry.

    Each geometric mean is `channel.mean_snr` of the contender's link, built by
    `model.cellular_downlink` for a cellular user and `model.d2d_direct` for
    a pair.
    """
    if config.mean_snr is not None:
        return np.array(config.mean_snr)
    means = [channel.mean_snr(cellular_downlink(config, d), config)
             for d in spatial.cellular_distances.tolist()]
    means += [channel.mean_snr(d2d_direct(config, d), config)
              for d in spatial.pair_direct_distances.tolist()]
    return np.array(means, dtype=float)


def build_structure(config: SystemConfig, spatial: SpatialRealization | None) -> GroupStructure:
    """Mixed-system structure: cellular singletons plus D2D groups from the
    configured fixed sizes or greedy conflict-graph coloring (none without pairs).
    With `mean_snr` the fixed sizes group the K1 single-user contenders, with
    nu = 1 as for any one-user contender.  Only greedy coloring reads the layout;
    fixed groups are built once per config."""
    if config.group_sizes is not None or config.K2 == 0:
        return _fixed_structure(config.group_sizes, config.K1, config.K2,
                                config.mean_snr is not None)
    colored = greedy_coloring(build_conflict_graph(spatial, config.interference_radius_m))
    d2d = GroupStructure(tuple(
        Group(tuple(config.K1 + v for v in g.members), 0.5) for g in colored.groups))
    return with_cellular_singletons(d2d, config.K1)


@functools.lru_cache(maxsize=64)
def _fixed_structure(group_sizes: tuple[int, ...] | None, K1: int, K2: int,
                     given_means: bool) -> GroupStructure:
    """The structure `build_structure` gives without greedy coloring: fixed
    groups of the K1 users of a config that gives the means, else the
    cellular singletons and the fixed groups of the K2 pairs (none for K2 = 0)."""
    if given_means and group_sizes is not None:
        return fixed_grouping(group_sizes, K1, nu=1.0)
    d2d = GroupStructure(()) if K2 == 0 else \
        fixed_grouping(group_sizes, K2, nu=0.5, id_offset=K1)
    return with_cellular_singletons(d2d, K1)


def policy_weights(policy: str, structure: GroupStructure) -> PolicyWeights | None:
    """The weights `gfs` or `ecs` selects with on the structure; None for other policies."""
    if policy == "gfs":
        return solve_group_weights(structure)
    if policy == "ecs":
        return ecs_weights(structure)
    return None


# ---------------------------------------------------------------------------
# one realization

def realization_rng(seed: int, realization: int = 0) -> np.random.Generator:
    """Random stream of one realization: its layout first, then its fading.  A
    config that sets `mean_snr` draws no layout, only the fading."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, realization)))


class _Accounts:
    """The record of one realization, from its first chunk to `_reduce`: its
    `config`, which fixes each contender's kind, shape and members, its `rng`,
    which draws all of its fading, its `structure`, the `weights` gfs or ecs
    selects with (`solve`, the block's cached `policy_weights`, gives them), the
    count of slots `done`, and its per-user totals and kept SNRs, which `add`
    accumulates one chunk of slots at a time.  Of its contenders' mean SNRs it
    keeps the SNR of a cell per unit of P^-1."""

    def __init__(self, config: SystemConfig, means: np.ndarray, rng: np.random.Generator,
                 structure: GroupStructure | None, solve):
        C = config.n_contenders
        if config.policy in GROUP_POLICIES:
            if structure is None:
                raise ValueError(f"{config.policy} requires a group structure")
            self.winner_of = policies.group_index(structure, C).tolist()
            self.n_winners = structure.n_groups
            self.group_grants = np.zeros(self.n_winners, dtype=np.int64)
        else:
            self.winner_of = list(range(C))
            self.n_winners = C
            self.group_grants = None
        self.config = config
        self.rng = rng
        self.structure = structure
        self.weights = solve(structure)
        self.done = 0
        self.log_base = np.log(config.rate_log_base)
        self.snr_per_x = means / config.shapes_per_contender()
        self.user_grants = np.zeros(config.n_users, dtype=np.int64)
        self.user_u_sum = np.zeros(config.n_users)
        self.user_rate_sum = np.zeros(config.n_users)
        self.selected_snr = [[] for _ in range(C)]     # per contender: its kept arrays
        self.turn = [0] * C           # member of each contender due for its next grant

    def add(self, win: np.ndarray, u: np.ndarray) -> None:
        """Grant the next chunk: `win` names each slot's winner and u holds the scores
        the policy read, the (n, R) view of its contender-major (R, n) draw of the
        first R contenders' rows.  The granted cells lie contender by contender,
        each contender's in slot order.  Those of the rows read are taken from u;
        those of contenders R and up are drawn from the record's rng here, in that
        order, and the rng then advances to where a full (C, n) draw would have left
        it.  The inverse maps the cells to SNR, one run per contender, given each
        contender's shape and granted count, into the row that then holds their
        rates."""
        config, rng = self.config, self.rng
        n, R, C = win.shape[0], u.shape[1], config.n_contenders
        # each winner's slots, ascending: one stable sort, a radix sort on the narrow dtype
        order = np.argsort(win.astype(np.min_scalar_type(self.n_winners)), kind="stable")
        counts = np.bincount(win, minlength=self.n_winners)
        ends = np.cumsum(counts)
        if self.group_grants is not None:
            self.group_grants += counts
        # the granted cells, contender by contender, each contender's in slot order
        granted = [order[ends[w] - counts[w]:ends[w]] for w in self.winner_of]
        sizes = [sl.size for sl in granted]
        # the kept SNR arrays come before the chunk's temporaries, so freeing those
        # leaves no holes below long-lived arrays in the heap
        kept = [np.empty(size) for size in sizes]
        bounds = np.cumsum([0] + sizes).tolist()
        # the read rows' cells by contender-major index, contender * n + slot; the
        # empty order[:0] lets grr, which reads no row, concatenate none
        flat = np.concatenate([order[:0], *granted[:R]])
        flat += np.repeat(np.arange(0, R * n, n), sizes[:R])
        # row 0 the granted cells' u, row 1 their SNRs and then their rates: one sum
        # gives a member both
        ur = np.empty((2, bounds[-1]))
        read = bounds[R]
        u.T.take(flat, out=ur[0, :read])
        rng.random(out=ur[0, read:])
        rng.bit_generator.advance((C - R) * n - (bounds[-1] - read))
        snr = regularized_gamma_p_inv_runs(config.shapes_per_contender(), sizes, ur[0],
                                           out=ur[1])
        snr *= np.repeat(self.snr_per_x, sizes)
        for j, keep in enumerate(kept):
            keep[:] = snr[bounds[j]:bounds[j + 1]]
            self.selected_snr[j].append(keep)
        rates = np.log1p(snr, out=snr)
        rates /= self.log_base
        for j, size in enumerate(sizes):
            if size == 0:
                continue
            start, stop = bounds[j], bounds[j + 1]
            k = len(config.members[j])
            for t, uid in enumerate(config.members[j]):
                cells = ur[:, start + (t - self.turn[j]) % k:stop:k]
                su, sr = cells.sum(axis=1).tolist()
                self.user_grants[uid] += cells.shape[1]
                self.user_u_sum[uid] += su
                self.user_rate_sum[uid] += sr
            self.turn[j] = (self.turn[j] + size) % k
        self.done += n


def _grant_scores(acc: _Accounts, n: int) -> None:
    """Draw, select and grant a realization's next chunk of n slots: it draws the
    rows its policy reads, and `add` the granted cells of the others.  Its scores
    and winners die with the call, before the next realization draws."""
    config = acc.config
    policy, K1, K2, C = config.policy, config.K1, config.K2, config.n_contenders
    u = acc.rng.random(({"cfs": K1, "grr": 0}.get(policy, C), n)).T
    if policy == "bcs":
        win = policies.bcs_select(u, np.full(C, 1.0 / C))
    elif policy == "dfs":
        win = policies.dfs_select(u, K1, K2)
    elif policy == "cfs":
        # a pair is granted in every below-threshold slot and in no other
        win = policies.cfs_select(u, K1, K2, offset=int(acc.user_grants[K1:].sum()))
    elif policy in ("gfs", "ecs"):
        win = policies.mws_select(u, acc.structure, acc.weights)
    else:
        win = policies.grr_select(n, acc.structure.n_groups, offset=acc.done)
    acc.add(win, u)


def simulate_block(config: SystemConfig, block: list) -> list[_Accounts]:
    """Run the config's policy over `slots_per_realization` fading slots of each
    realization of a block: its `_Accounts` record each.

    `block` lists each realization's (mean SNRs, rng, GroupStructure), as
    `realization` gives them; the config fixes each contender's kind, shape and
    members.  A policy only names each slot's winner: a contender for bcs, dfs
    and cfs, a group for the group policies.  Every contender of the winner is
    granted the slot, and a pair's grants go to its two members in strict
    alternation.

    Each cell's u ~ U(0, 1) is its CDF-mapped channel, and its SNR is
    mean_snr/m * P^-1(m, u).  A chunk of n slots of a realization takes its
    cells from its record's rng in the order of a contender-major (C, n) draw,
    but draws only the ones its policy reads: the rows the selection reads, a
    prefix of the contenders (all C for bcs, dfs, gfs, ecs and pfs, the K1
    cellular users' for cfs, none for grr), selected on through their
    transposed (n, rows) view, then one u for each granted cell of the other
    rows, contender by contender in slot order.  The rng then steps over the
    rest of the (C, n) draw, so every chunk of every policy ends at the same
    stream position, and cfs's cellular scores are bcs's first K1 rows.  Every
    policy maps only its granted cells to SNR for the accounts.  The six score
    policies select on u one realization at a time, CHUNK_SLOTS slots a chunk,
    each with its own `policy_weights`, which are solved once per distinct
    structure of the block; cfs's rotation resumes at the record's pair grants
    so far.  pfs decides on rates: each chunk maps every cell of each
    realization in turn into one (C, n) buffer, and `policies.pfs_select`
    steps the whole block in lockstep with the rate averages carried across
    chunks.  Its chunk is max(1, CHUNK_SLOTS // `spatial_realizations`)
    slots, counting the whole experiment's realizations, so a chunk holds no
    more cells than a score-policy chunk.  The chunks fix the last bits of
    each user's sums, so any split of an experiment into blocks reports the
    same bits.
    """
    policy, C = config.policy, config.n_contenders
    solve = functools.cache(functools.partial(policy_weights, policy))
    accounts = [_Accounts(config, means, rng, structure, solve) for means, rng, structure in block]
    if policy == "pfs":
        shapes = config.shapes_per_contender()
        chunk = max(1, CHUNK_SLOTS // config.spatial_realizations)
        group = np.array([acc.winner_of for acc in accounts])
        state = policies.PfState(t_c=config.pf_time_const)
    else:
        chunk = CHUNK_SLOTS
    for done in range(0, config.slots_per_realization, chunk):
        n = min(chunk, config.slots_per_realization - done)
        if policy != "pfs":
            for acc in accounts:
                _grant_scores(acc, n)
            continue
        X = np.empty((n, len(accounts), C))
        snr = np.empty((C, n))
        drawn = []
        for r, acc in enumerate(accounts):
            u = acc.rng.random((C, n))
            # every cell to SNR: the inverse maps C runs of n cells, a contender's row each
            regularized_gamma_p_inv_runs(shapes, np.full(C, n), u, out=snr)
            snr *= acc.snr_per_x[:, None]
            np.log1p(snr.T, out=X[:, r])
            drawn.append(u.T)
        X /= accounts[0].log_base
        win = policies.pfs_select(X, group, state)
        for acc, u, w in zip(accounts, drawn, win.T):
            acc.add(w, u)
    return accounts


# ---------------------------------------------------------------------------
# experiment driver

@dataclass
class ExperimentReport:
    """Aggregated per-user and per-group results of one experiment of `config`: the
    grants, scores and rates summed over its slots, from which it derives the
    figures per slot."""

    config: SystemConfig
    user_group: np.ndarray
    user_grants: np.ndarray
    user_u_sum: np.ndarray
    user_rate_sum: np.ndarray
    group_grants: np.ndarray | None
    selected_snr: list            # per contender
    structure: GroupStructure | None

    @property
    def total_slots(self) -> int:
        return self.config.spatial_realizations * self.config.slots_per_realization

    @functools.cached_property
    def user_kinds(self) -> list[str]:
        """Each user's class: the K1 cellular users, then both members of each pair."""
        return ["cellular"] * self.config.K1 + ["d2d"] * (2 * self.config.K2)

    @functools.cached_property
    def access_prob(self) -> np.ndarray:
        return self.user_grants / self.total_slots

    @functools.cached_property
    def upi(self) -> np.ndarray:
        return 2.0 * self.user_u_sum / self.total_slots

    @functools.cached_property
    def selected_rate(self) -> np.ndarray:
        """Each user's mean rate over its granted slots, 0 for a user never granted."""
        grants = self.user_grants
        return np.where(grants > 0, self.user_rate_sum / np.maximum(grants, 1), 0.0)

    @functools.cached_property
    def effective_rate(self) -> np.ndarray:
        return self.user_rate_sum / self.total_slots

    @functools.cached_property
    def group_access_prob(self) -> np.ndarray | None:
        return None if self.group_grants is None else self.group_grants / self.total_slots


def _reduce(config: SystemConfig, records: list[_Accounts]) -> ExperimentReport:
    """Fold the records of one experiment's realizations, in order, into its report.

    A contender keeps every granted SNR up to RESERVOIR_CAPACITY; above it, the
    capacity's evenly spaced samples of its grants in realization and slot
    order.  Group outputs need a group policy and one partition: they are
    reported only when every realization counted group grants under the same
    group structure, else the report carries no group access and group ids of -1.
    """
    selected_snr = []
    for j in range(config.n_contenders):
        kept = np.concatenate([a for r in records for a in r.selected_snr[j]])
        if kept.size > RESERVOIR_CAPACITY:
            kept = kept[np.arange(RESERVOIR_CAPACITY) * kept.size // RESERVOIR_CAPACITY]
        selected_snr.append(kept)

    structures = {r.structure for r in records if r.group_grants is not None}
    structure = structures.pop() if len(structures) == 1 else None
    user_group = np.full(config.n_users, -1)
    group_grants = None
    if structure is not None:
        group_grants = sum(r.group_grants for r in records)
        cont_group = structure.group_of()
        for j, mem in enumerate(config.members):
            for uid in mem:
                user_group[uid] = cont_group.get(j, -1)
    return ExperimentReport(
        config=config, user_group=user_group,
        user_grants=sum(r.user_grants for r in records),
        user_u_sum=sum(r.user_u_sum for r in records),
        user_rate_sum=sum(r.user_rate_sum for r in records),
        group_grants=group_grants, selected_snr=selected_snr, structure=structure)


def layout(config: SystemConfig, r: int):
    """Realization r's layout, None for a config that sets `mean_snr` and draws
    none, and its rng after that draw."""
    rng = realization_rng(config.rng_seed, r)
    return (sample_spatial(config, rng) if config.mean_snr is None else None), rng


def realization(config: SystemConfig, r: int):
    """Realization r: its contenders' mean SNRs, its rng after the `layout` draw
    and, for a group policy, its GroupStructure (else None)."""
    spatial, rng = layout(config, r)
    structure = build_structure(config, spatial) if config.policy in GROUP_POLICIES else None
    return contenders_from_spatial(config, spatial), rng, structure


def _realization_task(args) -> list[_Accounts]:
    """Run a contiguous block of realizations through one `simulate_block` call:
    their records, in order."""
    config, block = args
    return simulate_block(config, [realization(config, r) for r in block])


def _n_workers(requested: int | None) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("D2DSCHED_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(f"D2DSCHED_THREADS must be an integer, got {env!r}") from None


def run_experiment(config: SystemConfig, n_workers: int | None = None) -> ExperimentReport:
    """Outer loop over spatial realizations, inner loop over fading slots;
    results reduce identically for any worker count.

    The realizations run as min(workers, R) contiguous blocks of sizes that
    differ by at most one, a block per process; each realization draws from
    its own substream, so the blocks change no result.  Each block is one
    `simulate_block` call, which solves the `gfs` or `ecs` weights once per
    distinct group structure of its block: once for fixed groups, and for
    greedy grouping once per partition its layouts color.
    """
    R = config.spatial_realizations
    k = min(_n_workers(n_workers), R)
    size, extra = divmod(R, k)
    starts = [i * size + min(i, extra) for i in range(k + 1)]
    tasks = [(config, range(starts[i], starts[i + 1])) for i in range(k)]
    if k > 1:
        from concurrent.futures import ProcessPoolExecutor    # imported only when it runs
        with ProcessPoolExecutor(max_workers=k) as pool:
            blocks = list(pool.map(_realization_task, tasks))
    else:
        blocks = [_realization_task(t) for t in tasks]
    return _reduce(config, [out for block in blocks for out in block])


def ks_distance(empirical, analytic) -> float:
    """Sup over the analytic grid of |F_emp - F_theory| for an array of samples (>= 2)."""
    samples = np.sort(np.asarray(empirical, dtype=float))
    if samples.size < 2:
        raise ValueError("need at least 2 empirical samples")
    emp_vals = np.searchsorted(samples, analytic.grid, side="right") / samples.size
    return float(np.max(np.abs(emp_vals - analytic.values)))

"""Monte Carlo engine: spatial realizations x fading slots driving one policy."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from d2dsched import channel, policies
from d2dsched.analytics import regularized_gamma_p_inv
from d2dsched.grouping import Group, GroupStructure, build_conflict_graph, fixed_grouping, \
    greedy_coloring, with_cellular_singletons
from d2dsched.model import ConfigError, SpatialRealization, SystemConfig, power_law_gain, \
    sample_spatial
from d2dsched.weights import PolicyWeights, ecs_weights, solve_group_weights

GROUP_POLICIES = ("gfs", "ecs", "pfs", "grr")
RESERVOIR_CAPACITY = 100_000    # selected-SNR samples kept per contender
CHUNK_SLOTS = 200_000           # slots drawn at once: bounds the (slots, contenders) arrays


@dataclass(frozen=True)
class ContenderSet:
    """The resource contenders of one realization: cellular users then pairs.

    Both devices of a pair share one direct channel, hence one contender with
    a single SNR draw per slot.
    """

    is_pair: np.ndarray           # (C,) bool
    shape_m: np.ndarray           # (C,) Nakagami shapes
    mean_snr: np.ndarray          # (C,) linear mean SNR
    members: tuple[tuple[int, ...], ...]   # user ids per contender

    @property
    def n_contenders(self) -> int:
        return len(self.members)

    @property
    def n_users(self) -> int:
        return sum(len(m) for m in self.members)

    def user_kinds(self) -> list[str]:
        kinds = [""] * self.n_users
        for j, mem in enumerate(self.members):
            for uid in mem:
                kinds[uid] = "d2d" if self.is_pair[j] else "cellular"
        return kinds


def contenders_from_spatial(config: SystemConfig, spatial: SpatialRealization) -> ContenderSet:
    """Downlink contender set: per-user mean SNR from the sampled geometry.

    Each mean is `channel.mean_snr` of the contender's downlink or D2D link,
    computed from the same helpers without building the link objects.
    """
    const_c, eta_c = config.pathloss_const_cellular, config.pathloss_exp_cellular
    const_d, eta_d = config.pathloss_const_d2d, config.pathloss_exp_d2d
    means = [channel.snr_of(config.tx_power_dl_mw, power_law_gain(const_c, eta_c, d), config)
             for d in spatial.cellular_distances.tolist()]
    means += [channel.snr_of(config.tx_power_d2d_mw, power_law_gain(const_d, eta_d, d), config)
              for d in spatial.pair_direct_distances.tolist()]
    members = [(k,) for k in range(config.K1)]
    members += [(config.K1 + 2 * p, config.K1 + 2 * p + 1) for p in range(config.K2)]
    is_pair = np.concatenate((np.zeros(config.K1, bool), np.ones(config.K2, bool)))
    return ContenderSet(is_pair, config.shapes_per_contender(), np.array(means), tuple(members))


def standalone_contenders(mean_snrs, shapes) -> ContenderSet:
    """Contender set for table-driven scenarios: one user per contender."""
    means = np.asarray(mean_snrs, dtype=float)
    m = np.asarray(shapes, dtype=float)
    members = tuple((i,) for i in range(means.size))
    return ContenderSet(np.zeros(means.size, bool), m, means, members)


def fixed_structure(config: SystemConfig) -> GroupStructure | None:
    """The mixed-system structure when no layout changes it (no pairs, or fixed
    group sizes): cellular singletons plus the configured D2D groups; else None."""
    if config.K2 == 0:
        return with_cellular_singletons(GroupStructure(()), config.K1)
    if config.group_sizes is not None:
        d2d = fixed_grouping(config.group_sizes, config.K2, nu=0.5, id_offset=config.K1)
        return with_cellular_singletons(d2d, config.K1)
    return None


def build_structure(config: SystemConfig, spatial: SpatialRealization) -> GroupStructure:
    """Mixed-system structure: cellular singletons plus D2D groups from the
    configured fixed sizes or greedy conflict-graph coloring."""
    structure = fixed_structure(config)
    if structure is None:
        colored = greedy_coloring(build_conflict_graph(spatial, config.interference_radius_m))
        d2d = GroupStructure(tuple(
            Group(tuple(config.K1 + v for v in g.members), 0.5) for g in colored.groups))
        structure = with_cellular_singletons(d2d, config.K1)
    return structure


def policy_weights(policy: str, structure: GroupStructure) -> PolicyWeights | None:
    """The weights `gfs` or `ecs` selects with on the structure; None for other policies."""
    if policy == "gfs":
        return solve_group_weights(structure)
    if policy == "ecs":
        return ecs_weights(structure)
    return None


# ---------------------------------------------------------------------------
# one realization

@dataclass
class SimResult:
    slots: int
    user_grants: np.ndarray
    user_u_sum: np.ndarray
    user_rate_sum: np.ndarray
    group_grants: np.ndarray | None
    selected_snr: list            # per contender: list of arrays
    structure: GroupStructure | None


def realization_rng(seed: int, realization: int = 0) -> np.random.Generator:
    """Random stream of one realization: its layout first, then its fading."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(0, realization)))


def simulate_policy(cs: ContenderSet, policy: str, slots: int, rng: np.random.Generator,
                    structure: GroupStructure | None = None, rate_log_base: float = 2.0,
                    pf_time_const: float = 1000.0,
                    weights: PolicyWeights | None = None) -> SimResult:
    """Run one realization of `slots` fading slots under the given policy.

    A policy only names each slot's winner: a contender for bcs, dfs and cfs,
    a group for the group policies.  Every contender of the winner is granted
    the slot, and a pair's grants go to its two members in strict alternation.

    Each chunk draws u ~ U(0, 1), the CDF-mapped channel, for every (slot,
    contender) cell; a cell's SNR is mean_snr/m * P^-1(m, u).  The six score
    policies select on u and map only their granted cells to SNR.  pfs
    selects on rates, so it maps every cell and takes its granted SNRs from
    that map.

    `weights`, when given, are `policy_weights(policy, structure)` solved
    once for several realizations that share the structure.
    """
    if slots < 1:
        raise ValueError("slots must be >= 1")
    C = cs.n_contenders
    nU = cs.n_users
    K1 = int(np.sum(~cs.is_pair))
    K2 = C - K1
    log_base = np.log(rate_log_base)
    if policy in GROUP_POLICIES:
        if structure is None:
            raise ValueError(f"{policy} requires a group structure")
        if weights is None:
            weights = policy_weights(policy, structure)
        group_of = structure.group_of()
        winner_of = [group_of[j] for j in range(C)]
        n_winners = structure.n_groups
    elif policy in ("bcs", "dfs", "cfs"):
        winner_of = list(range(C))
        n_winners = C
    else:
        raise ValueError(f"unknown policy {policy!r}")
    # one shape for every contender reaches the inverse as a scalar
    shape = float(cs.shape_m[0]) if np.all(cs.shape_m == cs.shape_m[0]) else None
    snr_per_x = cs.mean_snr / cs.shape_m        # SNR of a cell per unit of P^-1
    contender_ids = np.arange(C)
    grants = [0] * nU
    u_sum = [0.0] * nU
    rate_sum = [0.0] * nU
    group_grants = np.zeros(n_winners, dtype=np.int64) if policy in GROUP_POLICIES else None
    selected_snr = [[] for _ in range(C)]
    turn = [0] * C                # member of each contender due for its next grant
    cfs_state = policies.CfsState()
    pf_state = policies.PfState(t_c=pf_time_const)
    done = 0
    while done < slots:
        n = min(CHUNK_SLOTS, slots - done)
        u = rng.random((n, C))
        if policy == "pfs":
            # the rates decide: map every cell, contender by contender so that the
            # inverse meets runs of equal shape
            x = regularized_gamma_p_inv(cs.shape_m[:, None] if shape is None else shape, u.T)
            x *= snr_per_x[:, None]
            snr_all = np.ascontiguousarray(x.T)
            win = policies.pfs_select(np.log1p(snr_all) / log_base, structure, pf_state)
        elif policy == "bcs":
            # the scores decide: map the granted cells to SNR below
            win = policies.bcs_select(u, np.full(C, 1.0 / C))
        elif policy == "dfs":
            win = policies.dfs_select(u, K1, K2)
        elif policy == "cfs":
            cell_winner, d2d_user = policies.cfs_select(u[:, :K1], K1, K2, cfs_state)
            # the round-robin over the 2*K2 D2D users alternates each pair's members
            win = np.where(cell_winner >= 0, cell_winner, K1 + d2d_user // 2)
        elif policy in ("gfs", "ecs"):
            win = policies.mws_select(u, structure, weights)
        else:
            win = policies.grr_select(n, structure.n_groups, offset=done)

        # each winner's slots, ascending: one stable sort, a radix sort on the narrow dtype
        order = np.argsort(win.astype(np.min_scalar_type(n_winners)), kind="stable")
        counts = np.bincount(win, minlength=n_winners)
        ends = np.cumsum(counts)
        if group_grants is not None:
            group_grants += counts
        # the granted cells, contender by contender, each contender's in slot order
        granted = [order[ends[w] - counts[w]:ends[w]] for w in winner_of]
        sizes = [sl.size for sl in granted]
        # the kept SNR arrays come before the chunk's temporaries, so freeing those
        # leaves no holes below long-lived arrays in the heap
        kept = [np.empty(size) for size in sizes]
        cols = np.repeat(contender_ids, sizes)
        flat = np.concatenate(granted)          # row-major cell index: slot * C + contender
        flat *= C
        flat += cols
        # row 0 the granted cells' u, row 1 their rates: one sum gives a member both
        ur = np.empty((2, flat.size))
        u.take(flat, out=ur[0])
        if policy == "pfs":
            snr = snr_all.take(flat)
        else:
            snr = regularized_gamma_p_inv(np.repeat(cs.shape_m, sizes) if shape is None else shape,
                                          ur[0])
            snr *= np.repeat(snr_per_x, sizes)
        rates = np.log1p(snr, out=ur[1])
        rates /= log_base
        stop = 0
        for j, size in enumerate(sizes):
            if size == 0:
                continue
            start, stop = stop, stop + size
            kept[j][:] = snr[start:stop]
            selected_snr[j].append(kept[j])
            k = len(cs.members[j])
            for t, uid in enumerate(cs.members[j]):
                cells = ur[:, start + (t - turn[j]) % k:stop:k]
                su, sr = cells.sum(axis=1).tolist()
                grants[uid] += cells.shape[1]
                u_sum[uid] += su
                rate_sum[uid] += sr
            turn[j] = (turn[j] + size) % k
        done += n
    return SimResult(slots=slots, user_grants=np.array(grants, dtype=np.int64),
                     user_u_sum=np.array(u_sum), user_rate_sum=np.array(rate_sum),
                     group_grants=group_grants, selected_snr=selected_snr, structure=structure)


# ---------------------------------------------------------------------------
# experiment driver

@dataclass
class ExperimentReport:
    """Aggregated per-user and per-group results of one experiment."""

    policy: str
    seed: int
    total_slots: int
    user_kinds: list
    user_group: np.ndarray
    access_prob: np.ndarray
    upi: np.ndarray
    selected_rate: np.ndarray
    effective_rate: np.ndarray
    group_access_prob: np.ndarray | None
    selected_snr: list            # per contender
    structure: GroupStructure | None
    config_digest: str = ""

    @property
    def n_users(self) -> int:
        return len(self.user_kinds)


def _merge_reservoir(parts: list[np.ndarray], cap: int, rng: np.random.Generator) -> np.ndarray:
    allsamp = np.concatenate(parts) if parts else np.empty(0)
    if allsamp.size <= cap:
        return allsamp
    idx = np.sort(rng.choice(allsamp.size, cap, replace=False))
    return allsamp[idx]


def _reduce(outputs: list, policy: str, seed: int, config_digest: str = "") -> ExperimentReport:
    """Fold (SimResult, ContenderSet) pairs of one experiment into its report.

    Group outputs need a group policy and one partition: they are reported
    only when every realization counted group grants under the same group
    structure, else the report carries no group access and group ids of -1.
    """
    results = [r for r, _ in outputs]
    cs0 = outputs[0][1]
    total_slots = sum(r.slots for r in results)
    user_grants = sum(r.user_grants for r in results)
    u_sum = sum(r.user_u_sum for r in results)
    rate_sum = sum(r.user_rate_sum for r in results)
    res_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(987654321,)))
    selected_snr = [_merge_reservoir([a for r in results for a in r.selected_snr[j]],
                                     RESERVOIR_CAPACITY, res_rng)
                    for j in range(cs0.n_contenders)]

    structures = {r.structure for r in results if r.group_grants is not None}
    structure = structures.pop() if len(structures) == 1 else None
    user_group = np.full(cs0.n_users, -1)
    group_access = None
    if structure is not None:
        group_access = sum(r.group_grants for r in results) / total_slots
        cont_group = structure.group_of()
        for j, mem in enumerate(cs0.members):
            for uid in mem:
                user_group[uid] = cont_group.get(j, -1)
    return ExperimentReport(
        policy=policy, seed=seed, total_slots=total_slots,
        user_kinds=cs0.user_kinds(), user_group=user_group,
        access_prob=user_grants / total_slots,
        upi=2.0 * u_sum / total_slots,
        selected_rate=np.where(user_grants > 0, rate_sum / np.maximum(user_grants, 1), 0.0),
        effective_rate=rate_sum / total_slots,
        group_access_prob=group_access,
        selected_snr=selected_snr,
        structure=structure,
        config_digest=config_digest,
    )


def _realization_task(args):
    config, realization, weights = args
    rng = realization_rng(config.rng_seed, realization)
    spatial = sample_spatial(config, rng)
    cs = contenders_from_spatial(config, spatial)
    structure = build_structure(config, spatial) if config.policy in GROUP_POLICIES else None
    return simulate_policy(cs, config.policy, config.slots_per_realization, rng,
                           structure=structure,
                           rate_log_base=config.rate_log_base,
                           pf_time_const=config.pf_time_const, weights=weights), cs


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

    When no layout changes the group structure, its `gfs` or `ecs` weights
    are solved once for the run; greedy grouping solves them per realization.
    """
    structure = fixed_structure(config)
    weights = None if structure is None else policy_weights(config.policy, structure)
    tasks = [(config, real, weights) for real in range(config.spatial_realizations)]
    workers = _n_workers(n_workers)
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor    # imported only when it runs
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(_realization_task, tasks))
    else:
        outputs = [_realization_task(t) for t in tasks]
    return _reduce(outputs, config.policy, config.rng_seed, config.digest())


def run_standalone(mean_snrs, shapes, structure: GroupStructure, policy: str, slots: int,
                   seed: int) -> ExperimentReport:
    """Table-driven scenario: per-user SNR distributions, no geometry."""
    cs = standalone_contenders(mean_snrs, shapes)
    result = simulate_policy(cs, policy, slots, realization_rng(seed), structure=structure)
    return _reduce([(result, cs)], policy, seed)


def ks_distance(empirical, analytic) -> float:
    """Sup over the analytic grid of |F_emp - F_theory| for an array of samples (>= 2)."""
    samples = np.sort(np.asarray(empirical, dtype=float))
    if samples.size < 2:
        raise ValueError("need at least 2 empirical samples")
    emp_vals = np.searchsorted(samples, analytic.grid, side="right") / samples.size
    return float(np.max(np.abs(emp_vals - analytic.values)))

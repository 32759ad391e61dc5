"""Session-scoped Monte Carlo runs shared by the unit and acceptance tests."""

import os
import sys
from dataclasses import replace


import pytest

sys.path.insert(0, os.path.dirname(__file__))

from helpers import table5_config

from d2dsched import simcore
from d2dsched.cli import TABLE5_MEANS, TABLE5_SIZES
from d2dsched.grouping import fixed_grouping
from d2dsched.model import SystemConfig


@pytest.fixture(scope="session")
def bcs8_report():
    """Eight i.i.d. Rayleigh users under plain CDF competition, 10^6 slots."""
    return simcore.run_experiment(SystemConfig(K1=8, K2=0, mean_snr=(4.0,) * 8, policy="bcs",
                                               slots_per_realization=1_000_000, rng_seed=101))


@pytest.fixture(scope="session")
def cfs_setup():
    config = SystemConfig(K1=5, K2=2, policy="cfs", slots_per_realization=1_000_000,
                          spatial_realizations=1, rng_seed=202)
    return config, simcore.run_experiment(config)


@pytest.fixture(scope="session")
def dfs_setup():
    config = SystemConfig(K1=4, K2=2, policy="dfs", slots_per_realization=1_000_000,
                          spatial_realizations=1, rng_seed=303)
    return config, simcore.run_experiment(config)


@pytest.fixture(scope="session")
def uncond_setup():
    """Default channel parameters, positions re-drawn 400 times, 10^4 slots each.

    Position-averaged CDF checks are limited by the number of spatial draws,
    not fading slots, so the realization count is the knob that matters here.
    """
    config = SystemConfig(K1=10, K2=5, policy="dfs", slots_per_realization=10_000,
                          spatial_realizations=400, rng_seed=404)
    return config, simcore.run_experiment(config)


@pytest.fixture(scope="session")
def tab5_structure():
    return fixed_grouping(TABLE5_SIZES, len(TABLE5_MEANS), nu=1.0)


@pytest.fixture(scope="session")
def tab5_gfs():
    """Four-group heterogeneous-channel scenario under max-min weights, 10^6 slots."""
    return simcore.run_experiment(table5_config(policy="gfs", slots_per_realization=1_000_000,
                                                rng_seed=505))


@pytest.fixture(scope="session")
def tab5_ecs():
    return simcore.run_experiment(table5_config(policy="ecs", slots_per_realization=200_000,
                                                rng_seed=606))


@pytest.fixture(scope="session")
def sec4c_reports():
    """One mixed cellular + D2D scenario run under several policies on identical
    channels (same seed => same geometry and fading), for ordering comparisons."""
    base = SystemConfig(K1=10, K2=5, group_sizes=(5,), spatial_realizations=20,
                        slots_per_realization=10_000, rng_seed=707)
    out = {}
    for policy in ("gfs", "bcs", "dfs", "cfs", "grr"):
        out[policy] = simcore.run_experiment(replace(base, policy=policy))
    return base, out

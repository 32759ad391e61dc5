"""Shared test utilities: deterministic geometry replay and KS statistics."""

import numpy as np

from d2dsched import simcore
from d2dsched.model import sample_spatial


def first_realization_contenders(config):
    """Rebuild the contender set of realization (resource 0, index 0) exactly as
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

"""The benchmark's per-layer metrics name functions that exist.

The benchmark runner reads a metric whose span never ran as 0, so a renamed
layer function would zero its counters silently.  This test resolves every
per-layer name of BENCHMARK.json to an attribute of d2dsched instead.
"""

import functools
import importlib
import json
import os

import pytest

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(__file__)), "BENCHMARK.json")
SUFFIXES = (".self_s", ".total_s", ".calls", ".slots", ".elements")
# spans of functions that no longer exist, and one the runner times itself
EXEMPT = {"simcore.simulate_policy", "simcore.run_standalone", "analytics.conditional_curves"}


def _span_names():
    with open(BENCHMARK) as f:
        metrics = json.load(f)["per_layer"]
    return {m["name"][:-len(suffix)] for m in metrics for suffix in SUFFIXES
            if m["name"].endswith(suffix)}


def test_exempt_names_are_benchmark_spans():
    assert EXEMPT < _span_names()


@pytest.mark.parametrize("name", sorted(_span_names() - EXEMPT))
def test_span_names_resolve_to_functions(name):
    module, *path = name.split(".")
    target = functools.reduce(getattr, path, importlib.import_module(f"d2dsched.{module}"))
    assert callable(target), name

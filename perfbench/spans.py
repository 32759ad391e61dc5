"""Outside-in span recorder for the d2dsched layers.

The recorder wraps the public functions (and public methods of public
classes) of each d2dsched module by replacing module and class attributes,
so nothing under ``src/`` changes.  Every alias of a wrapped function is
replaced too: ``simcore.regularized_gamma_p`` and ``channel.regularized_gamma_p``
are the same object as ``analytics.regularized_gamma_p`` and record spans
under that one name.  Calls made through a name the benchmark bound before
``install`` are not seen, so the benchmark calls every layer through its module.

A span is (id, name, start, end, parent id); spans stay in memory until
``write_spans``.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pickle
import time

import numpy as np

LAYERS = ("model", "channel", "analytics", "policies", "grouping", "weights", "simcore", "cli")


def _select_slots(u, *args, **kwargs) -> int:
    return int(np.atleast_2d(u).shape[0])


def _gamma_elements(a, x) -> int:
    return int(np.broadcast(np.asarray(a), np.asarray(x)).size)


# extra per-call counts, keyed by span name: name -> (counter name, f(*args, **kwargs))
_ARG_COUNTERS = {
    "policies.bcs_select": ("slots", _select_slots),
    "policies.dfs_select": ("slots", _select_slots),
    "policies.cfs_select": ("slots", _select_slots),
    "policies.mws_select": ("slots", _select_slots),
    "policies.pfs_select": ("slots", _select_slots),
    "policies.grr_select": ("slots", lambda n_slots, *a, **k: int(n_slots)),
    "analytics.regularized_gamma_p": ("elements", _gamma_elements),
}


class SpanRecorder:
    """Records spans and per-name call statistics while installed."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, list[float]] = {}     # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}            # "name.counter" -> count
        self.keep_results = False                   # hold SimResults for pickled sizes
        self.sim_results: list = []                 # per-realization results of run_experiment
        self._stack: list[list] = []                # [span id, child seconds, name]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- pass bookkeeping -------------------------------------------------
    def reset_counters(self) -> None:
        """Start a new pass: clear statistics, keep recorded spans."""
        self.stats = {}
        self.counts = {}
        self.sim_results = []

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self.spans
        counter = _ARG_COUNTERS.get(name)
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = rec._next_id
            rec._next_id = sid + 1
            parent, parent_name = (stack[-1][0], stack[-1][2]) if stack else (-1, None)
            frame = [sid, 0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                st = rec.stats.get(name)
                if st is None:
                    st = rec.stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                spans.append((sid, name, t0, t1, parent))
            if counter is not None:
                rec._count(f"{name}.{counter[0]}", counter[1](*args, **kwargs))
            if name == "simcore.simulate_policy":
                rec._count("simcore.selected_snr_bytes",
                           sum(a.nbytes for per in result.selected_snr for a in per))
                # only realizations of run_experiment are what a worker pool ships;
                # run_standalone's result never leaves the process
                if rec.keep_results and parent_name == "simcore.run_experiment":
                    rec.sim_results.append(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function and public method of the layer modules."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        modules = [importlib.import_module(f"d2dsched.{m}") for m in LAYERS]
        wrappers: dict = {}        # original function -> wrapper
        classes = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(f"{short}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    classes.append(obj)
                    for mname, meth in vars(obj).items():
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            wrappers[meth] = self._wrap(f"{short}.{meth.__qualname__}", meth)
        # replace the function everywhere it is bound: its module, importing
        # modules, and class attributes such as `__call__ = evaluate`
        for owner in modules + classes:
            for attr, obj in list(vars(owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches = []

    # -- results ----------------------------------------------------------
    def task_result_bytes(self) -> int:
        """Largest pickled per-realization SimResult of run_experiment this pass:
        what one pool task would ship."""
        return max((len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL))
                    for r in self.sim_results), default=0)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent}) + "\n")

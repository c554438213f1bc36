"""Span recorder that wraps the public functions of relochain from outside.

`Tracer.install()` replaces every public function defined in the traced
modules, and `LiftedChain.apply`, by a wrapper that records one span
(name, parent, start, end) per call. Modules import each other's names with
`from ... import`, so a function is rebound in every relochain module that
holds it, including values of module-level dicts (the experiment dispatch
table); otherwise calls through those bindings would be missed.
`uninstall()` restores every original binding.

Spans live in compact arrays in memory; `unit_stats()` turns one traced unit
into per-layer numbers, and `save_spans()` writes them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("matrices", "relocation", "lifted", "simulate", "bounds", "experiments", "svg")
ROOT_SPAN = "bench.unit"


def _apply_hook(counters, args, kwargs, result):
    chain = args[0]
    n, m = chain.n_states, chain.m
    counters["lifted.apply.windows"] += n
    # Computed, not measured: one pass over the N x m weight table, the input
    # vector and the output vector, 8 bytes per float64; one multiply-add per
    # weight.
    counters["lifted.apply.bytes_computed"] += 8 * n * (m + 2)
    counters["lifted.apply.flops_computed"] += 2 * n * m


def _sweeps_hook(counters, args, kwargs, result):
    counters["lifted.lifted_spectral_radius.sweeps"] += result.iterations


def _weighted_hook(counters, args, kwargs, result):
    counters["simulate.run_weighted_chain.steps"] += result.steps


def _fk_hook(counters, args, kwargs, result):
    counters["simulate.fk_survival_estimate.replica_steps"] += result.n * result.replicas


def _killed_hook(counters, args, kwargs, result):
    # Replica-steps actually simulated: replicas still alive before each step.
    curve = result.curve
    counters["simulate.run_killed_chain.replica_steps"] += float(curve.p_hat[:-1].sum()) * curve.replicas


def _csv_hook(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["experiments.write_csv.bytes"] += os.path.getsize(path)


COUNTER_NAMES = (
    "lifted.apply.windows",
    "lifted.apply.bytes_computed",
    "lifted.apply.flops_computed",
    "lifted.lifted_spectral_radius.sweeps",
    "simulate.run_weighted_chain.steps",
    "simulate.fk_survival_estimate.replica_steps",
    "simulate.run_killed_chain.replica_steps",
    "experiments.write_csv.bytes",
)


HOOKS = {
    "lifted.apply": _apply_hook,
    "lifted.lifted_spectral_radius": _sweeps_hook,
    "simulate.run_weighted_chain": _weighted_hook,
    "simulate.fk_survival_estimate": _fk_hook,
    "simulate.run_killed_chain": _killed_hook,
    "experiments.write_csv": _csv_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object, bool]] = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters; bindings stay installed."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._last_exc = None
        self.counters: dict[str, float] = {k: 0 for k in COUNTER_NAMES}
        self.errors: dict[str, int] = {m: 0 for m in TRACED_MODULES}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.span_end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        module = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Count an exception once, in the innermost span it leaves.
                if exc is not tracer._last_exc:
                    tracer._last_exc = exc
                    tracer.errors[module] += 1
                raise
            finally:
                tracer._close(i)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self):
        """Rebind every traced function in every relochain module."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        from relochain.lifted import LiftedChain

        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"relochain.{short}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self.wrap(obj, f"{short}.{name}")
        original_apply = LiftedChain.__dict__["apply"]
        self._patch(LiftedChain, "apply", self.wrap(original_apply, "lifted.apply"))

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "relochain" or modname.startswith("relochain.")):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._patch(obj, key, wrappers[value], item=True)

    def _patch(self, owner, key, new, item: bool = False):
        old = owner[key] if item else getattr(owner, key)
        self._patches.append((owner, key, old, item))
        if item:
            owner[key] = new
        else:
            setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old, item in reversed(self._patches):
            if item:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._patches.clear()

    def arrays(self):
        """Recorded spans as numpy arrays: (name id, parent index, start, end)."""
        return (
            np.frombuffer(self.span_name, dtype=np.int32).copy(),
            np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            np.frombuffer(self.span_start, dtype=np.float64).copy(),
            np.frombuffer(self.span_end, dtype=np.float64).copy(),
        )

    def save_spans(self, path: str):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)


# A percentile is reported only when at least ten calls lie beyond it.
MIN_CALLS_FOR_P90 = 100


def unit_stats(tracer: Tracer) -> dict:
    """Per-function statistics of the spans recorded since the last reset.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (one thread), so children never overlap.
    Returns {"functions": {name: {...}}, "root_s": ..., "unwrapped_s": ...,
    "counters": ..., "errors": ...}.
    """
    name, parent, start, end = tracer.arrays()
    dur = end - start
    n = len(name)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    root_id = tracer._ids[ROOT_SPAN]
    functions = {}
    order = np.argsort(name, kind="stable")
    bounds = np.searchsorted(name[order], np.arange(len(tracer.names) + 1))
    for nid, fname in enumerate(tracer.names):
        if nid == root_id:
            continue
        idx = order[bounds[nid] : bounds[nid + 1]]
        if idx.size == 0:
            continue
        d = dur[idx]
        functions[fname] = {
            "calls": int(idx.size),
            "self_s": float(self_t[idx].sum()),
            "total_s": float(d.sum()),
            "p50_s": float(np.percentile(d, 50)),
            "p90_s": float(np.percentile(d, 90)) if idx.size >= MIN_CALLS_FOR_P90 else None,
        }
    roots = name == root_id
    return {
        "functions": functions,
        "root_s": float(dur[roots].sum()),
        "unwrapped_s": float(self_t[roots].sum()),
        "counters": dict(tracer.counters),
        "errors": dict(tracer.errors),
    }

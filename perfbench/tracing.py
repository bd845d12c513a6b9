"""Span tracing of photonchain's public functions, from outside the package.

The tracer replaces each traced function at every name a photonchain module
holds it under (``photonchain.cli.run_batch`` as well as
``photonchain.engine.run_batch``), so calls are caught where their callers
look them up.  Nothing inside ``src/`` is changed; ``uninstall`` puts the
original functions back.

Spans (name, layer, start, end, parent) are kept in memory and written out
by ``dump``.  A layer's self time is the summed duration of its spans minus
the time covered by their child spans.

Work counts are *computed* from the traced calls' arguments and results,
not timed: shots and full-detection events from the returned arrays,
shot-steps per step kind from the schedule and the ``detected`` array, RNG
draws from the size of each returned array.  For a given seed they repeat
exactly.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# layer -> (module, traced public functions)
TRACED = {
    "rng": ("photonchain.rng", ("uniform", "normal")),
    "schedule": ("photonchain.schedule", ("build_schedule",)),
    "engine": ("photonchain.engine", (
        "run_batch", "run_shot", "rate_benchmark", "coherence_probe",
        "dd_scan", "parity_visibility_run")),
    "io": ("photonchain.io", (
        "load_config", "parse_config", "write_records", "read_records",
        "write_summary", "write_curve")),
    "analysis": ("photonchain.analysis", (
        "populations", "parity", "parity_curve", "fit_coherence",
        "ghz_fidelity", "ghz_witness", "stabilizers", "cluster_witness",
        "cluster_bound_value", "rate_fit", "decay_fit")),
    "oracle": ("photonchain.oracle", ("product_expectation", "dense_run")),
    "cli": ("photonchain.cli", ("main",)),
}

# "bench" is the benchmark's own code inside a traced round; "trace" is the
# tracer's count bookkeeping, kept apart so it is not billed to a layer
LAYERS = (*TRACED, "bench", "trace")

STEP_KINDS = ("pump", "wait", "pulse", "emit")


def shot_steps(sched, detected: np.ndarray, abort_on_loss: bool) -> dict:
    """Steps evolved per step kind, summed over the shots of one batch.

    A shot is evolved from its first photon onward (shots without a first
    photon never start, and they are the ones with slot 0 undetected); with
    ``abort_on_loss`` it leaves after the emit step of its first undetected
    photon, otherwise it runs every step.
    """
    kinds = [s.kind for s in sched.steps]
    started = detected[:, 0]
    n_started = int(np.count_nonzero(started))
    totals = {k: kinds.count(k) for k in STEP_KINDS}
    if not abort_on_loss:
        return {k: n_started * totals[k] for k in STEP_KINDS}
    emit_at = np.zeros(sched.n_photons, dtype=np.int64)
    for i, s in enumerate(sched.steps):
        if s.kind == "emit":
            emit_at[s.slot] = i
    lost = ~detected & started[:, None]
    has_loss = lost.any(axis=1)
    stop = emit_at[lost[has_loss].argmax(axis=1)]
    n_full = n_started - int(np.count_nonzero(has_loss))
    out = {}
    for k in STEP_KINDS:
        cum = np.cumsum([kind == k for kind in kinds])
        out[k] = n_full * totals[k] + int(cum[stop].sum())
    return out


class Tracer:
    """In-memory span recorder with computed work counters."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list = []
        self._schedules: dict = {}
        self._build_schedule = None

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self.ends[idx] = t
        self._stack.pop()
        return t - self.starts[idx]

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span of the benchmark's own code; yields its index."""
        idx = self._open(name, "bench")
        try:
            yield idx
        finally:
            self._close(idx)

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def _wrap(self, layer: str, name: str, fn, after):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = tracer._close(idx)
            if after is not None:
                b = tracer._open("count", "trace")
                try:
                    after(args, kwargs, out, dt)
                finally:
                    tracer._close(b)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- computed counts ------------------------------------------------------

    def _schedule_of(self, cfg):
        from photonchain.schedule import PulseSchedule

        if isinstance(cfg, PulseSchedule):
            return cfg
        if cfg not in self._schedules:
            # the untraced builder, so counting adds no schedule spans
            self._schedules[cfg] = self._build_schedule(cfg)
        return self._schedules[cfg]

    def _after_hooks(self, originals: dict) -> dict:
        c = self.counts
        sig_run = inspect.signature(originals["engine.run_batch"])
        sig_write = inspect.signature(originals["io.write_records"])

        def uniform(args, kwargs, out, dt):
            c["rng.draws"] += int(np.size(out))

        def run_batch(args, kwargs, out, dt):
            bound = sig_run.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            sched = self._schedule_of(a["cfg"])
            c["engine.calls"] += 1
            c["engine.call_s"] += dt
            c["engine.shots"] += out.n_shots
            c["engine.events"] += int(np.count_nonzero(
                out.detected.all(axis=1)))
            for k, v in shot_steps(sched, out.detected,
                                   a["abort_on_loss"]).items():
                c[f"engine.shot_steps.{k}"] += v

        def rate_benchmark(args, kwargs, out, dt):
            c["engine.calls"] += 1
            c["engine.call_s"] += dt
            c["engine.shots"] += out.n_runs
            c["engine.events"] += int(out.counts[-1])

        def write_records(args, kwargs, out, dt):
            bound = sig_write.bind(*args, **kwargs)
            batches = bound.arguments["batches"]
            if not isinstance(batches, (list, tuple)):
                batches = [batches]
            c["io.write_shots"] += sum(b.n_shots for b in batches)
            c["io.write_bytes"] += os.path.getsize(bound.arguments["path"])
            c["io.write_s"] += dt

        def read_records(args, kwargs, out, dt):
            c["io.read_shots"] += sum(b.n_shots for b in out[1])
            c["io.read_s"] += dt

        def counter(key, timer=None):
            def hook(args, kwargs, out, dt):
                c[key] += 1
                if timer:
                    c[timer] += dt
            return hook

        hooks = {
            "rng.uniform": uniform,
            "engine.run_batch": run_batch,
            "engine.rate_benchmark": rate_benchmark,
            "io.write_records": write_records,
            "io.read_records": read_records,
            "schedule.build_schedule": counter("schedule.builds"),
            "oracle.product_expectation": counter("oracle.calls",
                                                  "oracle.call_s"),
            "oracle.dense_run": counter("oracle.calls", "oracle.call_s"),
        }
        for fn in TRACED["analysis"][1]:
            hooks[f"analysis.{fn}"] = counter("analysis.calls")
        return hooks

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function at every name photonchain holds it
        under."""
        import importlib

        originals = {}
        for layer, (modname, fns) in TRACED.items():
            mod = importlib.import_module(modname)
            for fn in fns:
                originals[f"{layer}.{fn}"] = getattr(mod, fn)
        self._build_schedule = originals["schedule.build_schedule"]
        hooks = self._after_hooks(originals)
        wrappers = {}
        for key, fn in originals.items():
            layer = key.split(".", 1)[0]
            wrappers[id(fn)] = (fn, self._wrap(layer, key, fn,
                                               hooks.get(key)))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "photonchain"
                                   or modname.startswith("photonchain.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer, in seconds."""
        starts = np.array(self.starts)
        dur = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        own = dur - child
        layers = np.array(self.layers)
        return {layer: float(own[layers == layer].sum()) for layer in LAYERS}

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, layer, start, end, parent] row
        per span, times in seconds from the first span's start."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[n, layer, round(s - t0, 9), round(e - t0, 9), p]
                for n, layer, s, e, p in zip(self.names, self.layers,
                                             self.starts, self.ends,
                                             self.parents)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start_s", "end_s",
                                  "parent"], "spans": rows}, fh)
            fh.write("\n")

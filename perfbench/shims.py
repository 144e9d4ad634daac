"""Timing shims for the traced run.

The package binds names with ``from .x import y``, so a function is
replaced in every module namespace that holds it, not only where it is
defined.  Spans are kept in memory as (name, parent, start, end) and are
turned into per-layer statistics, or written out, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

import numpy as np

MODULES = ("cli", "bench", "data", "glm", "optim", "precond", "lowrank")

# Methods reported as layers of their own.  Every Optimizer subclass
# overrides step, so each override is recorded under one span name.
METHOD_SPANS = (("optim", "Optimizer", "step"), ("bench", "RunRecord", "save"))


class SpanRecorder:
    """Append-only span store; index i of each array belongs to span i."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that every call records one span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter_ns
        stack, name_ids, parents, starts, ends = (
            self._stack, self.name_id, self.parent, self.start, self.end)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return shim


class Installed:
    """Shims in place; ``uninstall`` puts every original back."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _targets():
    """(span name, original function, owning class or None) to wrap."""
    mods = {m: importlib.import_module(f"adagram.{m}") for m in MODULES}
    for short, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                yield f"{short}.{obj.__qualname__}", obj, None
    for short, cls_name, method in METHOD_SPANS:
        base = getattr(mods[short], cls_name, None)
        if base is None:
            continue
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            fn = cls.__dict__.get(method)
            if isinstance(fn, types.FunctionType):
                yield f"{short}.{cls_name}.{method}", fn, cls


def namespaces():
    """The package and its modules: every place a function name is bound."""
    pkg = importlib.import_module("adagram")
    return [pkg] + [importlib.import_module(f"adagram.{m}") for m in MODULES]


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every public function of the package's modules and the
    methods in METHOD_SPANS, wherever they are bound."""
    installed = Installed()
    shims = {}
    for name, fn, cls in _targets():
        shim = recorder.wrap(name, fn)
        if cls is None:
            shims[fn] = shim
        else:
            installed.replace(cls, fn.__name__, shim)
    for ns in namespaces():
        for attr, obj in list(vars(ns).items()):
            if isinstance(obj, types.FunctionType) and obj in shims:
                installed.replace(ns, attr, shims[obj])
    return installed


def layer_stats(recorder: SpanRecorder, n_passes: int) -> dict[str, float]:
    """Per-span-name statistics, per pass of the workload body.

    ``<name>.calls`` and ``<name>.self_s`` are totals divided by n_passes;
    ``<name>.us_p50`` and ``<name>.us_p99`` are percentiles of the
    inclusive call duration over all passes; ``<module>.self_s`` sums the
    self time of the module's spans.  Self time is a span's duration
    minus the durations of its direct children.
    """
    name_id = np.asarray(recorder.name_id, dtype=np.int64)
    parent = np.asarray(recorder.parent, dtype=np.int64)
    dur = np.asarray(recorder.end, dtype=np.int64) - np.asarray(recorder.start, dtype=np.int64)
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child

    out: dict[str, float] = {}
    for nid, name in enumerate(recorder.names):
        mask = name_id == nid
        calls = int(mask.sum())
        out[f"{name}.calls"] = calls / n_passes
        out[f"{name}.self_s"] = float(self_ns[mask].sum()) / 1e9 / n_passes
        p50, p99 = np.percentile(dur[mask], [50, 99]) / 1e3 if calls else (0.0, 0.0)
        out[f"{name}.us_p50"] = float(p50)
        out[f"{name}.us_p99"] = float(p99)
        module = name.split(".", 1)[0] + ".self_s"
        out[module] = out.get(module, 0.0) + out[f"{name}.self_s"]
    return out


def save_spans(recorder: SpanRecorder, path: str) -> None:
    np.savez_compressed(
        path, names=np.array(recorder.names), name_id=np.asarray(recorder.name_id),
        parent=np.asarray(recorder.parent), start_ns=np.asarray(recorder.start),
        end_ns=np.asarray(recorder.end))

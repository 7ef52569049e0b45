"""Spans around the public functions of each gmk module, installed from outside.

A traced function is replaced at every name its callers use: in the module
that defines it and in every other ``gmk`` module that imported it. A span
records its name, start, end, parent span and instance id. Spans are kept
in flat arrays in memory; ``summary`` derives per-name counts and self
time from them, and ``save`` writes them out once the run is over.
Self time is a span's duration minus the durations of its direct children;
the process is single-threaded, so children nest inside their parent.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# module -> traced attributes; "Class.method" patches the method on the class
TRACED = {
    "gmk.cli": ["main"],
    "gmk.cutting": ["solve_general_result", "solve_bounded_horizon", "combine_cut_solutions"],
    "gmk.mkcp": ["solve_mkcp_exact", "solve_mkcp_greedy", "pack_assignment", "pack_mkc"],
    "gmk.reduction": [
        "reduce_instance", "lift_solution", "verify_reduced_solution", "ReducedObjective.evaluate",
    ],
    "gmk.core": ["ensure_valid", "check_feasible", "evaluate_objective"],
    "gmk.oracle": ["brute_force_gmk"],
    "gmk.serialize": ["load_json", "instance_from_dict", "write_json"],
    "gmk.submodular": [
        "CoverageFunction.evaluate", "ModularFunction.evaluate", "SumFunction.evaluate",
        "ExtendedStageFunction.evaluate",
    ],
}


def _reduced_elements(rec: "Recorder", result) -> None:
    rec.counters["reduction.elements"] += len(result.elements)


def _packed(rec: "Recorder", result) -> None:
    rec.counters["mkcp.pack_assignment.packed"] += int(result.packed)


# counters read off a traced function's result
OBSERVERS = {
    "reduction.reduce_instance": _reduced_elements,
    "mkcp.pack_assignment": _packed,
}


class Recorder:
    """In-memory span store for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_instance = -1
        self.counters = {"reduction.elements": 0, "mkcp.pack_assignment.packed": 0}

    def wrap(self, span_name: str, fn):
        if span_name not in self.name_ids:
            self.name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self.name_ids[span_name]
        observe = OBSERVERS.get(span_name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(name_id)
            rec.parent.append(rec.stack[-1])
            rec.instance.append(rec.current_instance)
            rec.end.append(0.0)
            rec.stack.append(idx)
            rec.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                rec.stack.pop()
            if observe is not None:
                observe(rec, result)
            return result

        return traced

    def install(self):
        """Patch every traced name; returns a function that undoes it."""
        undo = []
        gmk_modules = [m for n, m in sys.modules.items() if n == "gmk" or n.startswith("gmk.")]
        for module_name, attrs in TRACED.items():
            module = sys.modules[module_name]
            layer = module_name.split(".")[-1]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(f"{layer}.{attr}", original))
                    undo.append((cls, meth, original))
                    continue
                original = getattr(module, attr)
                wrapper = self.wrap(f"{layer}.{attr}", original)
                for mod in gmk_modules:
                    if mod.__dict__.get(attr) is original:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, original))

        def restore() -> None:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

        return restore

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        return name, parent, duration

    def summary(self) -> dict:
        """Per span name: calls, self seconds, and entries from another layer."""
        name, parent, duration = self._arrays()
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(name)
        )
        self_time = duration - child_time
        layer_of = np.array([n.split(".")[0] for n in self.names] + ["<root>"])
        parent_layer = layer_of[np.where(has_parent, name[np.maximum(parent, 0)], len(self.names))]
        entries = layer_of[name] != parent_layer
        out = {}
        for k, span_name in enumerate(self.names):
            mine = name == k
            out[span_name] = {
                "calls": int(mine.sum()),
                "self_s": float(self_time[mine].sum()),
                "entries": int((mine & entries).sum()),
            }
        return out

    def save(self, path) -> None:
        name, parent, _ = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=name,
            parent=parent,
            instance=np.frombuffer(self.instance, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

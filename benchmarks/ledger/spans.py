"""Layer spans for the ledger's traced run, recorded from outside ``src/``.

The traced run wraps the public entry point of each layer with a
recorder and attributes every nanosecond of a repetition to exactly one
layer:

* each wrapped call opens a span ``[id, parent, name, start_ns, end_ns]``
  whose parent is the innermost span still open (one thread, so the
  nesting is exact);
* a layer's self time is the sum of its spans' durations minus the
  durations of their direct children;
* each repetition runs under a root span named :data:`ROOT`; its self
  time is ``unattributed`` — the benchmark's own loop plus any program
  code called outside a wrapped boundary.

A function is replaced at *every* loaded module that binds it (matched
by identity), so a stale ``from x import y`` binding is wrapped too; a
method is replaced on its class.  Spans opened inside forked sharded
workers stay in those workers: the parent sees their time as the wait
inside ``run_sharded_trace``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

#: Name of the per-repetition root span (layer ``unattributed``).
ROOT = "repetition"

#: Module-level functions: (layer, defining module, function names).
FUNCTIONS = (
    (
        "graph.generators",
        "repro.graph.generators",
        ("random_connected_network", "random_network", "random_grid_network"),
    ),
    (
        "graph.unit_disk",
        "repro.graph.unit_disk",
        ("range_for_average_degree", "build_unit_disk_graph", "edge_flips"),
    ),
    ("core.views", "repro.core.views", ("local_view",)),
    (
        "core.coverage",
        "repro.core.coverage",
        ("coverage_condition", "strong_coverage_condition"),
    ),
    ("sim.service", "repro.sim.engine", ("run_broadcast",)),
    (
        "experiments.runner",
        "repro.experiments.runner",
        ("run_figure", "run_trace_sweep"),
    ),
    ("experiments.sharded", "repro.experiments.sharded", ("run_sharded_trace",)),
)

#: Methods: (layer, defining module, class, method names).
METHODS = (
    (
        "graph.topology",
        "repro.graph.topology",
        "Topology",
        ("k_hop_view_graph", "is_connected", "apply_delta"),
    ),
    ("core.views", "repro.sim.engine", "SimulationEnvironment", ("make_view",)),
    ("sim.service", "repro.sim.service", "ServiceEngine", ("run",)),
)

#: Hooks wrapped on every protocol class a workload uses.
PROTOCOL_METHODS = ("prepare", "should_forward", "designate")

#: Hooks wrapped on every MAC class a workload uses.
MAC_METHODS = ("deliveries",)

#: Every layer, in report order (``unattributed`` is the root's layer).
LAYERS = (
    "graph.generators",
    "graph.unit_disk",
    "graph.topology",
    "core.views",
    "core.coverage",
    "algorithms",
    "sim.service",
    "sim.mac",
    "experiments.runner",
    "experiments.sharded",
    "unattributed",
)

_MARK = "_ledger_span_wrapper"


class SpanRecorder:
    """In-memory span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[id, parent, name, start_ns, end_ns]`` in opening order, so
        #: a parent always precedes its children.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.layer_of: Dict[str, str] = {ROOT: "unattributed"}

    def wrap(self, name: str, layer: str, fn):
        """``fn`` wrapped so each call records one span named ``name``."""
        if getattr(fn, _MARK, False):
            fn = fn.__wrapped__
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        self.layer_of[name] = layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, name, clock(), 0]
            spans.append(record)
            stack.append(record[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = clock()

        setattr(wrapper, _MARK, True)
        return wrapper

    @contextmanager
    def root(self) -> Iterator[int]:
        """One repetition's root span; yields its span id."""
        if self._stack:
            raise RuntimeError("a root span cannot nest inside another span")
        record = [len(self.spans), None, ROOT, time.perf_counter_ns(), 0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[0]
        finally:
            self._stack.pop()
            record[4] = time.perf_counter_ns()

    def install(
        self,
        protocol_classes: Iterable[type],
        mac_classes: Iterable[type],
        extra_modules: Sequence[object] = (),
    ) -> None:
        """Wrap every boundary of :data:`FUNCTIONS`/:data:`METHODS` and the
        hooks of the given protocol and MAC classes.

        Functions are rebound in every loaded ``repro`` module (and in
        ``extra_modules``) that holds the original object.
        """
        holders = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        holders.extend(extra_modules)
        for layer, module_name, names in FUNCTIONS:
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                if getattr(original, _MARK, False):
                    original = original.__wrapped__
                wrapper = self.wrap(name, layer, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
        for layer, module_name, class_name, names in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._wrap_methods(cls, names, layer)
        for cls in protocol_classes:
            self._wrap_methods(cls, PROTOCOL_METHODS, "algorithms")
        for cls in mac_classes:
            self._wrap_methods(cls, MAC_METHODS, "sim.mac")

    def _wrap_methods(self, cls: type, names: Iterable[str], layer: str) -> None:
        for name in names:
            label = f"{cls.__name__}.{name}"
            setattr(cls, name, self.wrap(label, layer, getattr(cls, name)))

    def write_jsonl(self, path: str) -> None:
        """Write every span as one sorted-key JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        },
                        sort_keys=True,
                    )
                )
                handle.write("\n")


def summarize(spans: Sequence[list], layer_of: Dict[str, str], root_id: int) -> dict:
    """Self time per layer and call count per span name under one root.

    Returns ``{"root_s", "self_s": {layer: s}, "calls": {name: n}}``;
    every layer of :data:`LAYERS` appears, 0.0 when it never ran.
    """
    children_ns: Dict[int, int] = {}
    root_of: Dict[int, int] = {}
    self_ns = {layer: 0 for layer in LAYERS}
    calls: Dict[str, int] = {}
    for sid, parent, name, start, end in spans:
        root_of[sid] = sid if parent is None else root_of[parent]
        if parent is not None:
            children_ns[parent] = children_ns.get(parent, 0) + (end - start)
    root_ns: Optional[int] = None
    for sid, parent, name, start, end in spans:
        if root_of[sid] != root_id:
            continue
        if sid == root_id:
            root_ns = end - start
        else:
            calls[name] = calls.get(name, 0) + 1
        self_ns[layer_of[name]] += end - start - children_ns.get(sid, 0)
    if root_ns is None:
        raise KeyError(f"no root span {root_id}")
    return {
        "root_s": root_ns / 1e9,
        "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
        "calls": dict(sorted(calls.items())),
    }

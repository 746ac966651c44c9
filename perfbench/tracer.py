"""Layer tracing from outside the program: wrap desim's public API, count events.

:class:`Tracer` replaces every public function and every public method of
the classes each ``desim`` layer exports (its ``__all__``) with a timing
wrapper, and installs itself as ``Environment.on_processed`` on every
environment created while it is active. Each wrapped call is a span (layer
name, start, end, parent span); spans are kept in memory, aggregated per
name into calls, inclusive time and self time, and written out by
:meth:`Tracer.write_spans`. The processed-event hook classifies every event
by kind, scores ``any_of`` races and checks that no resource holds more
grants than its capacity.

Sweep cells run in forked pool workers, which inherit the wrappers. A worker
resets its copy of the state when a cell starts and appends the cell's
aggregates to a file under ``out_dir`` when it ends; :meth:`merge_workers`
folds those files back in. Raw spans of worker processes are not kept.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from enum import Enum
from pathlib import Path
from time import perf_counter_ns
from types import FunctionType

from spec import EVENT_KINDS, LAYERS

KIND_BY_CLASS = {
    "Process": "process",
    "Request": "request",
    "ContainerGet": "container",
    "ContainerPut": "container",
    "Condition": "condition",
}

# Model runs of the stats layer; each call is one cell.
CELL_FUNCTIONS = ("stats.simulate", "stats.mm1_simulate")

# Raw spans kept per traced run; aggregates always cover every call.
SPAN_CAP = 100_000


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.owner_pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.agg: dict[str, list[int]] = {}      # name -> [calls, total ns, self ns]
        self.events = dict.fromkeys(EVENT_KINDS, 0)
        self.lost_races = 0
        self.grants_checked = 0
        self.over_capacity = 0
        self.cells_ns: list[int] = []
        self.parties: list[object] = []
        self.meals = 0
        self.give_ups = 0
        self.trace_records = 0
        self._timeouts: set[object] = set()
        self._race_of: dict[object, object] = {}
        self._fired: set[object] = set()
        self._stack: list[list[int]] = []
        self._spans: list[tuple[int, str, int, int, int]] = []
        self._next_span = 0

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public API of every layer; :meth:`uninstall` undoes it."""
        modules = [importlib.import_module(f"desim.{layer}") for layer in LAYERS]
        holders = [m for name, m in sys.modules.items()
                   if name == "desim" or name.startswith("desim.")]
        for layer, module in zip(LAYERS, modules):
            for export in getattr(module, "__all__", ()):
                obj = getattr(module, export)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped = self._wrap(f"{layer}.{export}", obj)
                    for holder in holders:
                        for attr, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, attr, wrapped)
                elif isinstance(obj, type) and not issubclass(obj, (BaseException, Enum)):
                    for attr, value in list(vars(obj).items()):
                        if attr == "__init__" and export == "Environment":
                            self._patch(obj, attr, self._hook_init(value))
                        elif not attr.startswith("_") and isinstance(value, FunctionType):
                            self._patch(obj, attr, self._wrap(
                                f"{layer}.{value.__qualname__}", value))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _patch(self, holder: object, attr: str, value: object) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _hook_init(self, init):
        tracer = self

        def __init__(env, *args, **kwargs):
            init(env, *args, **kwargs)
            env.on_processed = tracer.on_processed
        return __init__

    def _wrap(self, name: str, fn):
        tracer = self
        after = {
            "kernel.Environment.timeout": self._note_timeout,
            "kernel.any_of": self._note_race,
            "scenarios.build_party": self._note_party,
            "cli.emit_trace": self._note_trace,
        }.get(name)
        is_cell = name in CELL_FUNCTIONS
        is_race = name == "kernel.any_of"

        def wrapper(*args, **kwargs):
            if is_race and len(args) == 2:  # constituents are read by any_of and the note
                args = (args[0], list(args[1]))
            if is_cell and os.getpid() != tracer.owner_pid:
                tracer.reset()
            stack = tracer._stack
            index = tracer._next_span
            tracer._next_span = index + 1
            frame = [0, index]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                entry = tracer.agg.get(name)
                if entry is None:
                    entry = tracer.agg[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if index < SPAN_CAP:
                    parent = stack[-1][1] if stack else -1
                    tracer._spans.append((index, name, parent, start, end))
            if after is not None:
                after(args, result)
            if is_cell:
                tracer.cells_ns.append(duration)
                if os.getpid() != tracer.owner_pid:
                    tracer._flush_worker()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- notes taken after particular calls -------------------------------

    def _note_timeout(self, args, event) -> None:
        self._timeouts.add(event)

    def _note_race(self, args, condition) -> None:
        for event in args[1] if len(args) == 2 else ():
            if not event.processed:
                self._race_of[event] = condition

    def _note_party(self, args, party) -> None:
        self.parties.append(party)

    def _note_trace(self, args, text) -> None:
        # Count the records handed in, so that a line lost in formatting shows.
        records = args[0] if args else ()
        self.trace_records += len(records) if hasattr(records, "__len__") else text.count("\n")

    # -- the processed-event hook -------------------------------------------

    def on_processed(self, event) -> None:
        kind = KIND_BY_CLASS.get(type(event).__name__)
        if kind is None:
            if event in self._timeouts:
                self._timeouts.remove(event)
                kind = "timeout"
            else:
                kind = "plain"
        elif kind == "request":
            resource = event.resource
            self.grants_checked += 1
            if resource.count > resource.capacity:
                self.over_capacity += 1
        self.events[kind] += 1
        condition = self._race_of.pop(event, None)
        if condition is not None:
            if condition in self._fired:
                self.lost_races += 1
            else:
                self._fired.add(condition)

    # -- results --------------------------------------------------------------

    def settle_parties(self) -> None:
        """Fold the meal and give-up counts of the parties built so far."""
        for party in self.parties:
            for ph in party.philosophers:
                self.meals += ph.meals
                self.give_ups += ph.total_give_ups
        self.parties.clear()

    def snapshot(self) -> dict:
        """Exact counts and aggregates gathered since the last reset."""
        self.settle_parties()
        return {
            "agg": {k: v for k, v in self.agg.items() if v[0]},
            "events": dict(self.events),
            "lost_races": self.lost_races,
            "grants_checked": self.grants_checked,
            "over_capacity": self.over_capacity,
            "cells_ns": list(self.cells_ns),
            "meals": self.meals,
            "give_ups": self.give_ups,
            "trace_records": self.trace_records,
        }

    def _flush_worker(self) -> None:
        path = self.out_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")
        self.reset()

    def merge_workers(self) -> int:
        """Add the cell records that pool workers wrote; returns the cell count."""
        cells = 0
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                part = json.loads(line)
                cells += 1
                for name, (calls, total, own) in part["agg"].items():
                    entry = self.agg.setdefault(name, [0, 0, 0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
                for kind, count in part["events"].items():
                    self.events[kind] += count
                for key in ("lost_races", "grants_checked", "over_capacity",
                            "meals", "give_ups", "trace_records"):
                    setattr(self, key, getattr(self, key) + part[key])
                self.cells_ns.extend(part["cells_ns"])
            path.unlink()
        return cells

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans (up to the cap) and the per-name aggregates."""
        names = sorted({name for _, name, _, _, _ in self._spans})
        ids = {name: i for i, name in enumerate(names)}
        spans = sorted(self._spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names,
                       "columns": ["span", "name", "parent", "start_ns", "end_ns"],
                       "spans": [[i, ids[n], p, s, e] for i, n, p, s, e in spans],
                       "recorded": len(spans),
                       "total": self._next_span,
                       "aggregates": self.agg}, fh)

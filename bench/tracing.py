"""Layer spans recorded from the benchmark's own files.

Each function of ``hub``, ``kb``, ``tools`` and ``quant`` that a record's
run calls is wrapped at the name its caller looks it up by, so the program
itself is unchanged. A span has a record id (spans of one record share it),
its own id, the id of the span that caused it, a name, a layer and start
and end times from ``perf_counter_ns``. Spans stay in memory and are
written out when the run ends. A layer's self time is the time its spans
cover minus the part their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("hub", "kb", "tools", "quant")
# Registered tools, by the last part of their registry name.
TOOLS = ("view_classifier", "segmenter", "biplane_volume", "ejection_fraction",
         "grade_ef", "mask_area")

# (module, attribute, span name, layer). The span name of ToolRegistry.invoke
# is taken from the tool it invokes.
TARGETS = (
    ("echoagent.hub.engine", "ReasoningHub.run", "hub.run", "hub"),
    ("echoagent.hub.engine", "ReasoningHub.resolve_repository", "hub.resolve_repository", "hub"),
    ("echoagent.hub.engine", "plan_steps", "hub.plan_steps", "hub"),
    ("echoagent.hub.engine", "update_posteriors", "hub.update_posteriors", "hub"),
    ("echoagent.hub.engine", "digest", "hub.digest", "hub"),
    ("echoagent.hub.trace", "TraceWriter.write", "hub.trace_write", "hub"),
    ("echoagent.kb.encoder", "HashedBowEncoder.embed", "kb.embed", "kb"),
    ("echoagent.kb.index", "KnowledgeBase.all_similarities", "kb.all_similarities", "kb"),
    ("echoagent.tools.registry", "ToolRegistry.invoke", None, "tools"),
    ("echoagent.tools.backends", "classify_view", "tools.classify_view", "tools"),
    ("echoagent.tools.backends", "segment_structure", "tools.segment_structure", "tools"),
    ("echoagent.tools.backends", "load_study", "tools.load_study", "tools"),
    ("echoagent.tools.backends", "read_pgm", "tools.read_pgm", "tools"),
    ("echoagent.tools.backends", "pgm_dimensions", "tools.pgm_dimensions", "tools"),
    ("echoagent.hub.toolkit", "biplane_volume", "quant.biplane_volume", "quant"),
    ("echoagent.hub.toolkit", "ejection_fraction", "quant.ejection_fraction", "quant"),
    ("echoagent.hub.toolkit", "grade_ef", "quant.grade_ef", "quant"),
    ("echoagent.hub.toolkit", "mask_area", "quant.mask_area", "quant"),
    ("echoagent.hub.toolkit", "long_axis", "quant.long_axis", "quant"),
    ("echoagent.quant.volume", "long_axis", "quant.long_axis", "quant"),
    ("echoagent.quant.volume", "disk_diameters", "quant.disk_diameters", "quant"),
)


def _chord_samples(mask, chords: int) -> int:
    """Ray samples the chord code visits: chords x (2 * max_steps + 1)."""
    max_steps = int(math.ceil(math.hypot(*mask.labels.shape))) + 1
    return max(1, chords) * (2 * max_steps + 1)


def _arg(args, kwargs, index: int, name: str, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.record: int | None = None  # spans are kept only while a record runs
        self.spans: list[tuple] = []
        self.layer_self_ns: Counter = Counter()
        self.inclusive_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.failed_by_status: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, child ns]
        self._next_id = 0

    def _count(self, name: str, args, kwargs) -> None:
        if name == "tools.load_study":
            if any(frame[1] == "tools.segment_structure" for frame in self._stack):
                self.counts["load_study_in_segment"] += 1
        elif name in ("tools.read_pgm", "tools.pgm_dimensions"):
            self.counts["pgm_bytes"] += os.path.getsize(args[0])
        elif name == "quant.long_axis":
            probes = _arg(args, kwargs, 2, "n_probe_disks", 20)
            self.counts["chord_samples"] += _chord_samples(args[0], probes)
        elif name == "quant.disk_diameters":
            disks = _arg(args, kwargs, 3, "n_disks", 20)
            self.counts["chord_samples"] += _chord_samples(args[0], disks)

    def call(self, name: str, layer: str, fn, args, kwargs):
        if self.record is None:
            return fn(*args, **kwargs)
        self._count(name, args, kwargs)
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, name, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            own = duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self.layer_self_ns[layer] += own
            self.inclusive_ns[name] += duration
            self.self_ns[name] += own
            self.calls[name] += 1
            self.spans.append((self.record, span_id, parent, name, layer, start, end))

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("record", "span", "parent", "name", "layer", "start_ns", "end_ns")
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span)), separators=(",", ":")) + "\n")


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs)
    return wrapper


def _wrap_invoke(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(registry, tool_name, inputs):
        name = "tools." + tool_name.rsplit(".", 1)[-1]
        try:
            return tracer.call(name, "tools", fn, (registry, tool_name, inputs), {})
        except Exception as exc:
            if tracer.record is not None:
                tracer.failed_by_status[type(exc).__name__] += 1
            raise
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration; yields the targets not found."""
    patched, missing = [], []
    for module_name, attribute, name, layer in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        *outer, attr = attribute.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            missing.append(f"{module_name}.{attribute}")
            continue
        wrapper = _wrap_invoke(tracer, original) if name is None else _wrap(
            tracer, original, name, layer)
        setattr(owner, attr, wrapper)
        patched.append((owner, attr, original))
    try:
        yield missing
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

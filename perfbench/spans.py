"""Span tracing of the pipeline's layers, from outside the program.

The traced run wraps public callables of each layer at class (or module)
level, so copies of the runtime made by the fleet executor and the
scheduler are traced too.  Each call records one span: layer, callable
name, start, end, parent span, per-run id, thread and a work count
(windows, or bytes for checkpoint writes).  Spans stay in memory and are
written out when the benchmark ends.

A span's self time is its duration minus the time its direct child spans
cover; a layer's busy time is the sum of its spans' self times, so the
layers' busy times plus the untraced remainder add up to the wall time.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass

import numpy as np

import repro.core.checkpoint as checkpoint
import repro.core.faults as faults
from repro.core import (
    CHRISRuntime,
    DecisionEngine,
    FleetExecutor,
    FleetJournal,
    RunStager,
)
from repro.hw.platform import WearableSystem
from repro.ml.activity_classifier import ActivityClassifier
from repro.models.adaptive_threshold import AdaptiveThresholdPredictor
from repro.models.timeppg import TimePPGPredictor

#: Layer of each TimePPG variant, by model name.
TIMEPPG_LAYERS = {"TimePPG-Small": "tppg_small", "TimePPG-Big": "tppg_big"}


@dataclass
class Span:
    layer: str
    name: str
    start: float
    end: float
    parent: int
    run_id: int
    thread: int
    count: int


class Tracer:
    """In-memory span recorder; per-thread stacks give each span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.events: dict[str, int] = {}
        self.run_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def new_run(self) -> int:
        """Start a new per-run id; later spans carry it."""
        self.run_id += 1
        return self.run_id

    def call(self, layer: str, name: str, count: int, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            layer, name, 0.0, 0.0, stack[-1] if stack else -1,
            self.run_id, threading.get_ident(), count,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def event(self, key: str) -> None:
        with self._lock:
            self.events[key] = self.events.get(key, 0) + 1

    # ---------------------------------------------------------- aggregation
    def self_times(self) -> np.ndarray:
        """Self time of every span (duration minus its direct children)."""
        spans = self.spans
        own = np.array([s.end - s.start for s in spans], dtype=float)
        covered = np.zeros(len(spans))
        for s in spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return own - covered

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls``, ``count`` (work units) and ``busy_s``."""
        totals: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = totals.setdefault(span.layer, {"calls": 0, "count": 0, "busy_s": 0.0})
            row["calls"] += 1
            row["count"] += span.count
            row["busy_s"] += float(own)
        return totals

    def calls_of(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_json(self) -> dict:
        return {
            "fields": ["layer", "name", "start", "end", "parent", "run_id", "thread", "count"],
            "spans": [
                [s.layer, s.name, s.start, s.end, s.parent, s.run_id, s.thread, s.count]
                for s in self.spans
            ],
            "events": dict(self.events),
        }


def _rows(position: int, keyword: str):
    """Work count = length of the argument at ``position`` / ``keyword``."""

    def count(args, kwargs) -> int:
        value = args[position] if len(args) > position else kwargs.get(keyword)
        return 0 if value is None else len(value)

    return count


def _none(args, kwargs) -> int:
    return 0


def _timeppg_layer(args) -> str:
    return TIMEPPG_LAYERS[args[0].config.name]


#: ``(owner, attribute, layer or layer-of-args, work count)`` of every
#: traced callable.  Owners are classes or modules; the program looks
#: each of these up through its owner at call time.
TARGETS = (
    (ActivityClassifier, "extract_features", "features", _rows(1, "accel_windows")),
    (ActivityClassifier, "predict_difficulty", "rf", _rows(1, "accel_windows")),
    (DecisionEngine, "select_or_closest", "route", _none),
    (DecisionEngine, "select_model", "route", _none),
    (AdaptiveThresholdPredictor, "predict", "at", _rows(1, "ppg_windows")),
    (AdaptiveThresholdPredictor, "predict_fleet", "at", _rows(1, "ppg_windows")),
    (TimePPGPredictor, "predict", _timeppg_layer, _rows(1, "ppg_windows")),
    (WearableSystem, "cached_prediction_cost", "cost", _none),
    (CHRISRuntime, "run_many", "runtime", _none),
    (FleetExecutor, "run_fleet", "fleet", _none),
    (RunStager, "stage_shard", "checkpoint", _none),
    (RunStager, "reset", "checkpoint", _none),
    (FleetJournal, "open_run", "checkpoint", _none),
    (FleetJournal, "mark", "checkpoint", _none),
    (checkpoint, "atomic_write_bytes", "checkpoint", _rows(1, "data")),
)


class installed:
    """Context manager: wrap every target while the block runs.

    ``faults.fire`` is wrapped to count attempts per site (one call per
    fleet-shard or scheduler-batch attempt), which gives retry counts.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object, bool]] = []

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        for owner, attr, layer, count in TARGETS:
            original = getattr(owner, attr)
            layer_of = layer if callable(layer) else (lambda args, _l=layer: _l)
            name = f"{getattr(owner, '__name__', owner)}.{attr}"

            @functools.wraps(original)
            def wrapper(*args, _fn=original, _layer=layer_of, _count=count, _name=name, **kwargs):
                return tracer.call(_layer(args), _name, _count(args, kwargs), _fn, args, kwargs)

            if isinstance(vars(owner).get(attr), staticmethod):
                wrapper = staticmethod(wrapper)
            self._patch(owner, attr, wrapper)
        original_fire = faults.fire

        @functools.wraps(original_fire)
        def fire(site, *args, **kwargs):
            tracer.event(f"fire.{site}")
            return original_fire(site, *args, **kwargs)

        self._patch(faults, "fire", fire)
        return tracer

    def _patch(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def timeppg_chunk() -> int:
    """The forward chunk size ``TimePPGPredictor.predict`` uses by default."""
    return int(inspect.signature(TimePPGPredictor.predict).parameters["batch_size"].default)

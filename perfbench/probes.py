"""Span recorder and per-layer timing wrappers for the traced benchmark run.

The benchmark adds no span under ``src/``.  For a traced run the
launcher (:mod:`launch`) calls :func:`install`, which wraps the public
functions and methods listed in :data:`TARGETS` with timers before the
program's entry point runs.  Each call into a layer is then recorded as
a span: name, start, duration and the span that caused it.

``repro.obs.trace.TraceRecorder`` keeps one span stack per process,
which the serve daemon's handler and dispatcher threads would mix up.
:class:`Recorder` keeps one stack per thread and appends finished spans
under a lock.  Spans stay in memory; the launcher writes them once, when
the program returns.

Calls made once per row (the online kernels) or thousands of times per
experiment (group-by aggregations) are *leaves*: their time is summed
per (parent span, name) and emitted as one span per pair when the trace
is taken, so parent self times still come out right.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from pathlib import Path

__all__ = ["Recorder", "TARGETS", "install"]


class Recorder:
    """Per-thread span stacks, shared span list, counters and maxima."""

    def __init__(self) -> None:
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked child starts empty: it ships only its own spans, and a
        # lock held by another thread at fork time must not carry over.
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> int:
        return (self.pid << 32) | next(self._ids)

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(name, float("-inf")):
                self.maxima[name] = value

    def finish(self, span_id, parent, name, start, seconds, leaf) -> None:
        with self._lock:
            if leaf:
                bucket = self.leaves.setdefault((parent, name), [0, 0.0])
                bucket[0] += 1
                bucket[1] += seconds
            else:
                self.spans.append(
                    {"id": span_id, "parent": parent, "name": name,
                     "start": start, "seconds": seconds, "pid": self.pid}
                )

    def take(self) -> dict:
        """Everything recorded so far, leaves folded into spans; resets."""
        with self._lock:
            spans, leaves = self.spans, self.leaves
            counters, maxima = self.counters, self.maxima
            self.spans, self.leaves = [], {}
            self.counters, self.maxima = {}, {}
        for (parent, name), (count, seconds) in leaves.items():
            spans.append(
                {"id": self.new_id(), "parent": parent, "name": name,
                 "start": None, "seconds": seconds, "pid": self.pid,
                 "calls": count}
            )
        return {"spans": spans, "counters": counters, "maxima": maxima}


def timed(rec: Recorder, fn, name, leaf=False, after=None):
    """``fn`` timed as span ``name`` (a string, or a function of the
    call's arguments).  ``after(rec, result, args)`` records counts from
    the result.  A call nested in a span of the same name is not
    recorded again, so self-calling layers are not counted twice."""

    @functools.wraps(fn)
    def timed_call(*args, **kwargs):
        label = name if isinstance(name, str) else name(args)
        stack = rec.stack()
        if stack and stack[-1][1] == label:
            return fn(*args, **kwargs)
        parent = stack[-1][0] if stack else None
        span_id = None if leaf else rec.new_id()
        stack.append((parent if leaf else span_id, label))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            stack.pop()
            rec.finish(span_id, parent, label, start, seconds, leaf)
        if after is not None:
            after(rec, result, args)
        return result

    return timed_call


def _file_bytes(counter):
    def after(rec, result, args):
        if result:
            try:
                rec.add(counter, Path(args[0]).stat().st_size)
            except OSError:
                pass
    return after


def _rows(rec, result, args):
    rec.add("csvio.rows", result.n_rows)


def _tail_lines(rec, result, args):
    rec.add("tailer.lines", len(result.lines) + len(result.recovered))


def _checkpoint_bytes(rec, result, args):
    rec.peak("checkpoint.bytes", Path(result).stat().st_size)


def _calls(counter):
    def after(rec, result, args):
        rec.add(counter)
    return after


def _pending_sampled(rec: Recorder, seal):
    """``WatermarkBuffer.seal`` preceded by a pending-depth sample."""

    @functools.wraps(seal)
    def sampled(self):
        rec.peak("watermark.pending_max", self.pending_count)
        return seal(self)

    return sampled


#: (module, function or ``Class.method``, span name, leaf, after-hook).
TARGETS = (
    ("repro.table.csvio", "read_csv", "csvio.read", False, _rows),
    ("repro.dataset.cache", "store_bundle", "cache.npz_write", False,
     _file_bytes("cache.npz_write_bytes")),
    ("repro.dataset.cache", "load_cached_bundle", "cache.npz_read", False,
     None),
    ("repro.dataset.cache", "store_arena", "arena.write", False,
     _file_bytes("arena.bytes")),
    ("repro.dataset.cache", "load_arena", "arena.attach", False, None),
    ("repro.ras.generator", "RasGenerator.generate", "synth.ras", False,
     None),
    ("repro.scheduler.workload", "WorkloadModel.generate", "synth.workload",
     False, None),
    ("repro.scheduler.cobalt", "CobaltScheduler.run", "synth.scheduler",
     False, None),
    ("repro.tasks.generator", "TaskLogGenerator.generate", "synth.tasks",
     False, None),
    ("repro.darshan.generator", "DarshanGenerator.generate", "synth.io",
     False, None),
    ("repro.dataset.mira", "MiraDataset._annotate_blocks", "synth.annotate",
     False, None),
    ("repro.experiments.engine", "run_suite", "engine.suite", False, None),
    ("repro.experiments", "run_experiment",
     lambda args: f"experiment.{args[0]}", False, None),
    ("repro.experiments.journal", "RunJournal.append_outcome",
     "journal.append", False, None),
    ("repro.core.report", "render_report", "render", False, None),
    ("repro.core.attribution", "map_events_to_jobs", "kernel.attribution",
     False, _calls("kernel.attribution_calls")),
    ("repro.core.filtering.pipeline", "FilterPipeline.run", "kernel.filter",
     False, _calls("kernel.filter_calls")),
    ("repro.dataset.mira", "MiraDataset.fatal_events", "kernel.fatal_events",
     True, _calls("kernel.fatal_events_calls")),
    ("repro.stats.bootstrap", "bootstrap_ci", "kernel.bootstrap", False,
     None),
    ("repro.stats.changepoint", "detect_changepoints", "kernel.changepoint",
     False, None),
    ("repro.stats.changepoint", "cusum_statistic", "kernel.changepoint",
     False, None),
    ("repro.table.groupby", "GroupBy.agg", "kernel.groupby", True, None),
    ("repro.table.groupby", "GroupBy.size", "kernel.groupby", True, None),
    ("repro.table.groupby", "GroupBy.apply", "kernel.groupby", True, None),
    ("repro.serve.server", "ReproServer.handle_query", "serve.handle",
     False, None),
    ("repro.serve.protocol", "ServeRequest.parse", "protocol.parse", True,
     None),
    ("repro.serve.protocol", "ServeResponse.to_json", "protocol.encode",
     True, None),
    ("repro.serve.resultcache", "ResultCache.get", "resultcache.get", True,
     None),
    ("repro.serve.resultcache", "ResultCache.put", "resultcache.put", True,
     None),
    ("repro.serve.workers", "WorkerSlot.run", "workers.run", False, None),
    ("repro.stream.tailer", "FileTailer.poll", "tailer.poll", False,
     _tail_lines),
    ("repro.stream.pipeline", "StreamPipeline.tick", "pipeline.tick", False,
     None),
    ("repro.stream.watermark", "WatermarkBuffer.seal", "watermark.seal",
     False, None),
    ("repro.stream.online", "UserFailureCounter.update", "online.update",
     True, None),
    ("repro.stream.online", "ComponentCounter.update", "online.update",
     True, None),
    ("repro.stream.online", "OnlineCusum.update", "online.update", True,
     None),
    ("repro.stream.online", "RollingMtti.update", "online.update", True,
     None),
    ("repro.stream.pipeline", "StreamPipeline.checkpoint",
     "checkpoint.write", False, _checkpoint_bytes),
    ("repro.stream.pipeline", "StreamPipeline.resume", "checkpoint.restore",
     False, None),
)


def install() -> Recorder:
    """Time every target in :data:`TARGETS`; returns the recorder.

    Methods are timed on their class.  A module-level function is timed
    in its own module and in every loaded ``repro`` module that bound it
    by ``from x import f``, so call this before the entry point runs.
    """
    import importlib
    import sys

    rec = Recorder()
    for module_name, path, name, leaf, after in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                timed_attr = type(raw)(
                    timed(rec, raw.__func__, name, leaf, after))
            else:
                if path == "WatermarkBuffer.seal":
                    raw = _pending_sampled(rec, raw)
                timed_attr = timed(rec, raw, name, leaf, after)
            setattr(cls, attr, timed_attr)
            continue
        original = getattr(module, path)
        timed_fn = timed(rec, original, name, leaf, after)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, timed_fn)
    return rec

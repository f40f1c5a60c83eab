"""Supervised parallel experiment engine.

Runs independent experiments against one dataset, in-process
(``jobs=1``) or on supervised worker processes
(:class:`repro.util.workers.WorkerSlot`, the slots ``repro-serve``
also runs on), while preserving two invariants the report renderer
depends on:

- **Deterministic ordering** — outcomes come back in the exact order
  the experiment IDs were requested, regardless of which worker
  finished first.
- **Failure isolation** — one crashing experiment becomes a recorded
  outcome (``skipped`` for expected data-starvation errors, ``error``
  for everything else), never an aborted suite.

:func:`run_suite` supervises its workers the way a batch scheduler
supervises jobs.  The ``--timeout`` alarm fires inside the worker, and
a worker still silent :data:`~repro.util.workers.SUPERVISOR_GRACE_S`
later is killed.  A worker that dies or is killed loses only its own
experiment, which is re-queued with exponential backoff until its
retries run out and then recorded as an ``error`` outcome.
``KeyboardInterrupt`` (SIGINT, or SIGTERM mapped to it by the CLI)
kills the workers and returns the outcomes collected so far with
``interrupted=True``.  Every fresh outcome reaches ``on_outcome`` the
moment it arrives, so a journal loses at most the work in flight, and
``completed`` outcomes replayed from a journal are never re-run.

Every outcome carries wall-time, peak-RSS, and the attempt number that
produced it, and :func:`write_bench_json` serializes a suite into the
machine-readable ``BENCH_pipeline.json`` perf-trajectory format the
benchmark harness and CI consume.
"""

from __future__ import annotations

import json
import math
import os
import queue
import resource
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Mapping

from repro.errors import FaultError, ReproError
from repro.obs import trace as _obs
from repro.util.atomic import atomic_write_text
from repro.util.deadline import DeadlineExceeded, deadline
from repro.util.workers import FORK_LOCK, WorkerSlot

from .base import ExperimentResult

__all__ = [
    "ExperimentOutcome",
    "SuiteResult",
    "run_suite",
    "check_budgets",
    "profile_lines",
    "bench_record",
    "write_bench_json",
]


@dataclass(frozen=True)
class ExperimentOutcome:
    """One experiment's fate: its result or why it has none.

    ``status`` is ``"ok"`` (``result`` is set), ``"skipped"`` (an
    expected :class:`~repro.errors.ReproError`/:class:`ValueError`,
    e.g. a small trace starving an analysis; ``message`` is ``str(error)``)
    or ``"error"`` (an isolated crash, a timeout, or a worker lost
    beyond its retry budget; ``message`` says which).
    ``max_rss_kb`` is a peak resident set from ``getrusage``,
    normalized to KiB on every platform (Linux reports KiB natively,
    macOS reports bytes).  ``rss_scope`` says what that peak covers:
    ``"worker"`` — the worker process that ran this experiment — or
    ``"process"`` — the whole supervisor, when the experiment ran
    in-process (``jobs=1``), where the number is a shared monotonic
    high-water mark, *not* this experiment's own footprint.
    ``attempt`` is the dispatch number that produced this outcome
    (``2`` means the first worker died and the retry succeeded).  ``spans`` carries trace spans recorded in
    the worker when the suite ran with tracing on; the supervisor
    merges them into the active recorder and they are never journaled.
    """

    experiment_id: str
    status: str
    result: ExperimentResult | None
    message: str
    seconds: float
    max_rss_kb: int
    attempt: int = 1
    rss_scope: str = "worker"
    spans: tuple = ()


@dataclass(frozen=True)
class SuiteResult:
    """All outcomes of one suite run, in requested order.

    ``interrupted`` is True when the run was cut short (SIGINT/SIGTERM)
    and ``outcomes`` holds only what finished before the interrupt.
    """

    outcomes: tuple[ExperimentOutcome, ...]
    jobs: int
    total_seconds: float
    interrupted: bool = False

    @cached_property
    def _by_id(self) -> dict[str, ExperimentOutcome]:
        return {outcome.experiment_id: outcome for outcome in self.outcomes}

    def outcome(self, experiment_id: str) -> ExperimentOutcome:
        """O(1) lookup of one experiment's outcome by ID."""
        try:
            return self._by_id[experiment_id]
        except KeyError:
            raise KeyError(f"no outcome for {experiment_id!r}") from None


def _peak_rss_kb() -> int:
    """Peak resident set of this process in KiB, on every platform.

    ``getrusage`` reports ``ru_maxrss`` in KiB on Linux but in *bytes*
    on macOS — normalizing at the one call site keeps every journal,
    bench record, and report comparable across platforms.
    """
    raw = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        return raw // 1024
    return raw


def _run_one(
    experiment_id: str,
    dataset,
    timeout: float | None = None,
    attempt: int = 1,
    trace: bool = False,
    in_worker: bool = False,
) -> ExperimentOutcome:
    """Run one experiment with isolation, timing, and RSS accounting.

    The one function a suite worker calls per experiment, and the
    in-process ``jobs=1`` path.  ``in_worker`` fixes the RSS scope: a
    worker's ``ru_maxrss`` is (approximately) this experiment's own
    peak, while in-process it is the whole supervisor's shared
    high-water mark and is labelled as such.  With ``trace=True`` in a
    worker, a process-local recorder captures the experiment's spans
    and ships them back on the outcome; in-process, spans flow straight
    into the supervisor's active recorder.
    """
    from repro.experiments import run_experiment
    from repro.faults.plan import apply_process_faults

    recorder = None
    if trace and (in_worker or _obs.active() is None):
        # A worker always starts fresh: the forked child inherits the
        # supervisor's recorder, and spans added to that copy would be
        # silently discarded.
        recorder = _obs.install(_obs.TraceRecorder())
    started = time.perf_counter()
    try:
        with deadline(timeout):
            with _obs.span("experiment", id=experiment_id, attempt=attempt):
                # Deterministic chaos (kill/hang/slow) fires here, inside
                # the timeout window, so drills exercise the same
                # supervision paths real failures would.
                apply_process_faults(experiment_id, attempt)
                result = run_experiment(experiment_id, dataset)
        status, message = "ok", ""
    except DeadlineExceeded:
        result, status = None, "error"
        message = f"timeout: exceeded {timeout:g}s"
    except FaultError as error:
        # A misspelled REPRO_PROCESS_FAULTS spec must surface, not be
        # mistaken for a data-starved skip.
        result, status, message = None, "error", repr(error)
    except (ReproError, ValueError) as error:
        # Small traces legitimately starve some experiments (too few
        # failures per family, too few interruption intervals, ...).
        result, status, message = None, "skipped", str(error)
    except Exception as error:  # noqa: BLE001 - isolate experiment crashes
        result, status, message = None, "error", repr(error)
    spans: tuple = ()
    if recorder is not None:
        _obs.uninstall()
        spans = tuple(recorder.spans)
    return ExperimentOutcome(
        experiment_id=experiment_id,
        status=status,
        result=result,
        message=message,
        seconds=time.perf_counter() - started,
        max_rss_kb=_peak_rss_kb(),
        attempt=attempt,
        rss_scope="worker" if in_worker else "process",
        spans=spans,
    )


def _run_in_worker(job: tuple, dataset) -> ExperimentOutcome:
    """A suite worker's job function: ``job`` is ``(id, attempt,
    timeout, trace)``; ``_run_one`` is looked up at call time."""
    experiment_id, attempt, timeout, trace = job
    return _run_one(
        experiment_id, dataset, timeout, attempt, trace, in_worker=True
    )


def _worker_lost(experiment_id: str, attempts: int) -> ExperimentOutcome:
    return ExperimentOutcome(
        experiment_id=experiment_id,
        status="error",
        result=None,
        message=(
            f"worker lost (process died or hung) after {attempts} attempt(s)"
        ),
        seconds=0.0,
        max_rss_kb=0,
        attempt=attempts,
    )


def _run_on_slots(
    dataset,
    pending: list[str],
    *,
    jobs: int,
    timeout: float | None,
    retries: int,
    backoff: float,
    record: Callable[[ExperimentOutcome], None],
    trace: bool = False,
) -> None:
    """Run ``pending`` on ``jobs`` supervised worker slots.

    Each slot's dispatcher thread takes ``(id, attempt)`` pairs from one
    shared queue and runs them with the slot's stall kill at
    ``timeout`` + grace.  A crashed or stalled worker loses only its own
    experiment, which the dispatcher re-queues after
    ``backoff * 2**(attempt-1)`` seconds, or gives up as an ``error``
    outcome once ``1 + retries`` attempts have died.  Outcomes are
    recorded on the calling thread, in completion order.
    """
    todo: queue.Queue = queue.Queue()
    finished: queue.Queue = queue.Queue()
    stop = threading.Event()
    for experiment_id in pending:
        todo.put((experiment_id, 1))

    def dispatch(slot: WorkerSlot) -> None:
        try:
            while True:
                item = todo.get()
                if item is None or stop.is_set():
                    return
                experiment_id, attempt = item
                job = (experiment_id, attempt, timeout, trace)
                verdict = slot.run(job, timeout)
                if verdict.kind == "done":
                    finished.put(verdict.payload)
                elif attempt > retries:
                    finished.put(_worker_lost(experiment_id, attempt))
                elif not stop.wait(backoff * 2 ** (attempt - 1)):
                    todo.put((experiment_id, attempt + 1))
        except Exception as error:  # noqa: BLE001 - e.g. a failed respawn
            finished.put(error)  # fail the suite instead of hanging it

    slots: list[WorkerSlot] = []
    threads: list[threading.Thread] = []
    try:
        for _ in range(jobs):
            slots.append(WorkerSlot(_run_in_worker, dataset))
            threads.append(
                threading.Thread(target=dispatch, args=(slots[-1],), daemon=True)
            )
            threads[-1].start()
        for _ in pending:
            outcome = finished.get()
            if isinstance(outcome, Exception):
                raise outcome
            # Replacement workers fork from the dispatcher threads; the
            # lock keeps them from inheriting a journal append mid-write.
            with FORK_LOCK:
                record(outcome)
    finally:
        # On an interrupt, in-flight experiments are re-run on resume.
        stop.set()
        for slot in slots:
            slot.kill()
        for _ in threads:
            todo.put(None)
        for thread in threads:
            thread.join(timeout=10.0)
        for slot in slots:
            slot.kill()  # a dispatcher may have replaced a killed worker


def check_budgets(*, jobs, timeout, retries, backoff) -> None:
    """Raise ``ValueError`` unless the supervision budgets are usable;
    ``repro-report`` checks its flags with it before any work."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout:g}")
    if not 0 <= backoff < math.inf:
        raise ValueError(f"backoff must be >= 0 seconds, got {backoff:g}")


def run_suite(
    dataset,
    experiment_ids: list[str] | None = None,
    *,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int = 2,
    backoff: float = 0.5,
    completed: Mapping[str, ExperimentOutcome] | None = None,
    on_outcome: Callable[[ExperimentOutcome], None] | None = None,
    trace: bool = False,
) -> SuiteResult:
    """Run experiments (default: all registered) against ``dataset``.

    ``jobs`` caps worker processes (default ``os.cpu_count()``); 1 runs
    everything in-process.  The worker count never exceeds the number
    of experiments.  ``timeout`` bounds each experiment's wall time
    (``None`` = unlimited); ``retries``/``backoff`` govern re-dispatch
    after worker deaths (see :func:`_run_on_slots`).  ``completed``
    supplies already-journaled outcomes to replay instead of re-running
    (the ``--resume`` path), and ``on_outcome`` is invoked once per
    *freshly computed* outcome, in completion order, so a journal can
    be flushed as the suite progresses.  ``trace`` asks workers to
    record per-experiment spans; the supervisor merges shipped spans
    into its active :mod:`repro.obs` recorder as outcomes arrive (a
    no-op when no recorder is installed).

    Raises
    ------
    ValueError
        On ``jobs < 1``, ``retries < 0``, ``timeout <= 0``,
        ``backoff < 0`` (see :func:`check_budgets`), or duplicate
        experiment IDs.
    """
    from repro.experiments import all_experiments

    ids = (
        list(experiment_ids)
        if experiment_ids is not None
        else list(all_experiments())
    )
    duplicates = sorted(eid for eid, n in Counter(ids).items() if n > 1)
    if duplicates:
        raise ValueError(f"duplicate experiment id(s): {duplicates}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    check_budgets(jobs=jobs, timeout=timeout, retries=retries, backoff=backoff)
    jobs = min(jobs, max(len(ids), 1))

    done: dict[str, ExperimentOutcome] = {}
    if completed:
        for experiment_id in ids:
            if experiment_id in completed:
                done[experiment_id] = completed[experiment_id]

    def record(outcome: ExperimentOutcome) -> None:
        if outcome.experiment_id in done:
            return
        done[outcome.experiment_id] = outcome
        recorder = _obs.active()
        if outcome.spans and recorder is not None:
            recorder.absorb(outcome.spans)
        if on_outcome is not None:
            on_outcome(outcome)

    pending = [eid for eid in ids if eid not in done]
    started = time.perf_counter()
    interrupted = False
    try:
        if jobs == 1:
            for experiment_id in pending:
                record(_run_one(experiment_id, dataset, timeout, trace=trace))
        elif pending:
            _run_on_slots(
                dataset,
                pending,
                jobs=min(jobs, len(pending)),
                timeout=timeout,
                retries=retries,
                backoff=backoff,
                record=record,
                trace=trace,
            )
    except KeyboardInterrupt:
        interrupted = True
    return SuiteResult(
        outcomes=tuple(done[eid] for eid in ids if eid in done),
        jobs=jobs,
        total_seconds=time.perf_counter() - started,
        interrupted=interrupted,
    )


def timing_lines(suite: SuiteResult) -> list[str]:
    """Human-readable per-experiment timing block for the report."""
    lines = [
        f"suite: {len(suite.outcomes)} experiments in "
        f"{suite.total_seconds:.3f}s with {suite.jobs} job(s)"
    ]
    for outcome in suite.outcomes:
        # A process-scoped peak is the whole supervisor's high-water
        # mark, not this experiment's own footprint — label it so the
        # numbers are not misread as per-experiment attribution.
        scope = "" if outcome.rss_scope == "worker" else " (process-wide)"
        lines.append(
            f"{outcome.experiment_id}: {outcome.seconds:.3f}s  "
            f"peak-rss {outcome.max_rss_kb / 1024:.1f} MiB{scope}  "
            f"[{outcome.status}]"
        )
    return lines


def profile_lines(
    dataset,
    experiment_ids: list[str] | None = None,
    top: int = 20,
) -> list[str]:
    """Per-experiment cProfile hotspots, top-``top`` by cumulative time.

    Runs each experiment in-process under ``cProfile`` (profiling and
    worker processes don't mix) and returns a readable block per experiment
    — the starting point for the next round of kernel optimization.
    Expected data-starvation errors are reported, not raised, mirroring
    :func:`run_suite`'s isolation.
    """
    import cProfile
    import io
    import pstats

    from repro.experiments import all_experiments, run_experiment

    ids = (
        list(experiment_ids)
        if experiment_ids is not None
        else list(all_experiments())
    )
    lines: list[str] = []
    for experiment_id in ids:
        profiler = cProfile.Profile()
        status = "ok"
        profiler.enable()
        try:
            run_experiment(experiment_id, dataset)
        except (ReproError, ValueError) as error:
            status = f"skipped: {error}"
        except Exception as error:  # noqa: BLE001 - keep profiling the rest
            status = f"error: {error!r}"
        finally:
            profiler.disable()
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        lines.append(f"--- {experiment_id} [{status}] ---")
        # Drop the pstats preamble; keep the header row and entries.
        body = stream.getvalue().splitlines()
        keep = [
            line
            for line in body
            if line.strip()
            and not line.lstrip().startswith(("Ordered by", "List reduced"))
            and "function calls" not in line
        ]
        lines.extend(keep)
        lines.append("")
    return lines


def bench_record(
    suite: SuiteResult,
    dataset=None,
    stages: dict | None = None,
) -> dict:
    """Assemble the ``BENCH_pipeline.json`` record for one suite run.

    ``stages`` carries pipeline-level timings (cold/warm load, ingest
    rates) measured by the caller; the per-experiment section comes
    from the suite itself.
    """
    from repro import __version__

    record: dict = {
        "schema": 1,
        "toolkit_version": __version__,
        "suite": {
            "jobs": suite.jobs,
            "total_seconds": round(suite.total_seconds, 6),
            "n_experiments": len(suite.outcomes),
        },
        "experiments": [
            {
                "id": outcome.experiment_id,
                "status": outcome.status,
                "seconds": round(outcome.seconds, 6),
                "max_rss_kb": outcome.max_rss_kb,
                "rss_scope": outcome.rss_scope,
            }
            for outcome in suite.outcomes
        ],
    }
    if dataset is not None:
        record["dataset"] = {
            "n_days": dataset.n_days,
            "seed": dataset.seed,
            "n_jobs": dataset.jobs.n_rows,
            "n_ras_events": dataset.ras.n_rows,
            "n_tasks": dataset.tasks.n_rows,
            "n_io_profiles": dataset.io.n_rows,
        }
    if stages:
        record["stages"] = stages
    return record


def write_bench_json(path: str | Path, record: dict) -> Path:
    """Write a bench record as pretty-printed JSON, atomically."""
    return atomic_write_text(
        path, json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

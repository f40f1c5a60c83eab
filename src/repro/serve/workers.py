"""Supervised worker processes: crash isolation for the query server.

Every query runs in a worker *process*, never in the daemon itself, so
a poisoned request — one that segfaults numpy, exhausts memory, or is
deliberately killed by an armed chaos plan — costs exactly one worker.
The supervising :class:`WorkerSlot` detects the death (pipe EOF),
reports a typed verdict, and respawns a fresh worker before the next
request, mirroring the batch engine's supervised-pool behavior
(PR 4) in long-lived form.

Deadlines are enforced twice, as in the batch engine:

- inside the worker, :func:`repro.util.deadline.deadline` arms a
  ``SIGALRM`` for the request's *remaining* budget, so a slow query is
  cancelled in place and the worker survives to serve the next one;
- the supervisor polls the result pipe for the same budget plus a
  grace period, and a worker that blows through it (e.g. an armed
  ``hang`` fault blocking ``SIGALRM``) is SIGKILLed and replaced.

Chaos plans travel *per job*, not via the environment: the server
snapshots its armed spec into each job, and the worker applies it with
:class:`repro.faults.ProcessFaultPlan` keyed by the experiment id (or
the mode name for ``ping``/``sleep``/``summary``), so a live server
can be armed and disarmed between requests.

**Dataset sharing.**  A dataset loaded with ``--mode mmap`` is backed
by the columnar arena (:mod:`repro.table.arena`): its tables pickle as
tiny ``(path, table, fingerprint)`` descriptors and every worker —
forked or respawned — attaches the same read-only memory map, so
worker RSS stays O(touched pages) no matter how many workers run or
die.  In-RAM datasets fall back to the older copy-on-write reliance
below, which only helps until a worker is *replaced*.

**Fork-from-threads hazard.**  Workers use the ``fork`` start method
so every worker shares the loaded dataset copy-on-write.  The initial
workers fork before the daemon starts any threads, which is safe; a
*replacement* forks from the fully multithreaded daemon, where a lock
held by another thread at fork time (a journal file append, the import
machinery) is copied *locked* into the child and can deadlock it
(CPython 3.12+ also warns about this pattern).  Two mitigations keep
the window closed in practice:

- :data:`FORK_LOCK` serialises every fork against the daemon's journal
  and trace writes (the server takes the same lock around them), so
  the child can never inherit those locks held;
- :func:`_preload_worker_modules` imports everything ``run_job`` needs
  *before* the fork, so the child never enters the import machinery —
  whose per-module locks a concurrently-importing handler thread could
  hold — for anything but ``sys.modules`` cache hits.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass

from repro.errors import FaultError, ReproError
from repro.util.deadline import DeadlineExceeded, deadline

__all__ = ["FORK_LOCK", "WorkerSlot", "WorkerVerdict", "run_batch", "run_job"]

#: Extra seconds the supervisor waits beyond a job's deadline before
#: declaring the worker wedged and killing it.
SUPERVISOR_GRACE_S = 2.0

#: Held across every worker fork, and by the server around journal and
#: trace writes, so a replacement forked from the multithreaded daemon
#: can never inherit one of those locks in the held state (see the
#: module docstring's fork-from-threads hazard).
FORK_LOCK = threading.Lock()


def _preload_worker_modules() -> None:
    """Import everything ``run_job`` lazily imports, pre-fork.

    Runs in the *parent* before each fork so the child's imports are
    pure ``sys.modules`` cache hits and never contend on import locks
    a handler thread may hold at fork time.
    """
    import repro.experiments  # noqa: F401
    import repro.experiments.journal  # noqa: F401
    import repro.faults.plan  # noqa: F401


@dataclass(frozen=True)
class WorkerVerdict:
    """How one dispatched job ended, as seen by the supervisor.

    ``kind`` is ``"done"`` (``payload`` holds the worker's outcome
    dict), ``"crashed"`` (the worker died mid-job), or ``"stalled"``
    (it exceeded deadline + grace and was killed).  For the latter two
    the worker has already been replaced by the time the verdict is
    returned.
    """

    kind: str
    payload: dict | None = None


def run_job(job: dict, dataset) -> dict:
    """Execute one job dict against ``dataset``; always returns an outcome.

    The outcome dict carries ``outcome`` (``ok`` / ``skipped`` /
    ``deadline_exceeded`` / ``error``), ``message``, ``seconds`` (run
    time inside the worker), and ``result`` (mode-specific payload for
    ``ok``).  Runs inside the worker process, but is also directly
    callable in-process by tests.
    """
    from repro.faults.plan import ProcessFaultPlan

    started = time.perf_counter()
    outcome, message, result = "ok", "", None
    try:
        with deadline(job.get("deadline_s")):
            spec = job.get("chaos_spec") or ""
            if spec:
                # Chaos is keyed like the batch engine: by experiment
                # id, falling back to the mode name so drills can
                # target ping/sleep traffic without a dataset.
                key = job.get("experiment") or job["mode"]
                ProcessFaultPlan.parse(spec).apply(key, job.get("attempt", 1))
            mode = job["mode"]
            if mode == "ping":
                result = None
            elif mode == "sleep":
                time.sleep(float(job.get("seconds", 0.0)))
            elif mode == "summary":
                result = {"summary": dataset.summary()}
            elif mode == "experiment":
                from repro.experiments import run_experiment
                from repro.experiments.journal import result_to_json

                experiment_result = run_experiment(
                    job["experiment"], dataset
                )
                result = result_to_json(experiment_result)
            else:
                outcome, message = "error", f"unknown mode {mode!r}"
    except DeadlineExceeded:
        outcome = "deadline_exceeded"
        message = f"deadline exceeded after {job.get('deadline_s', 0):.3f}s"
        result = None
    except FaultError as error:
        outcome, message, result = "error", repr(error), None
    except (ReproError, ValueError) as error:
        outcome, message, result = "skipped", str(error), None
    except Exception as error:  # noqa: BLE001 - isolate query crashes
        outcome, message, result = "error", repr(error), None
    return {
        "request_id": job.get("request_id", ""),
        "outcome": outcome,
        "message": message,
        "seconds": time.perf_counter() - started,
        "result": result,
    }


def run_batch(job: dict, dataset) -> dict:
    """Execute a folded batch job: sub-jobs back to back, one round-trip.

    The dispatcher folds compatible queued batch-lane requests into
    ``{"mode": "batch", "jobs": [...]}`` so N cheap queries cost one
    pipe send/recv instead of N.  Each sub-job runs through
    :func:`run_job` with its *own* remaining deadline — reduced by the
    time earlier members already spent, so a request's deadline keeps
    covering queue wait *plus* execution even inside a fold — and its
    SIGALRM fires individually, so one slow member times out alone
    without poisoning its batchmates' outcomes.  ``results`` is
    index-aligned with ``jobs``.
    """
    started = time.perf_counter()
    results = []
    for sub in job.get("jobs", ()):
        budget = sub.get("deadline_s")
        if budget is not None:
            budget -= time.perf_counter() - started
            if budget <= 0:
                results.append(
                    {
                        "request_id": sub.get("request_id", ""),
                        "outcome": "deadline_exceeded",
                        "message": (
                            "deadline expired behind earlier batch members"
                        ),
                        "seconds": 0.0,
                        "result": None,
                    }
                )
                continue
            sub = dict(sub, deadline_s=budget)
        results.append(run_job(sub, dataset))
    return {
        "request_id": job.get("request_id", ""),
        "outcome": "ok",
        "message": "",
        "seconds": time.perf_counter() - started,
        "results": results,
    }


def _worker_main(conn, dataset) -> None:
    """Worker process body: serve jobs from the pipe until told to stop."""
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        runner = run_batch if job.get("mode") == "batch" else run_job
        try:
            conn.send(runner(job, dataset))
        except (BrokenPipeError, OSError):
            return


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    # fork shares the loaded dataset copy-on-write — one hot copy for
    # every worker, exactly the "hold the dataset hot" design goal.
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerSlot:
    """One supervised worker process, auto-replaced on crash or stall."""

    def __init__(self, dataset, epoch: int = 0):
        self._dataset = dataset
        self._ctx = _pick_context()
        self.replacements = 0
        #: dataset epoch this slot's worker was forked against; the
        #: dispatcher rebinds lazily when the server advances.
        self.epoch = epoch
        self.rebinds = 0
        self.busy = False
        # Guards the (_process, _conn) pair: kill() may race _replace()
        # (drain-deadline kill vs. the dispatcher's crash recovery),
        # and each must atomically take or install the pair so a kill
        # can never dismantle a replacement it did not target.
        self._state_lock = threading.Lock()
        self._process = None
        self._conn = None
        self._spawn()

    def _spawn(self) -> None:
        _preload_worker_modules()
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._dataset),
            daemon=True,
        )
        with FORK_LOCK:
            process.start()
        child_conn.close()
        with self._state_lock:
            self._process, self._conn = process, parent_conn

    def _replace(self) -> None:
        self.kill()
        self.replacements += 1
        self._spawn()

    def rebind(self, dataset, epoch: int) -> None:
        """Swap to a new dataset epoch: fork a fresh worker against it.

        Called only by the slot's own dispatcher while the slot is
        idle, so no in-flight job is lost.  Counted separately from
        crash ``replacements`` — a rebind is planned, not a failure.
        """
        self._dataset = dataset
        self.epoch = epoch
        self.kill()
        self.rebinds += 1
        self._spawn()

    @property
    def alive(self) -> bool:
        process = self._process  # snapshot: kill() nulls it concurrently
        return process is not None and process.is_alive()

    def run(self, job: dict, budget_s: float) -> WorkerVerdict:
        """Dispatch ``job`` and supervise it for ``budget_s`` + grace.

        Exactly one of the three verdict kinds comes back, and the
        slot is guaranteed to hold a live, idle worker afterwards.
        """
        self.busy = True
        try:
            # Snapshot the pipe once: a concurrent kill() (the drain
            # deadline killing busy workers) nulls self._conn, and the
            # snapshot keeps that from surfacing as an AttributeError
            # mid-poll — the closed pipe raises OSError instead, which
            # lands in the ordinary crash path below.
            conn = self._conn
            if conn is None:
                self._replace()
                return WorkerVerdict("crashed")
            try:
                conn.send(job)
            except (BrokenPipeError, OSError):
                self._replace()
                return WorkerVerdict("crashed")
            wait_s = max(budget_s, 0.0) + SUPERVISOR_GRACE_S
            try:
                if not conn.poll(wait_s):
                    self._replace()
                    return WorkerVerdict("stalled")
                payload = conn.recv()
            except (EOFError, OSError):
                self._replace()
                return WorkerVerdict("crashed")
            return WorkerVerdict("done", payload)
        finally:
            self.busy = False

    def kill(self) -> None:
        """Forcibly end the worker process and close its pipe.

        Takes ownership of the (process, pipe) pair atomically, so a
        concurrent :meth:`_replace` installing a fresh worker is never
        half-dismantled — whichever caller pops the pair dismantles
        exactly that worker and nothing newer.
        """
        with self._state_lock:
            process, conn = self._process, self._conn
            self._process, self._conn = None, None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=5.0)

    def close(self, timeout: float = 1.0) -> None:
        """Ask the worker to exit; escalate to kill after ``timeout``."""
        with self._state_lock:
            process, conn = self._process, self._conn
        if conn is not None:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        if process is not None:
            process.join(timeout=timeout)
        self.kill()

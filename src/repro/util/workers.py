"""Supervised worker processes: the toolkit's one process supervisor.

``repro-report --jobs N`` runs its experiment suite on these slots
(:mod:`repro.experiments.engine`) and ``repro-serve`` runs its queries
on them (:mod:`repro.serve.workers`).  Each owner passes the job
function its workers call, ``run(job, dataset) -> payload``.  A
:class:`WorkerSlot` pipes ``job`` to its forked worker and returns a
typed :class:`WorkerVerdict`: a worker that dies mid-job is seen by
pipe EOF, one silent past its budget + :data:`SUPERVISOR_GRACE_S` is
SIGKILLed (the in-worker ``SIGALRM`` deadline is the first line, this
the backstop), and either way the slot forks a fresh worker, so a
crash costs exactly the job in flight.

Workers fork, so each inherits the owner's dataset copy-on-write and
nothing is pickled on the way in (an arena-backed ``--mode mmap``
dataset maps the same read-only pages in every worker).  A worker
whose owner is gone exits by itself: an idle one within
:data:`ORPHAN_CHECK_S`, a busy one when its job ends.  Pipe EOF cannot
tell it, because every later-forked worker holds a copy of this pipe's
owner end.

Replacements fork from a multithreaded owner, where a lock another
thread holds at fork time is copied *locked* into the child.
:data:`FORK_LOCK` serialises every fork against the owners' journal and
trace writes and against other slots' forks (so no worker inherits
another pipe's child end and hides that worker's death), and
:func:`_preload_worker_modules` keeps the child out of the import
machinery.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["FORK_LOCK", "SUPERVISOR_GRACE_S", "WorkerSlot", "WorkerVerdict"]

#: Extra seconds the supervisor waits beyond a job's budget before
#: declaring the worker wedged and killing it.
SUPERVISOR_GRACE_S = 2.0

#: How often an idle worker checks that its owner still lives.
ORPHAN_CHECK_S = 1.0

#: Held across every worker fork, and by the owners around journal and
#: trace writes (see the module docstring).
FORK_LOCK = threading.Lock()


def _preload_worker_modules() -> None:
    """Import everything the job functions lazily import, pre-fork, so
    the child's imports are ``sys.modules`` hits and never contend on
    import locks another thread may hold at fork time."""
    import repro.experiments  # noqa: F401
    import repro.experiments.journal  # noqa: F401
    import repro.faults.plan  # noqa: F401


@dataclass(frozen=True)
class WorkerVerdict:
    """How one dispatched job ended, as seen by the supervisor.

    ``kind`` is ``"done"`` (``payload`` holds what the job function
    returned), ``"crashed"`` (the worker died mid-job), or
    ``"stalled"`` (it exceeded budget + grace and was killed).  For
    the latter two the worker has already been replaced by the time
    the verdict is returned.
    """

    kind: str
    payload: Any = None


def _worker_main(conn, peer, run, dataset, owner: int) -> None:
    """Worker process body: run jobs from the pipe until told to stop.

    ``peer`` is this worker's inherited copy of the owner's pipe end;
    closing it lets a send fail once every real holder is gone.
    """
    peer.close()
    while True:
        try:
            while not conn.poll(ORPHAN_CHECK_S):
                if os.getppid() != owner:
                    return
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        try:
            conn.send(run(job, dataset))
        except OSError:
            return


def _pick_context():
    # fork shares the loaded dataset copy-on-write: one hot copy for
    # every worker.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerSlot:
    """One supervised worker process running ``run(job, dataset)``,
    auto-replaced on crash or stall."""

    def __init__(self, run: Callable[[Any, Any], Any], dataset, epoch: int = 0):
        self._run = run
        self._dataset = dataset
        self._ctx = _pick_context()
        self.replacements = 0
        #: dataset epoch this slot's worker was forked against; the
        #: owner rebinds lazily when its dataset advances.
        self.epoch = epoch
        self.rebinds = 0
        self.busy = False
        # Guards the (_process, _conn) pair: kill() may race _replace()
        # (an owner's shutdown kill vs. the dispatcher's crash
        # recovery), and each must atomically take or install the pair
        # so a kill can never dismantle a replacement it did not target.
        self._state_lock = threading.Lock()
        self._process = None
        self._conn = None
        self._spawn()

    def _spawn(self) -> None:
        _preload_worker_modules()
        with FORK_LOCK:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_main,
                args=(child_conn, parent_conn, self._run, self._dataset,
                      os.getpid()),
                daemon=True,
            )
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

    def run(self, job, budget_s: float | None) -> WorkerVerdict:
        """Dispatch ``job`` and supervise it for ``budget_s`` + grace
        (``None``: no limit).

        Exactly one of the three verdict kinds comes back, and the
        slot is guaranteed to hold a live, idle worker afterwards.
        """
        self.busy = True
        try:
            # Snapshot the pipe once: a concurrent kill() nulls
            # self._conn, and the closed snapshot raises OSError, which
            # lands in the crash path below.
            conn = self._conn
            wait_s = None
            if budget_s is not None:
                wait_s = max(budget_s, 0.0) + SUPERVISOR_GRACE_S
            try:
                if conn is None:
                    raise OSError("worker was killed")
                conn.send(job)
                if conn.poll(wait_s):
                    return WorkerVerdict("done", conn.recv())
                kind = "stalled"
            except (EOFError, OSError):
                kind = "crashed"
            self._replace()
            return WorkerVerdict(kind)
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
            except OSError:
                pass
        if process is not None:
            process.join(timeout=timeout)
        self.kill()

"""Wall-clock deadlines shared by the batch engine and the query server.

Two tools, one contract:

- :func:`deadline` — a context manager arming a real-time ``SIGALRM``
  that raises :class:`DeadlineExceeded` inside the block when the
  budget runs out.  This is the in-process cancellation mechanism the
  batch experiment engine has always used for ``--timeout`` (extracted
  here verbatim so ``repro-serve`` workers enforce per-request
  deadlines with the identical machinery): the alarm interrupts pure
  Python and most C extensions, so a slow experiment is *cancelled*,
  not abandoned.  It degrades to a no-op when no budget is given, on
  platforms without ``SIGALRM``, or off the main thread (signals can
  only be armed there) — callers needing a hard guarantee pair it with
  a supervisor-side kill, as the worker slots both the engine and the
  server run on do (:mod:`repro.util.workers`).
- :class:`Deadline` — a monotonic-clock expiry value for *propagating*
  a budget across queues and process boundaries: make one when a
  request is admitted, ask :meth:`Deadline.remaining` when it is
  finally dispatched, and the time it spent queued has already been
  charged against it.
"""

from __future__ import annotations

import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Deadline", "DeadlineExceeded", "deadline"]


class DeadlineExceeded(Exception):
    """A deadline armed with :func:`deadline` expired inside the block.

    Deliberately *not* a :class:`~repro.errors.ReproError`: callers
    that map expected toolkit errors to "skipped" must classify an
    exhausted budget separately (the engine reports it as an ``error``
    outcome, the server as a ``deadline_exceeded`` response).
    """


@contextmanager
def deadline(seconds: float | None):
    """Arm a real-time alarm that raises :class:`DeadlineExceeded`.

    A no-op when ``seconds`` is ``None``, on platforms without
    ``SIGALRM``, or off the main thread.  The previous handler and any
    previous itimer are restored on exit, so nested arming is safe as
    long as the outer budget exceeds the inner one.
    """
    usable = (
        seconds is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry on the monotonic clock.

    ``budget`` is the original allowance in seconds; ``expires_at`` is
    the :func:`time.monotonic` instant it runs out.  Queue wait and
    execution share one budget: however long a request sat before
    dispatch, :meth:`remaining` returns only what is left.
    """

    expires_at: float
    budget: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(expires_at=time.monotonic() + seconds, budget=seconds)

    def remaining(self) -> float:
        """Seconds left, clamped at zero."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

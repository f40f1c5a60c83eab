"""The worker supervisor outlives no owner: orphaned workers exit."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_OWNER = """
import time
from repro.util.workers import WorkerSlot

def nap(seconds, dataset):
    time.sleep(seconds)
    return seconds

idle = WorkerSlot(nap, None)
busy = WorkerSlot(nap, None)
print(idle._process.pid, busy._process.pid, flush=True)
busy.run(30.0, None)
"""


def _alive(pid: int) -> bool:
    """Running, not a zombie (a zombie's command line is empty)."""
    try:
        return bool(Path(f"/proc/{pid}/cmdline").read_bytes())
    except OSError:
        return False


class TestOrphanedWorkers:
    def test_idle_worker_exits_after_its_owner_is_sigkilled(self):
        # The busy, newer worker holds a copy of the idle one's pipe
        # end, so the idle worker never sees EOF: it must notice that
        # its owner is gone by itself.
        owner = subprocess.Popen(
            [sys.executable, "-c", _OWNER],
            stdout=subprocess.PIPE,
            text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
            time.sleep(0.5)  # the busy worker is asleep inside its job
            owner.send_signal(signal.SIGKILL)
            owner.wait(timeout=10.0)
            idle = pids[0]
            deadline = time.monotonic() + 5.0
            while _alive(idle) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert not _alive(idle)
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

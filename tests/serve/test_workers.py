"""WorkerSlot supervision: the kill/run race and fork hygiene."""

import threading
import time

from repro.serve.workers import FORK_LOCK, WorkerSlot, run_request


class TestKillDuringRun:
    def test_concurrent_kill_yields_a_typed_verdict(self):
        # Regression: kill() nulling the pipe while the dispatcher was
        # inside run() used to raise AttributeError past the
        # (EOFError, OSError) handlers, killing the dispatcher thread
        # and leaving its ticket to the slow HTTP-side backstop.
        slot = WorkerSlot(run_request, None)
        verdicts, errors = [], []

        def dispatch():
            try:
                verdicts.append(
                    slot.run(
                        {"mode": "sleep", "seconds": 30.0,
                         "deadline_s": 40.0},
                        40.0,
                    )
                )
            except BaseException as error:  # noqa: BLE001 - the regression
                errors.append(error)

        thread = threading.Thread(target=dispatch, daemon=True)
        thread.start()
        time.sleep(0.3)  # the worker is asleep inside the job
        slot.kill()
        thread.join(timeout=10.0)
        try:
            assert not thread.is_alive()
            assert errors == []
            assert len(verdicts) == 1
            assert verdicts[0].kind in ("crashed", "stalled")
            # The crash path replaced the worker; the slot serves again.
            assert slot.alive
        finally:
            slot.close()

    def test_run_on_a_killed_slot_reports_crashed(self):
        slot = WorkerSlot(run_request, None)
        slot.kill()
        try:
            verdict = slot.run({"mode": "ping", "deadline_s": 2.0}, 2.0)
            assert verdict.kind == "crashed"
            assert slot.alive  # auto-replaced
        finally:
            slot.close()


class TestForkHygiene:
    def test_spawn_serialises_against_the_fork_lock(self):
        # A journal/trace write holding FORK_LOCK must exclude the
        # fork, so the child can never inherit it held.
        with FORK_LOCK:
            spawned = []
            thread = threading.Thread(
                target=lambda: spawned.append(WorkerSlot(run_request, None)),
                daemon=True,
            )
            thread.start()
            time.sleep(0.4)
            assert not spawned  # blocked on the lock, as designed
        thread.join(timeout=10.0)
        assert spawned
        try:
            assert spawned[0].run({"mode": "ping"}, 2.0).kind == "done"
        finally:
            spawned[0].close()

"""End-to-end crash drill: SIGKILL a journaled run, resume, compare bytes.

A parallel ``repro-report`` run killed mid-suite must resume from its
journal without re-running finished experiments, and the resumed report
must be byte-identical to an uninterrupted run over the same dataset.
Neither a SIGKILLed nor a SIGTERMed supervisor may leave idle workers
behind.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main_report
from repro.faults import PROCESS_FAULT_ENV

IDS = ["e01", "e02", "e03", "e05"]
DAYS, SEED = "4", "9"

_CHILD = """
import sys
from repro.cli import main_report
sys.exit(main_report({argv!r}))
"""


def _workers_of(run_id: str) -> list[int]:
    """Live pids whose command line names ``run_id``: the supervisor and
    its forked workers, which keep its argv (zombies have none)."""
    marker = f"'--run-id', '{run_id}'".encode()
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and marker in (entry / "cmdline").read_bytes():
                pids.append(int(entry.name))
        except OSError:
            continue
    return pids


def _kill_all(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _count_outcomes(journal_path: Path) -> int:
    if not journal_path.exists():
        return 0
    n = 0
    for line in journal_path.read_text().splitlines():
        try:
            n += json.loads(line).get("kind") == "outcome"
        except json.JSONDecodeError:
            continue
    return n


@pytest.fixture()
def runs_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    # conftest already points REPRO_RUNS_DIR at tmp_path / "runs"
    return Path(os.environ["REPRO_RUNS_DIR"])


class TestKillResume:
    def test_sigkilled_run_resumes_byte_identical(self, runs_root, capsys):
        # 1. the reference: an uninterrupted run
        argv = ["--days", DAYS, "--seed", SEED, "--jobs", "2", "--experiments"]
        assert main_report(argv + IDS + ["--run-id", "clean"]) == 0
        capsys.readouterr()
        clean_report = (runs_root / "clean" / "report.txt").read_bytes()

        # 2. the drill: same run, slowed on its last experiment and
        #    SIGKILLed once most of the suite is journaled
        env = dict(os.environ)
        env[PROCESS_FAULT_ENV] = "slow:e05:120"
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD.format(
                    argv=argv + IDS + ["--run-id", "drill", "--timeout", "300"]
                ),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal_path = runs_root / "drill" / "journal.jsonl"
        deadline = time.monotonic() + 120.0
        try:
            while _count_outcomes(journal_path) < len(IDS) - 1:
                assert child.poll() is None, "drill run exited before the kill"
                assert time.monotonic() < deadline, "drill never journaled outcomes"
                time.sleep(0.1)
        finally:
            child.kill()
            child.wait()

        journaled_before = _count_outcomes(journal_path)
        assert journaled_before == len(IDS) - 1

        # Orphaned by the SIGKILL, the idle worker exits on its own; only
        # the one sleeping in the slowed e05 may still be alive.
        deadline = time.monotonic() + 5.0
        try:
            while len(_workers_of("drill")) > 1 and time.monotonic() < deadline:
                time.sleep(0.1)
            assert len(_workers_of("drill")) <= 1
        finally:
            _kill_all(_workers_of("drill"))

        # 3. resume (faults disarmed): only the lost experiment reruns
        assert main_report(["--resume", "drill"]) == 0
        capsys.readouterr()
        assert _count_outcomes(journal_path) == len(IDS)

        drill_report = (runs_root / "drill" / "report.txt").read_bytes()
        assert drill_report == clean_report

    def test_sigterm_interrupts_parallel_suite_and_resumes(self, runs_root, capsys):
        argv = ["--days", DAYS, "--seed", SEED, "--jobs", "2", "--experiments"]
        env = dict(os.environ)
        env[PROCESS_FAULT_ENV] = "slow:e05:30"
        child = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _CHILD.format(argv=argv + IDS + ["--run-id", "sigterm"]),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        journal_path = runs_root / "sigterm" / "journal.jsonl"
        deadline = time.monotonic() + 120.0
        try:
            while _count_outcomes(journal_path) < len(IDS) - 1:
                assert child.poll() is None, "run exited before the SIGTERM"
                assert time.monotonic() < deadline, "run never journaled outcomes"
                time.sleep(0.1)
            child.send_signal(signal.SIGTERM)
            assert child.wait(timeout=10.0) == 130
            assert _workers_of("sigterm") == []
        finally:
            child.kill()
            child.wait()
            _kill_all(_workers_of("sigterm"))

        records = [json.loads(line) for line in journal_path.read_text().splitlines()]
        assert _count_outcomes(journal_path) == len(IDS) - 1
        assert records[-1]["kind"] == "end"
        assert records[-1]["status"] == "interrupted"

        assert main_report(["--resume", "sigterm"]) == 0
        capsys.readouterr()
        assert _count_outcomes(journal_path) == len(IDS)

    def test_resume_of_complete_run_recomputes_nothing(self, runs_root, capsys):
        argv = [
            "--days", DAYS, "--seed", SEED, "--jobs", "1",
            "--experiments", "e01", "--run-id", "done",
        ]
        assert main_report(argv) == 0
        journal_path = runs_root / "done" / "journal.jsonl"
        assert _count_outcomes(journal_path) == 1
        capsys.readouterr()
        assert main_report(["--resume", "done"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out
        assert _count_outcomes(journal_path) == 1  # replayed, not re-run

"""Tests for the report renderer and the CLI entry points."""

import pytest

from repro.cli import main_analyze, main_gen, main_report
from repro.core.report import render_report
from repro.dataset import MiraDataset


@pytest.fixture(scope="module")
def dataset():
    return MiraDataset.synthesize(n_days=15.0, seed=77)


class TestReport:
    def test_subset_render(self, dataset):
        text = render_report(dataset, experiment_ids=["e01", "e03"])
        assert "E01" in text and "E03" in text and "E13" not in text

    def test_header_mentions_span(self, dataset):
        text = render_report(dataset, experiment_ids=["e01"])
        assert "15 days" in text


class TestCliGen:
    def test_writes_dataset(self, tmp_path, capsys):
        rc = main_gen([str(tmp_path / "ds"), "--days", "5", "--seed", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs" in out
        loaded = MiraDataset.load(tmp_path / "ds")
        assert loaded.n_days == 5


class TestCliAnalyze:
    def test_synthesize_on_the_fly(self, capsys):
        rc = main_analyze(["e02", "--days", "5", "--seed", "3"])
        assert rc == 0
        assert "failure_rate" in capsys.readouterr().out

    def test_load_from_dir(self, tmp_path, capsys):
        main_gen([str(tmp_path / "ds"), "--days", "5", "--seed", "4"])
        capsys.readouterr()
        rc = main_analyze(["e01", "--dataset", str(tmp_path / "ds")])
        assert rc == 0
        assert "overview" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main_analyze(["e99", "--days", "1"])


class TestCliReport:
    def test_report_subset(self, capsys):
        rc = main_report(["--days", "5", "--seed", "5", "--experiments", "e01", "e02"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E01" in out and "E02" in out


class TestCliReportJournal:
    def test_run_directory_written(self, tmp_path, capsys):
        rc = main_report(
            ["--days", "4", "--seed", "8", "--experiments", "e01",
             "--run-dir", str(tmp_path / "runs"), "--run-id", "r1"]
        )
        assert rc == 0
        run_dir = tmp_path / "runs" / "r1"
        assert (run_dir / "journal.jsonl").exists()
        report = (run_dir / "report.txt").read_text()
        assert report == capsys.readouterr().out

    def test_no_journal_writes_nothing(self, tmp_path, capsys):
        rc = main_report(
            ["--days", "4", "--seed", "8", "--experiments", "e01",
             "--run-dir", str(tmp_path / "runs"), "--no-journal"]
        )
        assert rc == 0
        assert not (tmp_path / "runs").exists()

    def test_resume_conflicts_with_no_journal(self):
        with pytest.raises(SystemExit):
            main_report(["--resume", "r1", "--no-journal"])

    def test_resume_unknown_run_exits_1(self, capsys):
        assert main_report(["--resume", "no-such-run"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_resume_refuses_fingerprint_mismatch(self, tmp_path, capsys):
        import json

        runs = tmp_path / "runs"
        rc = main_report(
            ["--days", "4", "--seed", "8", "--experiments", "e01",
             "--run-dir", str(runs), "--run-id", "r1"]
        )
        assert rc == 0
        capsys.readouterr()
        # tamper with the journaled dataset identity
        journal = runs / "r1" / "journal.jsonl"
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["fingerprint"] = "0" * 64
        journal.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        assert main_report(["--run-dir", str(runs), "--resume", "r1"]) == 1
        out = capsys.readouterr().out
        assert "fingerprint mismatch" in out

    @pytest.mark.parametrize(
        "ids, message",
        [(["e01", "e01"], "listed twice: e01"), (["e01", "e99"], "unknown")],
    )
    def test_bad_experiment_ids_exit_2_before_any_work(
        self, ids, message, tmp_path, capsys, monkeypatch
    ):
        import repro.cli

        def no_load(args):
            raise AssertionError("dataset loaded before ids were checked")

        monkeypatch.setattr(repro.cli, "_load_or_synthesize", no_load)
        with pytest.raises(SystemExit) as excinfo:
            main_report(
                ["--days", "4", "--seed", "8", "--experiments", *ids,
                 "--run-dir", str(tmp_path / "runs"), "--run-id", "bad"]
            )
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_duplicate_run_id_exits_1(self, tmp_path, capsys):
        argv = ["--days", "4", "--seed", "8", "--experiments", "e01",
                "--run-dir", str(tmp_path / "runs"), "--run-id", "r1"]
        assert main_report(argv) == 0
        capsys.readouterr()
        assert main_report(argv) == 1
        assert "already exists" in capsys.readouterr().out


class TestCliReportExitCodes:
    @pytest.fixture()
    def crashing_experiment(self):
        from repro.experiments.base import _REGISTRY, register

        @register("zz_crash", "always crashes")
        def _run(dataset):
            raise RuntimeError("kaboom")

        yield "zz_crash"
        _REGISTRY.pop("zz_crash")

    def test_errored_experiment_exits_1(self, crashing_experiment, capsys):
        rc = main_report(
            ["--days", "4", "--seed", "8", "--jobs", "1",
             "--experiments", "e01", crashing_experiment]
        )
        assert rc == 1
        # the report still renders; the nonzero exit is the contract
        assert "E01" in capsys.readouterr().out

    def test_allow_errors_downgrades_to_0(self, crashing_experiment, capsys):
        rc = main_report(
            ["--days", "4", "--seed", "8", "--jobs", "1",
             "--experiments", "e01", crashing_experiment, "--allow-errors"]
        )
        assert rc == 0

    def test_exit_code_contract_documented(self, capsys):
        with pytest.raises(SystemExit):
            main_report(["--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out and "130" in out


class TestCliChaosProcessFaults:
    def test_spec_printed_for_arming(self, capsys):
        from repro.cli import main_chaos

        assert main_chaos(["--process-faults", "kill_worker:e03"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "REPRO_PROCESS_FAULTS=kill_worker:e03:1"

    def test_bad_spec_rejected(self, capsys):
        from repro.cli import main_chaos

        assert main_chaos(["--process-faults", "explode:e01"]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_list_includes_process_kinds(self, capsys):
        from repro.cli import main_chaos

        assert main_chaos(["--list"]) == 0
        out = capsys.readouterr().out
        assert "kill_worker (process-level)" in out


class TestCliValidate:
    def test_valid_dataset(self, tmp_path, capsys):
        from repro.cli import main_validate

        main_gen([str(tmp_path / "ds"), "--days", "4", "--seed", "6"])
        capsys.readouterr()
        rc = main_validate([str(tmp_path / "ds")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK:" in out and "occupancy: ok" in out

    def test_corrupted_dataset(self, tmp_path, capsys):
        from repro.cli import main_validate

        main_gen([str(tmp_path / "ds"), "--days", "4", "--seed", "6"])
        (tmp_path / "ds" / "tasks.csv").unlink()
        capsys.readouterr()
        rc = main_validate([str(tmp_path / "ds")])
        assert rc == 1
        assert "INVALID" in capsys.readouterr().out


class TestGracefulDegradation:
    def test_report_survives_starved_experiments(self, capsys):
        """A 5-day trace starves e19 (too few intervals); the report must
        render every other experiment and note the skip."""
        rc = main_report(["--days", "5", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "E19 == skipped" in out
        assert "E16" in out  # the rest still render

    def test_export_omits_starved_experiments(self, tmp_path):
        from repro.dataset import MiraDataset
        from repro.experiments import export_all

        dataset = MiraDataset.synthesize(n_days=5.0, seed=3)
        written = export_all(dataset, tmp_path / "out", experiment_ids=["e01", "e19"])
        names = {p.name for p in written}
        assert "e01.md" in names
        assert "e19.md" not in names

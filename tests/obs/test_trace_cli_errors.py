"""Regression tests: repro-trace must answer bad inputs with typed
errors that name the failing operand, never a traceback.

Follow-up to the serve work: server traces made ``diff`` a routine
two-file operation, and a half-written or binary operand used to
escape as ``UnicodeDecodeError``/``IsADirectoryError`` tracebacks.
"""

import pytest

from repro.obs.cli import main_trace
from repro.obs.trace import TraceRecorder


@pytest.fixture()
def good_trace(tmp_path):
    recorder = TraceRecorder()
    with recorder.start_span("work", {}):
        pass
    path = tmp_path / "good.jsonl"
    recorder.write(path, run_id="good")
    return str(path)


def run(capsys, *argv):
    rc = main_trace(list(argv))
    captured = capsys.readouterr()
    return rc, captured.err + captured.out


class TestDiffOperandErrors:
    def test_empty_candidate_names_the_side(self, good_trace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        rc, out = run(capsys, "diff", good_trace, str(empty))
        assert rc == 1
        assert "INVALID:" in out
        assert "candidate" in out
        assert "empty trace" in out

    def test_empty_baseline_names_the_side(self, good_trace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.touch()
        rc, out = run(capsys, "diff", str(empty), good_trace)
        assert rc == 1
        assert "baseline" in out
        assert "empty trace" in out

    def test_missing_run_header_is_typed(self, good_trace, tmp_path, capsys):
        headerless = tmp_path / "headerless.jsonl"
        headerless.write_text(
            '{"kind": "span", "id": 0, "parent": null, "name": "x", '
            '"start": 0.0, "seconds": 1.0, "depth": 0, "pid": 1, '
            '"attrs": {}}\n'
        )
        rc, out = run(capsys, "diff", good_trace, str(headerless))
        assert rc == 1
        assert "INVALID:" in out
        assert "candidate" in out
        assert "header" in out

    def test_binary_file_is_typed_not_a_unicode_traceback(
        self, good_trace, tmp_path, capsys
    ):
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\x80\x81\x82 not text")
        rc, out = run(capsys, "diff", good_trace, str(binary))
        assert rc == 1
        assert "candidate" in out
        assert "not a text file" in out

    def test_missing_file_is_typed(self, good_trace, tmp_path, capsys):
        rc, out = run(
            capsys, "diff", good_trace, str(tmp_path / "absent.jsonl")
        )
        assert rc == 1
        assert "candidate" in out
        assert "no such file" in out

    def test_directory_operand_is_typed(self, good_trace, tmp_path, capsys):
        trap = tmp_path / "trap.jsonl"
        trap.mkdir()
        rc, out = run(capsys, "diff", good_trace, str(trap))
        assert rc == 1
        assert "unreadable" in out


class TestOtherCommandsShareTheHardening:
    def test_summarize_binary_file(self, tmp_path, capsys):
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe")
        rc, out = run(capsys, "summarize", str(binary))
        assert rc == 1
        assert "not a text file" in out

    def test_validate_binary_file(self, tmp_path, capsys):
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe")
        rc, out = run(capsys, "validate", str(binary))
        assert rc == 1
        assert "not a text file" in out


class TestDiffStillDiffs:
    def test_two_good_traces_diff_cleanly(self, good_trace, capsys):
        rc, out = run(capsys, "diff", good_trace, good_trace)
        assert rc == 0
        assert "work" in out


class TestBoundsRejected:
    """Bounds that would print a wrong table or a wrong verdict exit 2."""

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_summarize_top_below_one(self, good_trace, top, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_trace(["summarize", good_trace, "--top", top])
        assert excinfo.value.code == 2
        assert "--top must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["0.5", "0", "-1.5", "nan"])
    def test_diff_fail_above_below_one(self, good_trace, ratio, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main_trace(["diff", good_trace, good_trace, "--fail-above", ratio])
        assert excinfo.value.code == 2
        assert "--fail-above" in capsys.readouterr().err

    def test_boundary_values_are_accepted(self, good_trace, capsys):
        assert main_trace(["summarize", good_trace, "--top", "1"]) == 0
        assert (
            main_trace(["diff", good_trace, good_trace, "--fail-above", "1"])
            == 0
        )

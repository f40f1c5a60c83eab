"""The ``repro-trace`` command: inspect traces written by ``--trace``.

Three subcommands over ``results/runs/<run-id>/trace.jsonl``:

- ``summarize RUN_ID`` — top span names by self time + counter totals;
- ``diff RUN_A RUN_B`` — per-span regression table between two runs
  (``--fail-above 1.5`` turns it into a gate that exits 1, the manual
  counterpart of the CI e03 wall-time check);
- ``validate RUN_ID`` — schema-check every trace.jsonl line (what the
  CI trace-smoke job runs).

A run argument may also be a direct path to a ``.jsonl`` file, so
traces copied out of CI artifacts diff against local ones.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs.schema import TraceSchemaError, validate_file
from repro.obs.summary import diff_lines, load_trace, summarize_lines

__all__ = ["main_trace", "trace_path"]

TRACE_NAME = "trace.jsonl"


def trace_path(runs_root: Path, run: str) -> Path:
    """Resolve a run id (or a direct file path) to its trace.jsonl."""
    direct = Path(run)
    if direct.suffix == ".jsonl" or direct.is_file():
        return direct
    return runs_root / run / TRACE_NAME


def _load_labelled(path: Path, side: str = "") -> "object":
    """Load a trace, turning every read failure into a typed error.

    ``side`` names the operand (``baseline`` / ``candidate``) so a
    two-file ``diff`` says *which* trace was empty, missing its run
    header, unreadable, or not text — instead of a traceback that
    names neither.
    """
    label = f"{side} trace {path}" if side else f"trace {path}"
    try:
        return load_trace(path)
    except FileNotFoundError:
        raise TraceSchemaError(f"{label}: no such file") from None
    except OSError as error:
        reason = error.strerror or error
        raise TraceSchemaError(f"{label}: unreadable ({reason})") from None
    except UnicodeDecodeError:
        raise TraceSchemaError(
            f"{label}: not a text file (binary or corrupt data)"
        ) from None
    except TraceSchemaError as error:
        message = str(error)
        # validate_lines already embeds ``path:line`` in its messages;
        # only prepend the side label diff needs.
        raise TraceSchemaError(
            f"{side} {message}" if side else message
        ) from None


def main_trace(argv: list[str] | None = None) -> int:
    """Summarize, diff, or validate run traces (repro-report --trace)."""
    from repro.experiments.journal import default_runs_dir

    parser = argparse.ArgumentParser(
        prog="repro-trace", description=main_trace.__doc__
    )
    parser.add_argument(
        "--run-dir",
        default=None,
        metavar="DIR",
        help="root of journaled run directories "
        "(default: $REPRO_RUNS_DIR or results/runs)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd_summarize = commands.add_parser(
        "summarize", help="top spans by self time + counter totals"
    )
    cmd_summarize.add_argument("run", help="run id or path to a trace.jsonl")
    cmd_summarize.add_argument(
        "--top", type=int, default=20, help="span names to show (default: 20)"
    )

    cmd_diff = commands.add_parser(
        "diff", help="per-span regression table between two runs"
    )
    cmd_diff.add_argument("run_a", help="baseline run id or trace path")
    cmd_diff.add_argument("run_b", help="candidate run id or trace path")
    cmd_diff.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 when any span's total time grew by more than this "
        "ratio (e.g. 1.5 = +50%%)",
    )

    cmd_validate = commands.add_parser(
        "validate", help="schema-check every line of a run's trace.jsonl"
    )
    cmd_validate.add_argument("run", help="run id or path to a trace.jsonl")

    args = parser.parse_args(argv)
    if args.command == "summarize" and args.top < 1:
        cmd_summarize.error(f"--top must be >= 1, got {args.top}")
    # ``not >=`` also rejects nan, which would never flag anything.
    if args.command == "diff" and args.fail_above is not None:
        if not args.fail_above >= 1:
            cmd_diff.error(
                f"--fail-above is a growth ratio and must be >= 1, "
                f"got {args.fail_above:g}"
            )
    runs_root = Path(args.run_dir) if args.run_dir else default_runs_dir()

    try:
        if args.command == "summarize":
            trace = _load_labelled(trace_path(runs_root, args.run))
            print("\n".join(summarize_lines(trace, top=args.top)))
            return 0
        if args.command == "validate":
            path = trace_path(runs_root, args.run)
            try:
                records = validate_file(path)
            except (OSError, UnicodeDecodeError):
                _load_labelled(path)  # raises the typed equivalent
                raise  # pragma: no cover - _load_labelled always raises
            n_spans = sum(1 for r in records if r["kind"] == "span")
            print(f"OK: {path}: {len(records)} records, {n_spans} spans")
            return 0
        # diff
        trace_a = _load_labelled(trace_path(runs_root, args.run_a), "baseline")
        trace_b = _load_labelled(
            trace_path(runs_root, args.run_b), "candidate"
        )
        lines, regressed = diff_lines(
            trace_a, trace_b, fail_above=args.fail_above
        )
        print("\n".join(lines))
        if regressed:
            print(
                f"regression: a span exceeded {args.fail_above:g}x its "
                "baseline total",
                file=sys.stderr,
            )
            return 1
        return 0
    except FileNotFoundError as error:
        print(f"INVALID: no trace file: {error.filename}", file=sys.stderr)
        return 1
    except TraceSchemaError as error:
        print(f"INVALID: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - manual invocation helper
    sys.exit(main_trace())

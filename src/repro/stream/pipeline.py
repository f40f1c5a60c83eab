"""The streaming pipeline: tailer → parser → watermark → online kernels.

One :class:`StreamPipeline` owns, per feed source (``ras.csv``,
``jobs.csv``, ``tasks.csv``, ``io.csv``):

- a rotation/truncation-safe :class:`~repro.stream.tailer.FileTailer`;
- a CSV parser with the same lenient quarantine semantics as batch
  ingestion (malformed rows go to a :class:`repro.ingest.ParseReport`,
  bounded by ``max_bad_rows``, never silently dropped);
- an id-based dedup set turning at-least-once reads (truncation
  re-reads, duplicate replay, resume overlap) into exactly-once
  kernel effects;
- a :class:`~repro.stream.watermark.WatermarkBuffer` releasing rows to
  the kernels in deterministic event-time order (the ``io`` feed has
  no event time and is applied in arrival order instead).

Determinism contract — the heart of the kill–resume drill: everything
the pipeline *is* lives in one atomically-written checkpoint, and every
mutation is a pure function of (checkpoint state, subsequent feed
bytes).  Kill the process anywhere, resume from the checkpoint, feed it
the same file, and the **identity** section of :meth:`state_payload` is
byte-identical to an uninterrupted run's.  Timing-dependent facts that
legitimately differ between those two runs — poll counts, backpressure
skips, rotation/truncation event counts — are confined to the **meta**
section, which the drill does not compare.

Backpressure is typed and bounded, not implicit: when a source's
pending buffer hits capacity the pipeline *stops polling that source*
(the feed file itself is the upstream queue) and counts the skip; the
other sources keep flowing.

Feed contract: CSV rows must not contain embedded newlines (the
toolkit's own ``write_csv`` never produces them); quoted commas are
fine.  Each file starts with the schema header row, and rotated files
repeat it — the parser skips exact header matches.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from pathlib import Path

from repro.darshan.records import IO_SCHEMA
from repro.errors import CheckpointError, QuarantineOverflowError
from repro.ingest import ParseReport
from repro.dataset.mira import SECONDS_PER_DAY
from repro.obs.trace import span as trace_span
from repro.ras.events import RAS_SCHEMA
from repro.scheduler.jobs import JOB_SCHEMA
from repro.stream.checkpoint import (
    load_checkpoint,
    prune_checkpoint_temps,
    save_checkpoint,
)
from repro.stream.online import (
    ComponentCounter,
    OnlineCusum,
    RollingMtti,
    UserFailureCounter,
    batch_component_counts,
    batch_cusum,
    batch_mtti,
    batch_user_failures,
)
from repro.stream.tailer import FileTailer
from repro.stream.watermark import WatermarkBuffer
from repro.table import Table
from repro.tasks.runjob import TASK_SCHEMA

__all__ = ["StreamPipeline", "SOURCE_ORDER"]

#: Deterministic processing order — identical in live and verify paths.
SOURCE_ORDER = ("ras", "jobs", "tasks", "io")

#: filename, schema, dedup id column, event-time column (None = no
#: watermark; rows apply in arrival order).
_SOURCE_SPECS = {
    "ras": ("ras.csv", RAS_SCHEMA, "record_id", "timestamp"),
    "jobs": ("jobs.csv", JOB_SCHEMA, "job_id", "end_time"),
    "tasks": ("tasks.csv", TASK_SCHEMA, "task_id", "end_time"),
    "io": ("io.csv", IO_SCHEMA, "job_id", None),
}

#: Default per-source lateness allowance (seconds of event time).  The
#: RAS feed arrives nearly time-ordered; job/task rows appear when the
#: job *ends*, so their ``end_time`` disorder spans whole runtimes.
DEFAULT_LATENESS = {"ras": 600.0, "jobs": 172_800.0, "tasks": 172_800.0}

#: Retained quarantine examples in the checkpoint (counts stay exact).
_QUARANTINE_SAMPLE_CAP = 100

_TOTALS_ZERO = {
    "tasks_seen": 0,
    "tasks_failed": 0,
    "io_rows": 0,
    "io_bytes_read": 0.0,
    "io_bytes_written": 0.0,
}


class _Source:
    """Per-feed-file streaming state (tailer + dedup + watermark)."""

    __slots__ = (
        "name", "filename", "schema", "id_field", "ts_field", "header",
        "tailer", "buffer", "seen", "late_ids", "rows_applied",
        "duplicates", "lines_seen",
    )

    def __init__(self, name: str, feed_dir: Path, *, lateness: dict,
                 capacity: int, max_lines: int):
        filename, schema, id_field, ts_field = _SOURCE_SPECS[name]
        self.name = name
        self.filename = filename
        self.schema = schema
        self.id_field = id_field
        self.ts_field = ts_field
        self.header = ",".join(schema)
        self.tailer = FileTailer(feed_dir / filename, max_lines=max_lines)
        self.buffer = (
            WatermarkBuffer(
                lateness=lateness.get(name, DEFAULT_LATENESS.get(name, 600.0)),
                capacity=capacity,
            )
            if ts_field is not None
            else None
        )
        self.seen: set[int] = set()
        self.late_ids: set[int] = set()
        self.rows_applied = 0
        self.duplicates = 0
        self.lines_seen = 0

    @property
    def pending_count(self) -> int:
        return self.buffer.pending_count if self.buffer is not None else 0

    @property
    def admitted(self) -> int:
        """Rows whose effects are either applied or still pending."""
        return self.rows_applied + self.pending_count


def _parse_fields(schema: dict, line: str):
    """``(row, None)`` or ``(None, reason)`` for one CSV data line."""
    try:
        fields = next(csv.reader(_io.StringIO(line)))
    except (csv.Error, StopIteration) as exc:
        return None, f"unparsable csv line: {exc}"
    if len(fields) != len(schema):
        return None, f"expected {len(schema)} fields, got {len(fields)}"
    row = {}
    for (col, pytype), value in zip(schema.items(), fields):
        try:
            if pytype is int:
                row[col] = int(float(value))
            elif pytype is float:
                parsed = float(value)
                if not math.isfinite(parsed):
                    return None, f"non-finite {col}: {value!r}"
                row[col] = parsed
            else:
                row[col] = value
        except (TypeError, ValueError):
            return None, f"unparsable {col}: {value!r}"
    return row, None


class StreamPipeline:
    """Checkpointed, watermark-aware streaming ingestion over one feed."""

    def __init__(
        self,
        feed_dir: str | Path,
        checkpoint_dir: str | Path,
        *,
        lateness: dict | None = None,
        pending_capacity: int = 50_000,
        max_lines_per_poll: int = 5_000,
        max_bad_rows: int | None = 10_000,
        journal=None,
    ):
        self.feed_dir = Path(feed_dir)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.journal = journal
        self.max_bad_rows = max_bad_rows
        lateness = dict(lateness or {})
        self._sources = {
            name: _Source(
                name, self.feed_dir, lateness=lateness,
                capacity=pending_capacity, max_lines=max_lines_per_poll,
            )
            for name in SOURCE_ORDER
        }
        self._users = UserFailureCounter()
        self._components = ComponentCounter()
        self._cusum = OnlineCusum()
        self._mtti = RollingMtti()
        self._totals = dict(_TOTALS_ZERO)
        self.report = ParseReport(max_bad_rows=None)
        #: quarantine accounting carried over from restored checkpoints
        self._quarantine_base: dict[str, int] = {}
        self._quarantine_samples: list[list] = []
        self.ticks = 0
        self.checkpoints_written = 0
        self.backpressure_events = 0
        # Satellite: the checkpoint dir gets the same stale-temp pruning
        # as every other atomic-write directory in the toolkit.
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.pruned_temps = prune_checkpoint_temps(self.checkpoint_dir)

    # -- quarantine ----------------------------------------------------

    def _quarantine(self, source: str, row: int, reason: str, raw: str):
        self.report.quarantine(source, row, reason, raw)
        if len(self._quarantine_samples) < _QUARANTINE_SAMPLE_CAP:
            self._quarantine_samples.append([source, row, reason, raw])
        if self.max_bad_rows is not None:
            if self.quarantined_total() > self.max_bad_rows:
                raise QuarantineOverflowError(
                    f"stream quarantined more than {self.max_bad_rows} "
                    f"rows (last: {source} row {row}: {reason})"
                )

    def quarantine_counts(self) -> dict[str, int]:
        merged = dict(self._quarantine_base)
        for source, count in self.report.counts().items():
            merged[source] = merged.get(source, 0) + count
        return merged

    def quarantined_total(self) -> int:
        return sum(self.quarantine_counts().values())

    # -- kernel dispatch -----------------------------------------------

    @staticmethod
    def _apply_row(kernels: dict, name: str, row: dict) -> None:
        if name == "ras":
            kernels["components"].update(row)
            kernels["cusum"].update(row)
            kernels["mtti"].update(row)
        elif name == "jobs":
            kernels["users"].update(row)
        elif name == "tasks":
            totals = kernels["totals"]
            totals["tasks_seen"] += 1
            if int(row.get("exit_status", 0)) != 0:
                totals["tasks_failed"] += 1
        elif name == "io":
            totals = kernels["totals"]
            totals["io_rows"] += 1
            totals["io_bytes_read"] += float(row.get("bytes_read", 0.0))
            totals["io_bytes_written"] += float(row.get("bytes_written", 0.0))

    def _kernels(self) -> dict:
        return {
            "users": self._users,
            "components": self._components,
            "cusum": self._cusum,
            "mtti": self._mtti,
            "totals": self._totals,
        }

    # -- line processing -----------------------------------------------

    def _process_line(self, src: _Source, line: str) -> None:
        line = line.rstrip("\r")
        if not line:
            return
        src.lines_seen += 1
        if line == src.header:
            return
        row, reason = _parse_fields(src.schema, line)
        if row is None:
            self._quarantine(src.name, src.lines_seen, reason, line)
            return
        rid = row[src.id_field]
        if rid in src.seen:
            src.duplicates += 1
            return
        if src.ts_field is None:
            src.seen.add(rid)
            src.rows_applied += 1
            self._apply_row(self._kernels(), src.name, row)
            return
        ts = row[src.ts_field]
        if src.buffer.offer(ts, row):
            src.seen.add(rid)
        else:
            # Late beyond the watermark: counted by the buffer, id
            # remembered (so replays dedup, and verify_batch can
            # exclude it), and the raw line quarantined — never silent.
            src.seen.add(rid)
            src.late_ids.add(rid)
            self._quarantine(
                src.name,
                src.lines_seen,
                f"late row beyond watermark "
                f"({src.ts_field}={ts}, "
                f"sealed_through={src.buffer.sealed_through})",
                line,
            )

    # -- the tick ------------------------------------------------------

    def tick(self) -> dict:
        """One poll–parse–seal round across every source."""
        polled_lines = 0
        sealed_rows = 0
        events = {"rotations": 0, "truncations": 0, "lost_tails": 0}
        for name in SOURCE_ORDER:
            src = self._sources[name]
            if src.buffer is not None and src.buffer.full:
                # Typed backpressure: leave the feed file as the queue.
                self.backpressure_events += 1
                continue
            with trace_span("stream.poll", source=name):
                result = src.tailer.poll()
            if result.rotated:
                events["rotations"] += 1
            if result.truncated:
                events["truncations"] += 1
            if result.lost_tail:
                events["lost_tails"] += 1
            for line in result.recovered:
                self._process_line(src, line)
            for line in result.lines:
                self._process_line(src, line)
            polled_lines += len(result.recovered) + len(result.lines)
        for name in SOURCE_ORDER:
            src = self._sources[name]
            if src.buffer is None:
                continue
            with trace_span("stream.seal", source=name):
                sealed = src.buffer.seal()
            for row in sealed:
                src.rows_applied += 1
                self._apply_row(self._kernels(), name, row)
            sealed_rows += len(sealed)
        self.ticks += 1
        return {
            "lines": polled_lines,
            "sealed": sealed_rows,
            "progressed": polled_lines > 0 or sealed_rows > 0,
            **events,
        }

    # -- results -------------------------------------------------------

    def _span_days(self, max_seen: float | None) -> float | None:
        if max_seen is None or max_seen <= 0:
            return None
        return max_seen / SECONDS_PER_DAY

    def _results_from(self, kernels: dict, *, drained: bool) -> dict:
        ras = self._sources["ras"]
        span = self._span_days(
            ras.buffer.max_seen if ras.buffer is not None else None
        )
        sources = {}
        for name in SOURCE_ORDER:
            src = self._sources[name]
            sources[name] = {
                "rows_applied": src.rows_applied,
                "pending": src.pending_count,
                "admitted": src.admitted,
                "duplicates": src.duplicates,
                "late": src.buffer.late if src.buffer is not None else 0,
                "quarantined": self.quarantine_counts().get(name, 0),
            }
        return {
            "drained": drained,
            "sources": sources,
            "users": kernels["users"].result(),
            "components": kernels["components"].result(),
            "cusum": kernels["cusum"].result(),
            "mtti": kernels["mtti"].result(span),
            "totals": dict(kernels["totals"]),
        }

    def results(self) -> dict:
        """Sealed-rows-only results (pending rows not yet projected)."""
        return self._results_from(self._kernels(), drained=False)

    def projected_results(self) -> dict:
        """Results over the *closed window*: sealed + pending rows.

        Non-destructive — the pending buffers and live kernels are
        untouched (clones absorb the drain), so a resumed tail can keep
        streaming afterwards.
        """
        users = UserFailureCounter()
        users.restore(self._users.state())
        components = ComponentCounter()
        components.restore(self._components.state())
        cusum = OnlineCusum()
        cusum.restore(self._cusum.state())
        mtti = RollingMtti()
        mtti.restore(self._mtti.state())
        kernels = {
            "users": users,
            "components": components,
            "cusum": cusum,
            "mtti": mtti,
            "totals": dict(self._totals),
        }
        for name in SOURCE_ORDER:
            src = self._sources[name]
            if src.buffer is None:
                continue
            for row in src.buffer.drain_view():
                self._apply_row(kernels, name, row)
        out = self._results_from(kernels, drained=True)
        # the drained projection counts pending rows as applied
        for name in SOURCE_ORDER:
            entry = out["sources"][name]
            entry["rows_applied"] = entry["admitted"]
            entry["pending"] = 0
        return out

    # -- checkpointing -------------------------------------------------

    def state_payload(self) -> dict:
        identity_sources = {}
        for name in SOURCE_ORDER:
            src = self._sources[name]
            identity_sources[name] = {
                "rows_applied": src.rows_applied,
                "duplicates": src.duplicates,
                "lines_seen": src.lines_seen,
                "seen_ids": sorted(src.seen),
                "late_ids": sorted(src.late_ids),
                "watermark": (
                    src.buffer.state() if src.buffer is not None else None
                ),
            }
        return {
            "feed": str(self.feed_dir),
            "identity": {
                "sources": identity_sources,
                "kernels": {
                    "users": self._users.state(),
                    "components": self._components.state(),
                    "cusum": self._cusum.state(),
                    "mtti": self._mtti.state(),
                    "totals": dict(self._totals),
                },
                "quarantine": {
                    "counts": self.quarantine_counts(),
                    "total": self.quarantined_total(),
                    "samples": [list(s) for s in self._quarantine_samples],
                },
            },
            "meta": {
                "ticks": self.ticks,
                "checkpoints": self.checkpoints_written,
                "backpressure": self.backpressure_events,
                "tail": {
                    name: self._sources[name].tailer.state()
                    for name in SOURCE_ORDER
                },
            },
        }

    def checkpoint(self) -> Path:
        with trace_span("stream.checkpoint"):
            path = save_checkpoint(self.checkpoint_dir, self.state_payload())
        self.checkpoints_written += 1
        if self.journal is not None:
            self.journal.append_event(
                "stream-checkpoint",
                rows={
                    name: self._sources[name].rows_applied
                    for name in SOURCE_ORDER
                },
                checkpoints=self.checkpoints_written,
            )
        return path

    def resume(self) -> bool:
        """Restore from the checkpoint directory; ``False`` = fresh."""
        payload = load_checkpoint(self.checkpoint_dir)
        if payload is None:
            return False
        if payload.get("feed") != str(self.feed_dir):
            raise CheckpointError(
                f"checkpoint in {self.checkpoint_dir} tracks feed "
                f"{payload.get('feed')!r}, not {str(self.feed_dir)!r}"
            )
        identity = payload.get("identity", {})
        meta = payload.get("meta", {})
        for name in SOURCE_ORDER:
            src = self._sources[name]
            state = identity.get("sources", {}).get(name, {})
            src.rows_applied = int(state.get("rows_applied", 0))
            src.duplicates = int(state.get("duplicates", 0))
            src.lines_seen = int(state.get("lines_seen", 0))
            src.seen = {int(v) for v in state.get("seen_ids", [])}
            src.late_ids = {int(v) for v in state.get("late_ids", [])}
            if src.buffer is not None and state.get("watermark"):
                src.buffer.restore(state["watermark"])
            tail_state = meta.get("tail", {}).get(name)
            if tail_state:
                src.tailer.restore(tail_state)
        kernels = identity.get("kernels", {})
        self._users.restore(kernels.get("users", {}))
        self._components.restore(kernels.get("components", {}))
        self._cusum.restore(kernels.get("cusum", {}))
        self._mtti.restore(kernels.get("mtti", {}))
        self._totals = {
            **_TOTALS_ZERO,
            **kernels.get("totals", {}),
        }
        quarantine = identity.get("quarantine", {})
        self._quarantine_base = {
            str(k): int(v) for k, v in quarantine.get("counts", {}).items()
        }
        self._quarantine_samples = [
            list(s) for s in quarantine.get("samples", [])
        ]
        self.report = ParseReport(max_bad_rows=None)
        self.ticks = int(meta.get("ticks", 0))
        self.checkpoints_written = int(meta.get("checkpoints", 0))
        self.backpressure_events = int(meta.get("backpressure", 0))
        return True

    def state_json(self) -> str:
        """Canonical JSON of the *identity* state plus projected results.

        Two runs over the same feed bytes — no matter how they were
        killed, resumed, or batched — must produce byte-identical
        output here.  (``meta`` is deliberately excluded.)
        """
        payload = self.state_payload()
        doc = {
            "schema": 1,
            "kind": "stream-state",
            "identity": payload["identity"],
            "results": self.projected_results(),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    # -- batch verification --------------------------------------------

    def _reconstruct_lines(self, filename: str) -> list[str]:
        """Every line of the closed window, rotated siblings first.

        A final line with no trailing newline (a torn write in flight
        when the feed stopped) is excluded — the tailer held it back
        for the same reason.
        """
        base = self.feed_dir / filename
        numbered = []
        for sibling in self.feed_dir.glob(filename + ".*"):
            suffix = sibling.name[len(filename) + 1:]
            if suffix.isdigit():
                numbered.append((int(suffix), sibling))
        files = [p for _, p in sorted(numbered, reverse=True)]
        if base.exists():
            files.append(base)
        lines: list[str] = []
        for path in files:
            raw = path.read_bytes()
            parts = raw.split(b"\n")
            torn = parts.pop()  # b"" when newline-terminated
            del torn
            lines.extend(p.decode("utf-8", "replace") for p in parts)
        return lines

    def verify_batch(self) -> dict:
        """Replay the closed window through the batch kernels; compare.

        Returns ``{"ok": bool, "checks": {...}}`` where every check
        pairs the online answer with the batch answer.  This is the
        value-identity proof the CI stream drill asserts.
        """
        online = self.projected_results()
        checks: dict[str, dict] = {}
        tables: dict[str, Table | None] = {}
        for name in SOURCE_ORDER:
            src = self._sources[name]
            rows = []
            seen: set[int] = set()
            duplicates = 0
            quarantined = 0
            for line in self._reconstruct_lines(src.filename):
                line = line.rstrip("\r")
                if not line or line == src.header:
                    continue
                row, _reason = _parse_fields(src.schema, line)
                if row is None:
                    quarantined += 1
                    continue
                rid = row[src.id_field]
                if rid in seen:
                    duplicates += 1
                    continue
                seen.add(rid)
                if rid in src.late_ids:
                    continue  # online quarantined it; exclude here too
                rows.append(row)
            tables[name] = Table.from_rows(rows) if rows else None
            batch_counts = {
                "rows": len(rows),
                "duplicates": duplicates,
                "late_excluded": len(src.late_ids),
            }
            online_src = online["sources"][name]
            checks[f"counts:{name}"] = {
                "online": {
                    "rows": online_src["rows_applied"],
                    "duplicates": online_src["duplicates"],
                    "late_excluded": online_src["late"],
                },
                "batch": batch_counts,
                "ok": (
                    online_src["rows_applied"] == batch_counts["rows"]
                    and online_src["duplicates"] == batch_counts["duplicates"]
                    and online_src["late"] == batch_counts["late_excluded"]
                ),
            }
        ras_table = tables["ras"]
        jobs_table = tables["jobs"]
        empty_counter = {"n_users": 0, "users": {}}
        batch_users = (
            batch_user_failures(jobs_table) if jobs_table is not None
            else empty_counter
        )
        checks["users"] = {
            "online": online["users"],
            "batch": batch_users,
            "ok": online["users"] == batch_users,
        }
        empty_components = {"n_components": 0, "components": {}}
        batch_components = (
            batch_component_counts(ras_table) if ras_table is not None
            else empty_components
        )
        checks["components"] = {
            "online": online["components"],
            "batch": batch_components,
            "ok": online["components"] == batch_components,
        }
        empty_cusum = {"n_days": 0, "n_fatal": 0, "changepoints": []}
        batch_cp = (
            batch_cusum(ras_table) if ras_table is not None else empty_cusum
        )
        checks["cusum"] = {
            "online": online["cusum"],
            "batch": batch_cp,
            "ok": online["cusum"] == batch_cp,
        }
        if ras_table is not None:
            max_ts = float(max(ras_table["timestamp"]))
            span = self._span_days(max_ts)
        else:
            span = None
        if span is not None:
            batch_m = batch_mtti(ras_table, span)
        else:
            batch_m = {"n_clusters": 0}
        online_m = {
            k: v for k, v in online["mtti"].items() if k in batch_m
        }
        checks["mtti"] = {
            "online": online_m,
            "batch": batch_m,
            "ok": online_m == batch_m,
        }
        ok = all(entry["ok"] for entry in checks.values())
        return {"ok": ok, "checks": checks}

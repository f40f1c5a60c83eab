#!/usr/bin/env python3
"""The repository's benchmark: report, serve and tail on one seeded dataset.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload short --seed 1 --seconds 16 --trace 0

One run synthesizes a dataset from ``--seed``, saves it as CSVs, and
drives the three programs through their real entry points (see
``launch.py``):

- **report** -- rounds of a cold ``MiraDataset.load`` (set-up), a
  ``repro-report`` on an empty synthesis cache and a warm rerun;
- **serve** -- a ``repro-serve`` daemon driven by an open-loop generator
  over persistent HTTP/1.1 connections through a ladder of fixed rates;
- **tail** -- the dataset replayed through ``StreamFeeder``: one-shot
  drains of about 80 % of the rows, then a resumed tailer fed the rest
  on a fixed schedule, then a check of its end state.

It checks the outputs (report text identical cold and warm, every serve
answer ok or skipped and every cache hit identical to its miss, the
tail's online state equal to the batch kernels) and prints one JSON
object as the last line of standard output: the end-to-end metrics with
``--trace 0``; with ``--trace 1``, the per-layer metrics of a run with
the timers of ``probes.py`` installed.  Metric names, units and what
each layer should move are listed in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import hashlib
import http.client
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"

#: Both listed workloads run all three programs.  They differ in how
#: much of the report's wall time grows with the trace rather than being
#: interpreter start and imports (README.md); the longer span is what
#: the benchmark's time budget allows.  ``tiny`` is the smoke test's size.
WORKLOADS = {
    "short": {"days": 12, "tail_steps": 120},
    "long": {"days": 30, "tail_steps": 120},
    "tiny": {"days": 4, "tail_steps": 6},
}
#: Rounds of the fixed-work steps (load, cold and two warm reports, tail
#: drain) in an untraced run; each metric takes the fastest of them.
ROUNDS = 3
#: Serve rates (req/s), at least 2x apart.  The lowest is the reference
#: rung; 30 req/s sits below the knee on two connections, 60 above it.
RATES = (15, 30, 60)

#: The serve latency limit: a rung meets it when its p99 is at or under it.
LATENCY_LIMIT_MS = 1000.0
#: A request the generator could not send this late is given up on and
#: counted over the limit, so an overloaded rung ends on schedule.
GIVE_UP_S = 2.0
#: Seconds each rung above the reference runs; the reference rung gets
#: the rest of ``--seconds``, in one window per round.  Passing or
#: failing the limit shows fast.
OTHER_RUNG_S = 2.0
#: Seconds between appends in tail phase B.  Not a multiple of the
#: tailer's 0.2 s poll interval, so appends land at every poll phase.
STEP_INTERVAL_S = 0.023
#: Appends that write the feed's first 80 % before phase A.
PREWRITE_STEPS = 20
#: Timed checkpoint writes of the tail's end state, spread out in time
#: so that a few slow seconds of the machine do not move their median.
CHECKPOINT_REPEATS = 16
CHECKPOINT_GAP_S = 0.12
#: Served keys: every experiment plus the dataset summary.
SERVE_KEYS = tuple(f"e{i:02d}" for i in range(1, 23)) + ("summary",)
PING_SHARE = 0.2
ZIPF_S = 1.1
#: Tail feed file stem -> (dedup id column, event-time column).
TAIL_SOURCES = {
    "ras": ("record_id", "timestamp"),
    "jobs": ("job_id", "end_time"),
    "tasks": ("task_id", "end_time"),
    "io": ("job_id", None),
}
CHILD_TIMEOUT_S = 150.0
#: What ``repro-tail --verify-batch`` prints when online = batch.
VERIFIED = "repro-tail: online state matches batch kernels"


class CheckFailed(Exception):
    """An output check failed: the run reports a failure, not numbers."""


def pct(values, q):
    """Linear-interpolated quantile ``q`` (0..1) of ``values``."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[hi]):
        return xs[hi] if pos > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Bench:
    """One run's work directory, child processes and their records."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.env = dict(
            os.environ,
            REPRO_RUNS_DIR=str(work / "runs"),
            REPRO_CACHE_DIR=str(work / "synth-cache"),
        )
        self.env.pop("REPRO_PROCESS_FAULTS", None)
        self.env.pop("REPRO_CHUNK_ROWS", None)
        self.live: list[subprocess.Popen] = []
        self.stats: list[dict] = []
        self.count = 0

    def spawn(self, entry, args, traced=False):
        """Start ``launch.py`` for ``entry``; stdout is a pipe."""
        self.count += 1
        stem = self.work / f"{self.count:03d}-{entry}"
        with open(f"{stem}.err", "w") as errors:
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), f"{stem}.json",
                 "1" if traced else "0", entry, *map(str, args)],
                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                stderr=errors, text=True,
            )
        proc.stem, proc.entry = stem, entry
        self.live.append(proc)
        return proc

    def finish(self, proc, timeout=CHILD_TIMEOUT_S) -> dict:
        """Wait for ``proc`` and return its launcher record."""
        try:
            proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.live.remove(proc)
        try:
            stats = json.loads(Path(f"{proc.stem}.json").read_text())
        except (OSError, ValueError):
            stats = None
        if proc.returncode != 0 or stats is None:
            errors = Path(f"{proc.stem}.err").read_text()[-3000:]
            raise RuntimeError(
                f"{proc.entry} exited {proc.returncode}:\n{errors}")
        stats["entry"] = proc.entry
        self.stats.append(stats)
        return stats

    def run(self, entry, args, traced=False):
        """Run one child to completion: (wall seconds, record, stdout)."""
        started = time.perf_counter()
        proc = self.spawn(entry, args, traced)
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        wall = time.perf_counter() - started
        return wall, self.finish(proc), out

    def stop_all(self) -> None:
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            self.live.remove(proc)


class LineClock(threading.Thread):
    """Reads a child's stdout, stamping each line with when it arrived."""

    def __init__(self, stream):
        super().__init__(daemon=True)
        self.stream = stream
        self.lines: list[tuple[float, str | None]] = []
        self.cond = threading.Condition()

    def run(self):
        for line in self.stream:
            with self.cond:
                self.lines.append((time.perf_counter(), line.rstrip("\n")))
                self.cond.notify_all()
        with self.cond:
            self.lines.append((time.perf_counter(), None))
            self.cond.notify_all()

    def wait_for(self, prefix: str, timeout: float) -> tuple[float, str]:
        deadline = time.monotonic() + timeout
        with self.cond:
            while True:
                for stamp, line in self.lines:
                    if line is None:
                        raise RuntimeError(f"child exited before {prefix!r}")
                    if line.startswith(prefix):
                        return stamp, line
                left = deadline - time.monotonic()
                if left <= 0:
                    raise RuntimeError(f"timed out waiting for {prefix!r}")
                self.cond.wait(left)


# ---------------------------------------------------------------------------
# inputs


def generate_dataset(bench: Bench, days: float) -> tuple[Path, dict]:
    directory = bench.work / "dataset"
    _, stats, _ = bench.run("gen", [days, bench.seed, directory])
    bench.stats.remove(stats)  # input generation is not the program
    return directory, stats


def serve_requests(seed: int, rate: float, seconds: float,
                   window: int) -> list[dict]:
    """One window of requests due at a fixed rate.

    It opens with one request for every key of :data:`SERVE_KEYS`, in a
    fixed order: on the flushed cache each window starts from, these are
    its misses, and their order (which decides which slow misses queue
    behind each other) is the same for every seed.  A seeded Zipf mix over
    the keys (e01 most popular) plus pings follows.
    """
    rng = random.Random(f"{seed}:serve:{rate}:{window}")
    keys = list(SERVE_KEYS)
    weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(keys))]
    modes = keys + [
        "ping" if rng.random() < PING_SHARE else rng.choices(keys, weights)[0]
        for _ in range(int(rate * seconds) - len(keys))
    ]
    return [{"request_id": f"r{rate:g}-w{window}-{index:05d}",
             "arrival_offset_s": index / rate, "mode": mode}
            for index, mode in enumerate(modes)]


def write_request_csv(path: Path, specs: list[dict]) -> None:
    """The ``repro-replay`` request CSV layout, so a rung can be replayed."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["request_id", "arrival_offset_s", "mode", "priority",
                         "deadline_ms"])
        for spec in specs:
            writer.writerow([spec["request_id"],
                             f"{spec['arrival_offset_s']:.3f}", spec["mode"],
                             "interactive", 60000])


def request_body(spec: dict) -> bytes:
    body = {"schema": 1, "request_id": spec["request_id"],
            "priority": "interactive", "deadline_ms": 60000}
    if spec["mode"] in ("ping", "summary"):
        body["mode"] = spec["mode"]
    else:
        body["mode"] = "experiment"
        body["experiment"] = spec["mode"]
    return json.dumps(body).encode()


# ---------------------------------------------------------------------------
# report


class ReportSteps:
    """The report program's steps, run one round at a time: a cold load
    (set-up), a report on an empty synthesis cache, then warm reports."""

    def __init__(self, bench: Bench, dataset: Path, traced: bool):
        self.bench, self.dataset, self.traced = bench, dataset, traced
        self.args = ["--dataset", dataset, "--mode", "mmap",
                     "--jobs", os.cpu_count() or 1]
        self.samples = {"load": [], "cold": [], "warm": []}
        self.texts: list[str] = []
        self.attempted = self.failed = 0

    def round(self) -> None:
        shutil.rmtree(self.dataset / ".repro-cache", ignore_errors=True)
        wall, _, _ = self.bench.run("load", [self.dataset], self.traced)
        self.samples["load"].append(wall)
        shutil.rmtree(self.bench.work / "synth-cache", ignore_errors=True)
        self.report("cold")
        self.report("warm")

    def report(self, kind: str) -> None:
        wall, stats, text = self.bench.run("report", self.args, self.traced)
        self.samples[kind].append(wall)
        self.texts.append(text)
        outcomes = stats.get("experiments", {})
        self.attempted += len(outcomes)
        self.failed += sum(1 for status, _ in outcomes.values()
                           if status not in ("ok", "skipped"))

    def result(self) -> dict:
        if any(text != self.texts[0] for text in self.texts):
            raise CheckFailed("report text differs between cold and warm runs")
        return {
            "setup_s": statistics.median(self.samples["load"]),
            "cold_s": min(self.samples["cold"]),
            "warm_s": min(self.samples["warm"]),
            "sha256": hashlib.sha256(self.texts[0].encode()).hexdigest(),
            "samples": self.samples,
            "attempted": self.attempted,
            "failed": self.failed,
        }


# ---------------------------------------------------------------------------
# serve


def _http(host, port, method, path, body=None):
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def fire(host, port, specs, connections):
    """Open loop: each request is due at its offset and goes out on the
    first free persistent connection; latency counts from when it was
    due, so a stall also charges the requests queued behind it."""
    bodies = [request_body(spec) for spec in specs]
    records: list[dict] = [{} for _ in specs]
    cursor = iter(range(len(specs)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def connection():
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                due = start + specs[index]["arrival_offset_s"]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                record = records[index]
                record.update(due=due, sent=time.perf_counter(),
                              mode=specs[index]["mode"])
                if record["sent"] - due > GIVE_UP_S:
                    record["unsent"] = True
                    continue
                try:
                    conn.request("POST", "/query", body=bodies[index],
                                 headers={"Content-Type": "application/json"})
                    record["body"] = conn.getresponse().read()
                except (OSError, http.client.HTTPException) as error:
                    record["error"] = repr(error)
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=120)
                record["done"] = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=connection) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def _latency_ms(record) -> float:
    """From when the request was due to its answer; a request that was
    not sent, failed, or was refused counts as infinitely late."""
    if record.get("unsent") or "error" in record or json.loads(
            record["body"]).get("outcome") not in ("ok", "skipped"):
        return math.inf
    return (record["done"] - record["due"]) * 1000


def analyse_rung(records, answers: dict, mismatches: list) -> dict:
    """Latency and layer figures of one rung; checks every answer."""
    latency, transport, late, compute, pings, queue, sizes = (
        [] for _ in range(7))
    counts = dict.fromkeys(
        ("hit", "miss", "coalesced", "bad", "shed", "unsent"), 0)
    client_s = 0.0
    for record in records:
        late.append((record["sent"] - record["due"]) * 1000)
        latency.append(_latency_ms(record))
        if record.get("unsent") or "error" in record:
            counts["unsent" if record.get("unsent") else "bad"] += 1
            continue
        body = record["body"]
        reply = json.loads(body)
        outcome = reply.get("outcome")
        if outcome not in ("ok", "skipped"):
            counts["bad"] += 1
            counts["shed"] += outcome == "shed"
            continue
        sizes.append(len(body))
        client_s += record["done"] - record["sent"]
        server_ms = reply["seconds"] * 1000
        transport.append((record["done"] - record["sent"]) * 1000 - server_ms)
        if record["mode"] == "ping":
            pings.append(server_ms)
            queue.append(reply.get("queue_seconds", 0.0) * 1000)
            continue
        cache = reply.get("cache") or ""
        if cache == "miss":
            counts["miss"] += 1
            compute.append(server_ms)
            queue.append(reply.get("queue_seconds", 0.0) * 1000)
        elif cache.startswith("hit"):
            counts["hit"] += 1
        elif cache == "coalesced":
            counts["coalesced"] += 1
        answer = json.dumps(
            [outcome, reply.get("message"), reply.get("result")],
            sort_keys=True)
        if answers.setdefault(record["mode"], answer) != answer:
            mismatches.append(record["mode"])
    cacheable = counts["hit"] + counts["miss"] + counts["coalesced"]
    return {
        "n": len(records),
        "p50_ms": pct(latency, 0.50),
        "p99_ms": pct(latency, 0.99),
        # Backlog grows when the last tenth of the rung went out late.
        "backlog": statistics.median(late[-max(1, len(late) // 10):])
        > LATENCY_LIMIT_MS / 2,
        "counts": counts,
        "client_s": client_s,
        "transport_p50_ms": pct(transport, 0.50),
        "transport_p99_ms": pct(transport, 0.99),
        "late_p99_ms": pct(late, 0.99),
        "compute_ms": pct(compute, 0.50),
        "ping_ms": pct(pings, 0.50),
        "queue_p50_ms": pct(queue, 0.50),
        "queue_p99_ms": pct(queue, 0.99),
        "hit_ratio": counts["hit"] / cacheable if cacheable else 0.0,
        "response_bytes": statistics.mean(sizes) if sizes else 0.0,
    }


class ServeSteps:
    """The serve program's steps: a daemon started once, windows of
    requests fired at it between the other programs' rounds, then the
    higher rungs of the ladder."""

    def __init__(self, bench: Bench, dataset: Path, traced: bool):
        self.bench = bench
        started = time.perf_counter()
        self.proc = bench.spawn(
            "serve",
            ["--dataset", dataset, "--workers", 2, "--mode", "mmap",
             "--run-id", f"serve-{bench.count + 1}"],
            traced,
        )
        self.clock = LineClock(self.proc.stdout)
        self.clock.start()
        _, line = self.clock.wait_for("repro-serve listening on http://", 60)
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)
        while True:
            try:
                status, _ = _http(self.host, self.port, "GET", "/readyz")
            except OSError:
                status = 0
            if status == 200:
                break
            if time.perf_counter() - started > 60:
                raise RuntimeError("repro-serve never became ready")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - started
        self.windows: dict[float, list] = {}

    def window(self, rate: float, seconds: float) -> None:
        """One window at ``rate`` on a flushed cache; every window of a
        rate asks for every key, so each repeats the same misses."""
        windows = self.windows.setdefault(rate, [])
        specs = serve_requests(self.bench.seed, rate, seconds, len(windows))
        write_request_csv(self.bench.work
                          / f"requests-{rate:g}rps-w{len(windows)}.csv", specs)
        _http(self.host, self.port, "POST", "/admin/cache", b'{"flush": true}')
        windows.append(fire(self.host, self.port, specs, os.cpu_count() or 1))

    def stop(self) -> dict:
        # Drain over HTTP: a SIGTERM right after /readyz can land before
        # the daemon has installed its signal handlers.
        _http(self.host, self.port, "POST", "/admin/drain")
        self.bench.finish(self.proc)["ready_s"] = self.setup_s
        self.clock.join(5)
        answers: dict = {}
        mismatches: list = []
        rungs = []
        for rate, windows in sorted(self.windows.items()):
            rung = analyse_rung([r for w in windows for r in w], answers,
                                mismatches)
            per_window = [[_latency_ms(r) for r in w] for w in windows]
            rung.update(
                rate=rate,
                best_p50_ms=min(pct(w, 0.50) for w in per_window),
                best_p99_ms=min(pct(w, 0.99) for w in per_window),
                ok=(rung["p99_ms"] <= LATENCY_LIMIT_MS and not rung["backlog"]
                    and rung["counts"]["bad"] == 0),
            )
            rungs.append(rung)
        if mismatches:
            raise CheckFailed(f"cache hits differ from misses: {mismatches[:5]}")
        return {"setup_s": self.setup_s, "rungs": rungs}


# ---------------------------------------------------------------------------
# tail


class FeedRows:
    """Follows the tailer's dedup and watermark rules over the feed files,
    to know how many rows of each source an append lets it seal."""

    def __init__(self, feed: Path):
        from repro.stream.pipeline import DEFAULT_LATENESS

        self.feed = feed
        self.lateness = DEFAULT_LATENESS
        self.offsets = dict.fromkeys(TAIL_SOURCES, 0)
        self.headers: dict[str, list[str]] = {}
        self.seen = {name: set() for name in TAIL_SOURCES}
        self.times = {name: [] for name in TAIL_SOURCES}
        self.max_ts = dict.fromkeys(TAIL_SOURCES)
        self.sealed = dict.fromkeys(TAIL_SOURCES)
        self.late = dict.fromkeys(TAIL_SOURCES, 0)

    def _read(self, name: str) -> list[str]:
        path = self.feed / f"{name}.csv"
        if not path.exists():
            return []
        with open(path, "rb") as handle:
            handle.seek(self.offsets[name])
            data = handle.read()
        complete = data[: data.rfind(b"\n") + 1]
        self.offsets[name] += len(complete)
        return complete.decode().splitlines()

    def scan(self) -> dict[str, int]:
        """Read what was appended since the last scan; per source, the
        number of rows the tailer may have applied once it has read it."""
        targets = {}
        for name, (id_field, ts_field) in TAIL_SOURCES.items():
            for line in self._read(name):
                fields = line.split(",")
                if name not in self.headers:
                    self.headers[name] = fields
                    continue
                if fields == self.headers[name]:
                    continue
                row = dict(zip(self.headers[name], fields))
                rid = int(row[id_field])
                if rid in self.seen[name]:
                    continue
                self.seen[name].add(rid)
                if ts_field is None:
                    continue
                ts = float(row[ts_field])
                if self.sealed[name] is not None and ts <= self.sealed[name]:
                    self.late[name] += 1
                    continue
                bisect.insort(self.times[name], ts)
                if self.max_ts[name] is None or ts > self.max_ts[name]:
                    self.max_ts[name] = ts
            if ts_field is None:
                targets[name] = len(self.seen[name])
            elif self.max_ts[name] is None:
                targets[name] = 0
            else:
                mark = self.max_ts[name] - self.lateness[name]
                if self.sealed[name] is None or mark > self.sealed[name]:
                    self.sealed[name] = mark
                targets[name] = bisect.bisect_right(self.times[name], mark)
        return targets


class JournalWatch(threading.Thread):
    """Stamps each ``stream-checkpoint`` event as it lands in a journal."""

    def __init__(self, path: Path):
        super().__init__(daemon=True)
        self.path = path
        self.events: list[tuple[float, dict]] = []
        self.stop = threading.Event()

    def run(self):
        handle, pending = None, b""
        while not self.stop.is_set():
            if handle is None:
                try:
                    handle = open(self.path, "rb")
                except OSError:
                    time.sleep(0.002)
                    continue
            chunk = handle.read()
            if not chunk:
                time.sleep(0.002)
                continue
            stamp = time.perf_counter()
            pending += chunk
            *lines, pending = pending.split(b"\n")
            for line in lines:
                record = json.loads(line)
                if record.get("event") == "stream-checkpoint":
                    self.events.append((stamp, record["rows"]))
        if handle is not None:
            handle.close()


def _lags(appended, events, slack=None):
    """Milliseconds from each append to the first checkpoint covering it,
    and how many appends no checkpoint covered.  ``slack`` lowers the
    targets by rows the tailer classified late but the replay did not."""
    slack = slack or {}
    lags, missing = [], 0
    for stamp, target in appended:
        covered = next(
            (t for t, rows in events if t >= stamp and all(
                rows.get(n, 0) >= target[n] - slack.get(n, 0)
                for n in target)),
            None)
        if covered is None:
            missing += 1
        else:
            lags.append((covered - stamp) * 1000)
    return lags, missing


def _tail_counts(lines) -> dict[str, dict[str, int]]:
    """Per-source ``rows=/dup=/late=/quarantined=`` of repro-tail output."""
    counts = {}
    for _, line in lines:
        if not line:
            continue
        head, _, rest = line.partition(": ")
        name, _, fields = rest.partition(": ")
        if head == "repro-tail" and name in TAIL_SOURCES and "rows=" in fields:
            counts[name] = {key: int(value) for key, value in
                            (item.split("=") for item in fields.split())}
    return counts


def feed_source(dataset: Path, directory: Path) -> Path:
    """The dataset's logs in the order a live system writes them.

    The synthesized job and task logs are in submit order, but a job's
    record is written when it ends, and a long queue wait puts its end
    days after later submissions' -- beyond the tailer's 48 h lateness,
    so a replay in submit order quarantines rows as late.  Job and task
    rows are therefore fed sorted by ``end_time`` (stable).
    """
    directory.mkdir()
    for name, (_, ts_field) in TAIL_SOURCES.items():
        header, *rows = (dataset / f"{name}.csv").read_text().splitlines()
        if name in ("jobs", "tasks"):
            column = header.split(",").index(ts_field)
            rows.sort(key=lambda line: float(line.split(",")[column]))
        (directory / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n")
    return directory


def _drain(bench, feed, checkpoints, traced, run_id):
    """One ``repro-tail --oneshot`` drain; rows applied per second from
    its first poll to its first per-source result line (after the final
    checkpoint, before interpreter shutdown)."""
    proc = bench.spawn(
        "tail", [feed, "--checkpoint-dir", checkpoints, "--oneshot",
                 "--interval", 0, "--run-id", run_id], traced)
    clock = LineClock(proc.stdout)
    clock.start()
    first_poll, _ = clock.wait_for("repro-tail: feed=", 60)
    drained, _ = clock.wait_for(f"repro-tail: {next(iter(TAIL_SOURCES))}: ",
                                CHILD_TIMEOUT_S)
    bench.finish(proc)["oneshot"] = True
    clock.join(5)
    rows = sum(c["rows"] for c in _tail_counts(clock.lines).values())
    return rows / (drained - first_poll)


class TailSteps:
    """The tail program's steps.  About 80 % of the feed is written up
    front; :meth:`drain` (phase A) drains it one-shot from an empty
    checkpoint; :meth:`follow` (phase B) resumes from the last drain's
    checkpoint while the rest is appended on a clock; :meth:`checkpoints`
    times checkpoint writes of the end state and checks it."""

    def __init__(self, bench: Bench, cfg: dict, dataset: Path, traced: bool,
                 tag: str = ""):
        from repro.faults.streams import StreamFeeder

        self.bench, self.traced, self.tag = bench, traced, tag
        self.steps = cfg["tail_steps"]
        source = feed_source(dataset, bench.work / f"feed-source{tag}")
        self.feed = bench.work / f"feed{tag}"
        self.ckpt = bench.work / f"ckpt{tag}"
        with open(source / "ras.csv") as handle:
            ras_rows = sum(1 for _ in handle) - 1
        # The feeder appends the same number of rows of every log per
        # step, so the shorter job, task and I/O logs are complete within
        # the up-front appends and phase B appends the rest of the RAS log.
        up_front = math.ceil(0.8 * ras_rows / PREWRITE_STEPS)
        self.feeder = StreamFeeder(source, self.feed, seed=bench.seed,
                                   chunk_rows=up_front,
                                   faults=("duplicate_replay",), rate=0.1)
        for _ in range(PREWRITE_STEPS):
            self.feeder.step()
        self.feeder.chunk_rows = max(1, math.ceil(
            (ras_rows - up_front * PREWRITE_STEPS) / self.steps))
        self.speeds: list[float] = []
        self.result = {"setup_s": 0.0, "quarantined": 0}

    def drain(self) -> None:
        shutil.rmtree(self.ckpt, ignore_errors=True)
        self.speeds.append(_drain(
            self.bench, self.feed, self.ckpt, self.traced,
            f"tail-a{self.tag}-{self.bench.count + 1}"))
        self.result.update(rows_per_s=max(self.speeds), speeds=self.speeds)

    def follow(self) -> None:
        bench, feeder = self.bench, self.feeder
        rows = FeedRows(self.feed)
        rows.scan()
        run_id = f"tail-b{self.tag}-{bench.count + 1}"
        # Untraced, the tailer checks its end state against the batch
        # kernels itself once stopped; traced, :meth:`checkpoints` does.
        verify = [] if self.traced else ["--verify-batch"]
        started = time.perf_counter()
        proc = bench.spawn(
            "tail", [self.feed, "--checkpoint-dir", self.ckpt, "--run-id",
                     run_id, *verify], self.traced)
        clock = LineClock(proc.stdout)
        clock.start()
        first_poll, _ = clock.wait_for("repro-tail: feed=", 60)
        self.result["setup_s"] = first_poll - started
        watch = JournalWatch(bench.work / "runs" / run_id / "journal.jsonl")
        watch.start()
        appended = []
        for step in range(self.steps):
            delay = first_poll + 0.1 + step * STEP_INTERVAL_S \
                - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if feeder.done:
                break
            feeder.step()
            appended.append((time.perf_counter(), rows.scan()))
        settle = time.perf_counter() + 3.0
        while _lags(appended, list(watch.events))[1] and \
                time.perf_counter() < settle:
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        try:
            bench.finish(proc)
        except RuntimeError:
            clock.join(5)
            if any(line and "MISMATCH" in line for _, line in clock.lines):
                raise CheckFailed(
                    "tail online state differs from batch kernels") from None
            raise
        finally:
            watch.stop.set()
            watch.join(5)
        clock.join(5)
        if verify and VERIFIED not in (line for _, line in clock.lines):
            raise CheckFailed("repro-tail did not verify its end state")
        counts = _tail_counts(clock.lines)
        slack = {n: max(0, counts[n]["late"] - rows.late[n]) for n in counts}
        lags, missing = _lags(appended, watch.events, slack)
        if missing:
            raise CheckFailed(f"{missing} tail appends were never sealed")
        self.result.update(
            lag_p50_ms=pct(lags, 0.50), lag_p90_ms=pct(lags, 0.90),
            lag_p99_ms=pct(lags, 0.99),
            duplicates=sum(c["dup"] for c in counts.values()),
            late=sum(c["late"] for c in counts.values()),
            quarantined=sum(c["quarantined"] for c in counts.values()),
            attempted=sum(c["rows"] for c in counts.values()),
        )

    def checkpoints(self) -> None:
        _, stats, _ = self.bench.run(
            "checkpoint",
            [self.feed, self.ckpt, CHECKPOINT_REPEATS, CHECKPOINT_GAP_S],
            self.traced)
        if not stats["verify_ok"]:
            raise CheckFailed("tail online state differs from batch kernels")
        self.result["checkpoint_ms"] = min(stats["checkpoint_s"]) * 1000


# ---------------------------------------------------------------------------
# per-layer metrics (traced run)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def _self_seconds(spans) -> float:
    from repro.obs.summary import rollup_spans

    return sum(rollup.self_seconds for rollup in rollup_spans(spans))


def _unattributed(stats_list) -> float:
    """Wall time minus the self time of the spans of the same process.

    Pool workers' spans are left out: they overlap ``engine.suite``."""
    total = 0.0
    for stats in stats_list:
        own = [s for s in stats["trace"]["spans"] if s["pid"] == stats["pid"]]
        total += stats["wall_s"] - _self_seconds(own)
    return total


def layer_metrics(bench: Bench, serve: dict, tail: dict,
                  overhead_s: float) -> dict:
    from repro.obs.summary import rollup_spans

    traces, by_entry = [], {}
    for stats in bench.stats:
        by_entry.setdefault(stats["entry"], []).append(stats)
        traces.append(stats["trace"])
        traces.extend(stats.get("child_traces", []))
    spans = [span for trace in traces for span in trace["spans"]]
    totals: dict[str, list] = {}
    for span in spans:
        bucket = totals.setdefault(span["name"], [0.0, 0])
        bucket[0] += span["seconds"]
        bucket[1] += span.get("calls", 1)
    counters: dict[str, float] = {}
    maxima: dict[str, float] = {}
    for trace in traces:
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in trace["maxima"].items():
            maxima[key] = max(maxima.get(key, value), value)

    def total(name):
        return totals.get(name, [0.0, 0])[0]

    def per_call(name, scale):
        seconds, calls = totals.get(name, [0.0, 0])
        return seconds / calls * scale if calls else 0.0

    ref = serve["rungs"][0]
    metrics = {
        "csvio.read_s": total("csvio.read"),
        "csvio.rows": counters.get("csvio.rows", 0),
        "cache.npz_write_s": total("cache.npz_write"),
        "cache.npz_write_bytes": counters.get("cache.npz_write_bytes", 0),
        "cache.npz_read_s": total("cache.npz_read"),
        "arena.write_s": total("arena.write"),
        "arena.bytes": counters.get("arena.bytes", 0),
        "arena.attach_s": total("arena.attach"),
    }
    for stage in ("ras", "workload", "scheduler", "tasks", "io", "annotate"):
        metrics[f"synth.{stage}_s"] = total(f"synth.{stage}")
    metrics["engine.suite_s"] = total("engine.suite")
    for key in SERVE_KEYS[:-1]:
        metrics[f"experiment.{key}_s"] = total(f"experiment.{key}")
    for kernel in ("attribution", "filter", "fatal_events"):
        metrics[f"kernel.{kernel}_s"] = total(f"kernel.{kernel}")
        metrics[f"kernel.{kernel}_calls"] = counters.get(
            f"kernel.{kernel}_calls", 0)
    for kernel in ("bootstrap", "changepoint", "groupby"):
        metrics[f"kernel.{kernel}_s"] = total(f"kernel.{kernel}")
    tail_runs = by_entry.get("tail", [])
    metrics.update({
        "journal.append_s": total("journal.append"),
        "render_s": total("render"),
        "protocol.parse_us": per_call("protocol.parse", 1e6),
        "protocol.encode_us": per_call("protocol.encode", 1e6),
        "protocol.response_bytes": ref["response_bytes"],
        "admission.queue_ms_p50": ref["queue_p50_ms"],
        "admission.queue_ms_p99": ref["queue_p99_ms"],
        "admission.shed": sum(r["counts"]["shed"] for r in serve["rungs"]),
        "resultcache.hit_ratio": ref["hit_ratio"],
        "resultcache.coalesced": ref["counts"]["coalesced"],
        "resultcache.get_us": per_call("resultcache.get", 1e6),
        "resultcache.put_us": per_call("resultcache.put", 1e6),
        "workers.run_ms": per_call("workers.run", 1e3),
        "workers.compute_ms": ref["compute_ms"],
        "workers.ping_ms": ref["ping_ms"],
        # The serve and tail tails: their p99s lie between a run's two
        # largest samples and spread past any bound from seed to seed
        # (README.md), so they are reported here, unbounded.
        "query_p99_ms": min(ref["best_p99_ms"], 1e6),
        "tail_lag_p99_ms": tail["lag_p99_ms"],
        "http.transport_ms_p50": ref["transport_p50_ms"],
        "http.transport_ms_p99": ref["transport_p99_ms"],
        "gen.late_ms": ref["late_p99_ms"],
        "tailer.poll_s": total("tailer.poll"),
        "tailer.lines": counters.get("tailer.lines", 0),
        "pipeline.tick_s": total("pipeline.tick"),
        "pipeline.parse_dedup_s": sum(
            r.self_seconds for r in rollup_spans(spans)
            if r.name == "pipeline.tick"),
        "pipeline.duplicates": tail["duplicates"],
        "watermark.seal_s": total("watermark.seal"),
        "watermark.pending_max": maxima.get("watermark.pending_max", 0),
        "watermark.late": tail["late"],
        "online.update_s": total("online.update"),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.bytes": maxima.get("checkpoint.bytes", 0),
        "checkpoint.restore_s": total("checkpoint.restore"),
        "checkpoint_ms": tail["checkpoint_ms"],
        "report.unattributed_s": _unattributed(
            by_entry.get("load", []) + by_entry.get("report", [])),
        # The daemon idles between requests, so its wall time says
        # nothing; what no daemon span accounts for is the client-side
        # request time spent outside ReproServer.handle_query.
        "serve.unattributed_s": sum(r["client_s"] for r in serve["rungs"])
        - total("serve.handle"),
        # Phase B sleeps between polls by design; reconcile the busy runs.
        "tail.unattributed_s": _unattributed(
            [s for s in tail_runs if s.get("oneshot")]
            + by_entry.get("checkpoint", [])),
        "trace.overhead_s": overhead_s,
    })
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def print_cost_split(bench: Bench, metrics: dict) -> None:
    """How the report program's wall time splits into the cost that grows
    with the trace (CSV ingest, columnar writes, synthesis, experiments)
    and the cost that does not (interpreter start, imports: what no span
    accounts for).  The workloads differ in this split (README.md)."""
    def value(*names):
        return sum(metrics[name][0] for name in names)

    wall = sum(s["wall_s"] for s in bench.stats
               if s["entry"] in ("load", "report"))
    fixed = value("report.unattributed_s")
    ingest = value("csvio.read_s", "cache.npz_write_s", "cache.npz_read_s",
                   "arena.write_s", "arena.attach_s")
    synth = value(*(n for n in metrics if n.startswith("synth.")))
    print(f"report cost split s: wall={wall:.2f} fixed={fixed:.2f} "
          f"ingest={ingest:.2f} synth={synth:.2f} "
          f"rest={wall - fixed - ingest - synth:.2f} "
          f"per-row share={1 - fixed / wall:.2f}")


# ---------------------------------------------------------------------------
# the run


def _busy_wall(stats_list) -> float:
    """Walls of the steps that do a fixed amount of work; the serve
    ladder and tail phase B run on a clock and are left out."""
    return sum(
        s["wall_s"] for s in stats_list
        if s["entry"] in ("load", "report", "checkpoint") or s.get("oneshot")
    ) + sum(s.get("ready_s", 0.0) for s in stats_list)


def measure(bench: Bench, cfg: dict, seconds: float, traced: bool) -> dict:
    timeline = [("start", time.perf_counter())]

    def lap(label):
        timeline.append((label, time.perf_counter()))

    dataset, gen = generate_dataset(bench, cfg["days"])
    lap("gen")
    if traced:
        # The same fixed-work steps untraced first: the difference in
        # their walls is the tracing overhead.
        ReportSteps(bench, dataset, False).round()
        ServeSteps(bench, dataset, False).stop()
        reference = TailSteps(bench, cfg, dataset, False, tag="-ref")
        reference.drain()
        reference.checkpoints()
        untraced = _busy_wall(bench.stats)
        bench.stats.clear()
        lap("untraced")
    report = ReportSteps(bench, dataset, traced)
    tail = TailSteps(bench, cfg, dataset, traced)
    lap("feed")
    # Rounds of the fixed-work steps, each followed by a window of the
    # reference rung, so that the repetitions of every step are spread
    # over the run and a few slow seconds of a shared machine reach few
    # of them.  The daemon starts on the caches round 1 primed.
    rounds = 1 if traced else ROUNDS
    for index in range(rounds):
        report.round()
        tail.drain()
        if index == 0:
            serve = ServeSteps(bench, dataset, traced)
        for _ in range(ROUNDS // rounds):
            serve.window(RATES[0], (seconds - OTHER_RUNG_S * (len(RATES) - 1))
                         / ROUNDS)
        if not traced:
            # A second warm sample, seconds after the first: the warm
            # report is the cheapest step and the one a slow stretch of
            # the machine moves most.
            report.report("warm")
        lap("round")
    for rate in RATES[1:]:
        serve.window(rate, OTHER_RUNG_S)
    serve = serve.stop()
    lap("ladder")
    if not traced:
        tail.drain()
    tail.follow()
    lap("follow")
    if traced:
        tail.checkpoints()
        lap("checkpoint")
    report, tail = report.result(), tail.result
    print("timeline s: " + " ".join(
        f"{label}={end - start:.1f}"
        for (_, start), (label, end) in zip(timeline, timeline[1:])))
    for rung in serve["rungs"]:
        print(f"serve {rung['rate']:g} req/s: n={rung['n']} "
              f"p50={rung['p50_ms']:.1f}ms p99={rung['p99_ms']:.1f}ms "
              f"(fastest window p50={rung['best_p50_ms']:.1f}ms "
              f"p99={rung['best_p99_ms']:.1f}ms) "
              f"transport p50={rung['transport_p50_ms']:.2f}ms "
              f"p99={rung['transport_p99_ms']:.2f}ms "
              f"miss compute p50={rung['compute_ms']:.1f}ms "
              f"backlog={rung['backlog']} {rung['counts']} -> "
              f"{'meets' if rung['ok'] else 'misses'} "
              f"p99<={LATENCY_LIMIT_MS:g}ms")
    print(f"report sha256 {report['sha256']}")
    for step, walls in report["samples"].items():
        print(f"report {step} s: " + " ".join(f"{w:.2f}" for w in walls))
    print("tail drain rows/s: "
          + " ".join(f"{v:.0f}" for v in tail["speeds"]))
    ref = serve["rungs"][0]
    if traced:
        metrics = layer_metrics(bench, serve, tail,
                                _busy_wall(bench.stats) - untraced)
        print_cost_split(bench, metrics)
    else:
        print(f"setup_s terms s: load={report['setup_s']:.3f} "
              f"serve={serve['setup_s']:.3f} tail={tail['setup_s']:.3f}")
        metrics = {
            # Set-up of all three programs: cold load, spawn to ready,
            # resume to first poll.
            "setup_s": (report["setup_s"] + serve["setup_s"]
                        + tail["setup_s"], "s"),
            "peak_rss_mb": (max(s["peak_rss_mb"] for s in bench.stats),
                            "MiB"),
            "report_cold_s": (report["cold_s"], "s"),
            "report_warm_s": (report["warm_s"], "s"),
            "query_p50_ms": (ref["best_p50_ms"], "ms"),
            "max_rps_slo": (max((r["rate"] for r in serve["rungs"]
                                 if r["ok"]), default=0), "req/s"),
            "tail_rows_per_s": (tail["rows_per_s"], "rows/s"),
            "tail_lag_p50_ms": (tail["lag_p50_ms"], "ms"),
            "tail_lag_p90_ms": (tail["lag_p90_ms"], "ms"),
        }
    return {
        "gen": gen,
        "metrics": metrics,
        # Experiments run, requests sent, rows fed.  Failures: errored
        # experiments, non-ok answers at the reference rung (higher rungs
        # may legitimately refuse), rows quarantined (none are injected).
        "attempted": report["attempted"] + sum(r["n"] for r in serve["rungs"])
        + tail["attempted"],
        "failed": report["failed"] + ref["counts"]["bad"]
        + tail["quarantined"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep the work directory for inspection")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    cfg = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work, args.seed)
    try:
        outcome = measure(bench, cfg, args.seconds, bool(args.trace))
    except CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        bench.stop_all()
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": outcome["gen"]["numpy"],
        "machine": platform.machine(), "days": cfg["days"],
        "dataset_rows": outcome["gen"]["rows"],
    }
    print("machine " + json.dumps(header, sort_keys=True))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0 if outcome["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

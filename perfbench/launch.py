"""Run one program entry point in a child process and record what it cost.

Usage, from the root of a checkout::

    python3 perfbench/launch.py STATS_JSON TRACE ENTRY [ARGS...]

``ENTRY`` is ``report``, ``serve`` or ``tail`` -- the ``repro-report``,
``repro-serve`` and ``repro-tail`` console entry points, called with
``ARGS`` exactly as the console scripts would be -- or one of the
benchmark's own steps: ``gen DAYS SEED DIR`` (synthesize a dataset and
save it as CSVs), ``load DIR`` (``MiraDataset.load(DIR, mode="mmap")``)
and ``checkpoint FEED CKPT N GAP`` (restore the tail pipeline from its
checkpoint, time ``N`` checkpoint writes ``GAP`` seconds apart, and
check online = batch).

With ``TRACE`` = 1 the layer wrappers of :mod:`probes` are installed
before the entry runs.  When it returns, ``STATS_JSON`` receives the
exit code, the wall time since this process started, the peak resident
set of this process and of every child it reaped, the step's own
output and, when traced, the spans.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped descendant, MiB.

    ``VmHWM`` belongs to this process's own address space;
    ``ru_maxrss`` of RUSAGE_SELF would also carry the launching
    process's peak across ``exec``.
    """
    own = 0
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _gen(args, out, rec):
    import numpy

    from repro.dataset import MiraDataset

    days, seed, directory = float(args[0]), int(args[1]), args[2]
    dataset = MiraDataset.synthesize(n_days=days, seed=seed, cache=False)
    dataset.save(directory)
    out["rows"] = {
        name: getattr(dataset, name).n_rows
        for name in ("jobs", "ras", "tasks", "io")
    }
    out["numpy"] = numpy.__version__
    return 0


def _load(args, out, rec):
    from repro.dataset import MiraDataset

    MiraDataset.load(args[0], mode="mmap")
    return 0


def _report(args, out, rec):
    from repro.cli import main_report
    from repro.experiments import engine

    suite_fn, run_one = engine.run_suite, engine._run_one
    parent = os.getpid()

    @functools.wraps(run_one)
    def traced_run_one(*a, **k):
        # A pool worker ships its spans back on the outcome it returns.
        outcome = run_one(*a, **k)
        if rec is not None and os.getpid() != parent:
            object.__setattr__(outcome, "bench_trace", rec.take())
        return outcome

    @functools.wraps(suite_fn)
    def counted_suite(*a, **k):
        suite = suite_fn(*a, **k)
        out["experiments"] = {
            o.experiment_id: [o.status, o.seconds] for o in suite.outcomes
        }
        out["child_traces"] = [
            o.bench_trace for o in suite.outcomes if hasattr(o, "bench_trace")
        ]
        return suite

    engine._run_one = traced_run_one
    engine.run_suite = counted_suite
    return main_report(args)


def _serve(args, out, rec):
    from repro.serve.cli import main_serve

    return main_serve(args)


def _tail(args, out, rec):
    from repro.stream.cli import main_tail

    return main_tail(args)


def _checkpoint(args, out, rec):
    from repro.stream.pipeline import StreamPipeline

    pipeline = StreamPipeline(args[0], args[1])
    if not pipeline.resume():
        print("launch: no checkpoint to restore", file=sys.stderr)
        return 1
    seconds = []
    for _ in range(int(args[2])):
        started = time.perf_counter()
        pipeline.checkpoint()
        seconds.append(time.perf_counter() - started)
        time.sleep(float(args[3]))
    out["checkpoint_s"] = seconds
    out["verify_ok"] = bool(pipeline.verify_batch()["ok"])
    out["sources"] = pipeline.projected_results()["sources"]
    return 0


ENTRIES = {
    "gen": _gen,
    "load": _load,
    "report": _report,
    "serve": _serve,
    "tail": _tail,
    "checkpoint": _checkpoint,
}


def main(argv: list[str]) -> int:
    stats_path, traced, entry, rest = argv[0], argv[1] == "1", argv[2], argv[3:]
    rec = None
    if traced:
        import probes

        rec = probes.install()
    out: dict = {"pid": os.getpid()}
    code = 1
    try:
        code = ENTRIES[entry](rest, out, rec) or 0
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        out["exit"] = code
        out["wall_s"] = time.perf_counter() - START
        out["peak_rss_mb"] = _peak_rss_mb()
        if rec is not None:
            out["trace"] = rec.take()
        temp = f"{stats_path}.tmp"
        with open(temp, "w") as handle:
            json.dump(out, handle)
        os.replace(temp, stats_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

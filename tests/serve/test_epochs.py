"""Dataset epochs: live swap, cache invalidation, replay consistency."""

import shutil

import pytest

from repro.dataset.cache import fingerprint_for_run
from repro.dataset.mira import MiraDataset
from repro.serve.replay import epoch_summary
from repro.serve.resultcache import ResultCache, result_key
from repro.serve.server import ReproServer, ServeConfig
from repro.serve.workers import WorkerSlot, run_request


def query(srv, **payload):
    payload.setdefault("schema", 1)
    return srv.handle_query(payload)


@pytest.fixture(scope="module")
def dataset_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("epoch-datasets")
    old_dir, new_dir = root / "old", root / "new"
    MiraDataset.synthesize(2.0, seed=5, cache=False).save(old_dir)
    MiraDataset.synthesize(2.0, seed=6, cache=False).save(new_dir)
    return old_dir, new_dir


@pytest.fixture()
def live_dir(dataset_dirs, tmp_path):
    # A mutable copy of the "old" dataset the test can overwrite to
    # simulate the feed growing on disk.
    old_dir, _ = dataset_dirs
    target = tmp_path / "live"
    shutil.copytree(old_dir, target)
    return target


def _make_server(live_dir, tmp_path):
    dataset = MiraDataset.load(live_dir, cache=False)
    fingerprint = fingerprint_for_run(live_dir, 2.0, 5)

    def reloader():
        return (
            MiraDataset.load(live_dir, cache=False),
            fingerprint_for_run(live_dir, 2.0, 5),
        )

    srv = ReproServer(
        dataset,
        fingerprint=fingerprint,
        config=ServeConfig(workers=2, drain_s=3.0),
        reloader=reloader,
    )
    srv.start()
    return srv


class TestWorkerRebind:
    def test_rebind_swaps_dataset_and_counts(self):
        a = MiraDataset.synthesize(1.0, seed=1, cache=False)
        b = MiraDataset.synthesize(1.0, seed=2, cache=False)
        slot = WorkerSlot(run_request, a)
        assert slot.epoch == 0
        slot.rebind(b, 3)
        assert slot._dataset is b
        assert slot.epoch == 3
        assert slot.rebinds == 1
        assert slot.replacements == 0  # rebinds are not crash recoveries


class TestCacheInvalidation:
    def test_prune_memory_mismatched_drops_stale_epoch_entries(self):
        cache = ResultCache(max_bytes=1 << 20)
        params = (("mode", "summary"),)
        k_old = result_key("fp-old", params, "1.0")
        k_new = result_key("fp-new", params, "1.0")
        for key, fingerprint, n in (
            (k_old, "fp-old", 1), (k_new, "fp-new", 2)
        ):
            cache.put(
                key, outcome="ok", message="", result={"n": n},
                fingerprint=fingerprint, toolkit_version="1.0",
                params=params,
            )
        assert cache.prune_memory_mismatched("fp-new") == 1
        assert cache.get(k_old) is None
        entry, tier = cache.get(k_new)
        assert tier == "memory"
        assert entry.result == {"n": 2}


class TestAdvanceEpoch:
    def test_refused_without_a_reloader(self):
        dataset = MiraDataset.synthesize(1.0, seed=1, cache=False)
        srv = ReproServer(
            dataset, fingerprint="fp",
            config=ServeConfig(workers=1, drain_s=2.0),
        )
        srv.start()
        try:
            verdict = srv.advance_epoch()
            assert verdict["advanced"] is False
            assert verdict["reason"] == "no reloader configured"
            assert verdict["epoch"] == 0
        finally:
            srv.drain_and_stop("test-teardown")

    def test_unchanged_fingerprint_is_a_noop(self, live_dir, tmp_path):
        srv = _make_server(live_dir, tmp_path)
        try:
            verdict = srv.advance_epoch()
            assert verdict["advanced"] is False
            assert verdict["reason"] == "fingerprint unchanged"
        finally:
            srv.drain_and_stop("test-teardown")

    def test_reload_failure_is_reported_not_fatal(self, tmp_path):
        dataset = MiraDataset.synthesize(1.0, seed=1, cache=False)

        def broken():
            raise OSError("disk gone")

        srv = ReproServer(
            dataset, fingerprint="fp",
            config=ServeConfig(workers=1, drain_s=2.0),
            reloader=broken,
        )
        srv.start()
        try:
            verdict = srv.advance_epoch()
            assert verdict["advanced"] is False
            assert "reload failed" in verdict["reason"]
            # The server still answers under the old epoch.
            response = query(srv, mode="summary")
            assert response.outcome == "ok"
            assert response.epoch == 0
        finally:
            srv.drain_and_stop("test-teardown")

    def test_live_swap_invalidates_and_rebinds(
        self, dataset_dirs, live_dir, tmp_path
    ):
        _, new_dir = dataset_dirs
        srv = _make_server(live_dir, tmp_path)
        try:
            first = query(srv, mode="summary")
            assert first.outcome == "ok"
            assert first.epoch == 0
            assert first.cache == "miss"
            old_jobs = first.result["summary"]["n_jobs"]
            assert query(srv, mode="summary").cache == "hit_memory"

            # The dataset grows on disk: overwrite the live files.
            for path in new_dir.iterdir():
                shutil.copy(path, live_dir / path.name)
            verdict = srv.advance_epoch()
            assert verdict["advanced"] is True
            assert verdict["epoch"] == 1
            assert verdict["invalidated"] >= 1

            second = query(srv, mode="summary")
            assert second.outcome == "ok"
            assert second.epoch == 1
            assert second.cache == "miss"  # old answer was invalidated
            assert second.result["summary"]["n_jobs"] != old_jobs

            health = srv.healthz()
            assert health["dataset"]["epoch"] == 1
            assert health["dataset"]["epochs_advanced"] == 1
            assert health["workers"]["rebound"] >= 1
        finally:
            srv.drain_and_stop("test-teardown")


class TestEpochSummary:
    def test_consistent_when_witnesses_agree(self):
        results = [
            {"outcome": "ok", "epoch": 0, "n_jobs": 10},
            {"outcome": "ok", "epoch": 0, "n_jobs": 10},
            {"outcome": "ok", "epoch": 1, "n_jobs": 17},
        ]
        summary = epoch_summary(results, enabled=True)
        assert summary["observed"] == [0, 1]
        assert summary["mixed"] == []
        assert summary["untagged"] == 0
        assert summary["consistent"] is True

    def test_mixed_witnesses_fail_the_drill(self):
        results = [
            {"outcome": "ok", "epoch": 0, "n_jobs": 10},
            {"outcome": "ok", "epoch": 0, "n_jobs": 17},  # epoch-0 lies
        ]
        summary = epoch_summary(results, enabled=True)
        assert summary["mixed"] == [0]
        assert summary["consistent"] is False

    def test_untagged_only_fails_when_drill_enabled(self):
        results = [{"outcome": "ok", "epoch": None, "n_jobs": None}]
        assert epoch_summary(results, enabled=True)["consistent"] is False
        assert epoch_summary(results, enabled=False)["consistent"] is True

    def test_failed_shots_are_not_witnesses(self):
        results = [
            {"outcome": "ok", "epoch": 0, "n_jobs": 10},
            {"outcome": "error", "epoch": 0, "n_jobs": 99},
        ]
        summary = epoch_summary(results, enabled=True)
        assert summary["mixed"] == []
        assert summary["consistent"] is True

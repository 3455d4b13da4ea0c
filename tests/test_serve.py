"""Tests for ``python -m repro serve``: streaming runs + the replay cache.

The CI serve smoke-test step runs exactly this file (with a hard step
timeout): in-process ``ServeApp`` tests cover concurrent streamed runs and
the cache-hit guarantees, and one subprocess test exercises the real
``python -m repro serve`` entry point end to end.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import json
import logging
import multiprocessing
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import types
import urllib.request
import weakref
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cli import main
from repro.cm1.dataset import StoredCM1Dataset
from repro.core.backends import engine_backends
from repro.io.store import DatasetStore
from repro.metrics.registry import METRICS
from repro.scenarios import ExperimentScenario, create_scenario_config, scenario_names
from repro.scenarios.scenario import live_dataset
from repro.serve import RunRequest, ServeApp, serve_forever
from repro.serve.server import EXECUTION_TIERS
from repro.serve.cache import ReplayCache, scenario_cache_key
from repro.serve import procrun, protocol, server as server_module
from repro.serve.procrun import END_OF_STREAM, execute_run, run_scenario_in_worker
from repro.utils import procpool

TINY_RUN = {"scenario": "tiny", "snapshots": 2, "percent": 40.0}


def _tiny_config(**overrides):
    return create_scenario_config("tiny", **overrides)


def _resolve(cache, config):
    """``(scenario, was_hit)`` of one unpinned request: ``cache.acquire``
    opened and closed again."""
    with cache.acquire(config) as resolved:
        return resolved


def _store(cache, config) -> DatasetStore:
    """The store ``cache`` keeps, or would keep, for ``config``."""
    return DatasetStore(cache.root / scenario_cache_key(config))


# -- cache key + replay cache -------------------------------------------------


class TestScenarioCacheKey:
    def test_equal_configs_share_a_key(self):
        assert scenario_cache_key(_tiny_config()) == scenario_cache_key(_tiny_config())

    def test_overrides_change_the_key(self):
        base = scenario_cache_key(_tiny_config())
        assert scenario_cache_key(_tiny_config(seed=999)) != base
        assert scenario_cache_key(_tiny_config(nsnapshots=7)) != base

    def test_key_is_filesystem_safe_and_named(self):
        key = scenario_cache_key(_tiny_config())
        assert key.startswith("tiny-")
        assert key.replace("-", "").replace("_", "").isalnum()


class TestReplayCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)
        assert not _store(cache, config).exists()
        _, was_hit = _resolve(cache, config)
        assert was_hit is False
        assert _store(cache, config).exists()
        scenario, was_hit = _resolve(cache, config)
        assert was_hit is True
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 0 and stats["entries"] == 1
        # The hit replays the store through read-only memory maps.
        assert isinstance(scenario.dataset, StoredCM1Dataset)
        assert scenario.dataset.mmap

    def test_hit_serves_mmap_backed_fields(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=1)
        _resolve(cache, config)  # warm
        scenario, was_hit = _resolve(cache, config)
        assert was_hit is True
        field = scenario.dataset.snapshot(0).get_field(config.field_name)
        # Domain validation wraps the memmap in an ndarray view; the backing
        # buffer must still be the file mapping (zero-copy, no owndata).
        assert not field.flags.owndata
        assert isinstance(field.base, np.memmap)

    def test_replayed_data_matches_live_simulation(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)
        _resolve(cache, config)  # warm
        replay, was_hit = _resolve(cache, config)
        assert was_hit is True
        live = ExperimentScenario(config)
        for index in range(config.nsnapshots):
            np.testing.assert_array_equal(
                live.field(index),
                replay.dataset.snapshot(index).get_field(config.field_name),
            )

    def test_concurrent_identical_requests_simulate_once(self, tmp_path, monkeypatch):
        import repro.cm1.simulation as simulation

        calls = []
        original = simulation.CM1Simulation.snapshot

        def counting(self, snapshot_index):
            calls.append(snapshot_index)
            return original(self, snapshot_index)

        monkeypatch.setattr(simulation.CM1Simulation, "snapshot", counting)
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)

        with ThreadPoolExecutor(max_workers=4) as pool:
            verdicts = [
                f.result()[1]
                for f in [pool.submit(_resolve, cache, config) for _ in range(4)]
            ]
        assert sorted(verdicts) == [False, True, True, True]
        # Exactly one simulation of each snapshot: the per-key lock made the
        # other three requests wait, then replay from disk.
        assert sorted(calls) == [0, 1]

    def test_key_locks_do_not_outlive_their_requests(self, tmp_path, monkeypatch):
        """Bound law: a key's lock is dropped once no thread holds or waits on
        it, so distinct configs acquired and released one after another, through
        both doors, leave no lock behind (one used to stay per config ever
        requested)."""
        dataset = live_dataset(_tiny_config(nsnapshots=1))
        monkeypatch.setattr("repro.serve.cache.live_dataset", lambda config: dataset)
        cache = ReplayCache(tmp_path / "cache")
        for seed in range(24):
            door = cache.acquire if seed % 2 else cache.acquire_store
            with door(_tiny_config(nsnapshots=1, seed=seed)):
                pass
            assert cache._key_locks == {}
        assert cache.stats()["misses"] == 24

    def test_key_locks_under_contention(self, tmp_path, monkeypatch):
        """Stress law: eight threads, more than the cores, racing twelve
        requests over four configs with a shortened switch interval: each
        config is saved once, every other request hits, and no key lock is
        left once they are done (a lost update of a lock's user count would
        leave one behind or drop one a thread still waits on)."""
        dataset = live_dataset(_tiny_config(nsnapshots=1))
        saves = []

        class Persisting:
            def save(self, store_dir, extra_metadata):
                saves.append(store_dir.name)
                dataset.save(store_dir, extra_metadata=extra_metadata)

        monkeypatch.setattr("repro.serve.cache.live_dataset", lambda config: Persisting())
        cache = ReplayCache(tmp_path / "cache")
        configs = [_tiny_config(nsnapshots=1, seed=seed) for seed in range(4)] * 3

        def request(config):
            with cache.acquire_store(config) as (_, was_hit):
                return was_hit

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                verdicts = list(pool.map(request, configs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(saves) == sorted({scenario_cache_key(c) for c in configs})
        assert verdicts.count(False) == 4 and verdicts.count(True) == 8
        assert cache._key_locks == {}

    def test_a_waiter_keeps_the_key_lock_alive(self, tmp_path, monkeypatch):
        """Race law: a thread that fetched a key's lock while the holder was
        inside a miss waits on the lock every later thread waits on, so one
        save serves them all.  The first miss fails (a full disk), the second
        thread takes the miss over, and a third one arriving meanwhile must
        wait for it rather than simulate beside it, which a lock dropped on
        the first release, waiter or not, would let it do."""
        config = _tiny_config(nsnapshots=1)
        key = scenario_cache_key(config)
        dataset = live_dataset(config)
        first_inside, fail_first = threading.Event(), threading.Event()
        retry_inside, finish_retry = threading.Event(), threading.Event()
        saves = []

        class Persisting:
            def save(self, store_dir, extra_metadata):
                if not saves:
                    saves.append("failed")
                    first_inside.set()
                    fail_first.wait(10)
                    raise OSError("no space left on device")
                saves.append("saved")
                retry_inside.set()
                finish_retry.wait(10)
                dataset.save(store_dir, extra_metadata=extra_metadata)

        monkeypatch.setattr("repro.serve.cache.live_dataset", lambda config: Persisting())
        cache = ReplayCache(tmp_path / "cache")
        verdicts = {}

        def request(name):
            try:
                with cache.acquire_store(config) as (_, was_hit):
                    verdicts[name] = was_hit
            except OSError:
                verdicts[name] = "failed"

        def users():
            with cache._guard:
                held = cache._key_locks.get(key)
                return 0 if held is None else held.users

        def wait_until(condition):
            deadline = time.monotonic() + 10
            while not condition():
                assert time.monotonic() < deadline
                time.sleep(0.001)

        threads = {
            name: threading.Thread(target=request, args=(name,))
            for name in ("first", "second", "third")
        }
        threads["first"].start()
        assert first_inside.wait(10)
        threads["second"].start()
        wait_until(lambda: users() == 2)  # the second fetched the lock
        fail_first.set()
        assert retry_inside.wait(10)  # the second took the miss over
        threads["third"].start()
        wait_until(lambda: users() == 2 or len(saves) > 2)
        finish_retry.set()
        for thread in threads.values():
            thread.join(10)
            assert not thread.is_alive()
        assert saves == ["failed", "saved"]
        assert verdicts == {"first": "failed", "second": False, "third": True}
        assert cache._key_locks == {}


class TestReplayCacheEviction:
    """The LRU bounds: entries/bytes accounting, pinning, and counters."""

    @pytest.mark.parametrize("kwargs", [{"max_entries": 0}, {"max_bytes": 0}])
    def test_bounds_validated(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            ReplayCache(tmp_path / "cache", **kwargs)

    def test_lru_order_evicts_least_recently_used(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache", max_entries=2)
        a = _tiny_config(nsnapshots=1)
        b = _tiny_config(nsnapshots=1, seed=101)
        c = _tiny_config(nsnapshots=1, seed=102)
        _resolve(cache, a)
        _resolve(cache, b)
        _resolve(cache, a)  # touch: A becomes most recently used
        _resolve(cache, c)  # over bound: B (LRU) must go, not A
        assert _store(cache, a).exists() and _store(cache, c).exists()
        assert not _store(cache, b).exists()
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2

    def test_evicted_entry_resimulates_on_return(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache", max_entries=1)
        a = _tiny_config(nsnapshots=1)
        b = _tiny_config(nsnapshots=1, seed=101)
        _resolve(cache, a)
        _resolve(cache, b)  # evicts A
        _, was_hit = _resolve(cache, a)
        assert was_hit is False  # the store really was deleted
        assert cache.stats()["misses"] == 3

    def test_max_bytes_accounting_matches_raw_store(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)
        _resolve(cache, config)
        store = _store(cache, config)
        nbytes = store.nbytes()
        # The charged bytes are exactly the raw-layout store's on-disk size.
        assert cache.stats()["bytes"] == nbytes
        assert nbytes == sum(
            p.stat().st_size for p in store.root.rglob("*") if p.is_file()
        )
        # A bound sized for exactly one such entry holds one and evicts on
        # the second insert.
        bounded = ReplayCache(tmp_path / "bounded", max_bytes=nbytes)
        _resolve(bounded, config)
        assert bounded.stats()["evictions"] == 0
        _resolve(bounded, _tiny_config(nsnapshots=2, seed=77))
        stats = bounded.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] <= nbytes

    def test_never_evicts_entry_with_inflight_reader(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache", max_entries=1)
        a = _tiny_config(nsnapshots=1)
        b = _tiny_config(nsnapshots=1, seed=101)
        with cache.acquire_store(a) as (store_a, _):
            # B pushes the cache over its bound while A is pinned: the only
            # evictable entry is B itself; A must survive untouched.
            _resolve(cache, b)
            assert DatasetStore(store_a).exists()
            assert _store(cache, a).exists()
            assert not _store(cache, b).exists()
            assert cache.stats()["evictions"] == 1
        assert _store(cache, a).exists()  # still present after release (cache fits now)

    def test_concurrent_bounded_replays_all_succeed(self, tmp_path):
        """Hammer a max_entries=1 cache from many threads across two
        configs: every run must stream valid data (pinned entries are never
        deleted under a reader) and the cache must end within its bound."""
        cache = ReplayCache(tmp_path / "cache", max_entries=1)
        configs = [
            _tiny_config(nsnapshots=1),
            _tiny_config(nsnapshots=1, seed=101),
        ]

        def replay(config):
            with cache.acquire(config) as (scenario, _):
                field = scenario.dataset.snapshot(0).get_field(config.field_name)
                return float(field.sum())

        expected = [replay(c) for c in configs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(replay, configs[i % 2]) for i in range(16)
            ]
            results = [f.result() for f in futures]
        for index, value in enumerate(results):
            assert value == expected[index % 2]
        assert cache.stats()["entries"] <= 1


def _cut_manifest(entry):
    """What a server killed mid-``save`` leaves: fewer iterations recorded
    than the metadata announces."""
    path = entry / "manifest.json"
    payload = json.loads(path.read_text())
    payload["iterations"] = payload["iterations"][:2]
    path.write_text(json.dumps(payload))


def _version_1(entry):
    """A previous release's entry."""
    path = entry / "manifest.json"
    payload = json.loads(path.read_text())
    payload["version"] = 1
    path.write_text(json.dumps(payload))


def _last_bin(entry):
    return sorted(entry.glob("iter_*.bin"))[-1]


def _drop_bin(entry):
    _last_bin(entry).unlink()


def _truncate_bin(entry):
    path = _last_bin(entry)
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 8)


class TestCacheAdoption:
    """A cache directory is adopted only if it can be served as it stands.

    Fails when an entry is adopted on ``exists()`` alone, when the version
    is checked but not the iteration count, and when the count is checked but
    not the file sizes.
    """

    REQUEST = RunRequest(scenario="tiny", snapshots=3, percent=40.0)

    @pytest.fixture(scope="class")
    def good_entry(self, tmp_path_factory):
        cache = ReplayCache(tmp_path_factory.mktemp("good"))
        config = self.REQUEST.scenario_config()
        _resolve(cache, config)
        return _store(cache, config).root

    @pytest.mark.parametrize("when", ["on_construction", "on_demand"])
    @pytest.mark.parametrize(
        "spoil", [_cut_manifest, _version_1, _drop_bin, _truncate_bin],
        ids=["partial_manifest", "version_1", "missing_bin", "truncated_bin"],
    )
    def test_bad_entry_is_dropped_and_rebuilt(
        self, tmp_path, caplog, good_entry, spoil, when
    ):
        config = self.REQUEST.scenario_config()
        key = scenario_cache_key(config)
        root = tmp_path / "cache"
        root.mkdir()
        if when == "on_demand":
            cache = ReplayCache(root)
        shutil.copytree(good_entry, root / key)
        spoil(root / key)
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            if when == "on_construction":
                cache = ReplayCache(root)
                assert cache.stats()["entries"] == 0
            with cache.acquire(config) as (scenario, was_hit):
                assert was_hit is False
                rows, run = _rows_and_run(self.REQUEST, scenario)
        assert len(rows) == run["iterations"] == config.nsnapshots == 3
        warnings = [r for r in caplog.records if r.name == "repro.serve.cache"]
        assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
        assert key in warnings[0].getMessage()
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 0 and stats["entries"] == 1
        # The rebuilt entry is whole: a fresh cache adopts it as a hit.
        with ReplayCache(root).acquire(config) as (_, was_hit):
            assert was_hit is True


def _rows_and_run(request, scenario):
    """The iteration rows and the summary ``run`` block of one run."""
    events = []
    summary, _ = execute_run(request, scenario, events.append, lambda: None)
    return [e for e in events if e["type"] == "iteration"], summary["run"]


class TestResidentScenario:
    """A hit reuses its entry's opened scenario while the entry is resident."""

    @pytest.mark.parametrize("backend", engine_backends())
    def test_shared_scenario_answers_like_a_fresh_one(self, tmp_path, backend):
        """Four concurrent runs on one acquired scenario, twice per key, give
        the solo answer of a freshly opened store under each engine, bitwise
        (a request names no engine: the door runs the default one).  Fails if
        residency is keyed by ``config.name`` (the second seed replays the
        first seed's snapshots) or if a step writes into the arrival's
        ``homes`` in place (later runs start from another run's owners)."""
        cache = ReplayCache(tmp_path / "cache")
        modes = [{"percent": 0.0}, {"percent": 50.0}, {"percent": 100.0}, {"target": 30.0}]
        requests = [
            [
                RunRequest(scenario="tiny", snapshots=3, seed=seed, metric=metric,
                           redistribution="round_robin", **mode)
                for seed in (11, 12)
            ]
            for metric in ("VAR", "FPZIP")
            for mode in modes
        ]
        threads = 4
        barrier = threading.Barrier(threads, timeout=60)

        def together(request, scenario):
            barrier.wait()
            return _rows_and_run(request, scenario)

        for same_but_seed in requests:
            oracles = []
            for request in same_but_seed:
                config = request.scenario_config()
                _resolve(cache, config)  # make sure the store exists
                # The replaced hit body: the store opened afresh, one run alone.
                fresh = ExperimentScenario.from_store(config, _store(cache, config).root)
                fresh.build_pipeline = functools.partial(fresh.build_pipeline, engine=backend)
                rows, run = _rows_and_run(request, fresh)
                # Only the engine's name differs: the door runs the default.
                assert run["config"]["engine"] == backend
                run["config"]["engine"] = "vectorized"
                oracles.append((rows, run))
            assert oracles[0] != oracles[1]
            for request, oracle in zip(same_but_seed, oracles):
                opened = []
                for _ in range(2):
                    with cache.acquire(request.scenario_config()) as (scenario, was_hit):
                        assert was_hit
                        opened.append(scenario)
                        with ThreadPoolExecutor(max_workers=threads) as pool:
                            answers = list(
                                pool.map(together, [request] * threads, [scenario] * threads)
                            )
                    assert answers == [oracle] * threads
                assert opened[0] is opened[1]

    def test_at_most_pinned_entries_and_the_latest_stay_resident(self, tmp_path):
        """Fails if a release never clears an entry's scenario (all five stay
        resident) or if the latest entry loses it (C is re-opened)."""
        cache = ReplayCache(tmp_path / "cache")
        configs = [_tiny_config(nsnapshots=1, seed=300 + i) for i in range(5)]
        for config in configs:
            _resolve(cache, config)
            _resolve(cache, config)
        assert cache.stats()["resident"] == 1
        a, b, c = configs[:3]
        with cache.acquire(a) as (pinned, _):
            first_b, _ = _resolve(cache, b)
            first_c, _ = _resolve(cache, c)
            assert cache.stats()["resident"] == 2  # A (pinned) and C (latest)
            assert _resolve(cache, c)[0] is first_c
            assert _resolve(cache, b)[0] is not first_b
            assert _resolve(cache, a)[0] is pinned
        assert cache.stats()["resident"] == 1

    def test_evicted_key_is_opened_afresh(self, tmp_path):
        """Fails if an opened scenario outlives its entry (say a module-level
        memo keyed by the cache key): the re-simulated store must not be
        replayed through the evicted one's object."""
        cache = ReplayCache(tmp_path / "cache", max_entries=1)
        a = _tiny_config(nsnapshots=1)
        before, _ = _resolve(cache, a)
        _resolve(cache, _tiny_config(nsnapshots=1, seed=101))  # evicts A
        after, was_hit = _resolve(cache, a)
        assert was_hit is False
        assert after is not before
        stats = cache.stats()
        assert stats["evictions"] == 2 and stats["resident"] == 1


def _run_in_worker(request, store_dir):
    """The process tier's worker body, in-process on slot 0 as run 1:
    ``(rows, summary)``."""
    sent = []
    channel = (0, types.SimpleNamespace(send=sent.append), [0])
    with mock.patch.object(procpool, "_WORKER_CHANNEL", channel):
        summary = run_scenario_in_worker(
            request, request.scenario_config(), str(store_dir), 1, None
        )
    assert sent[0] == (1, 0) and sent[-1] == (1, END_OF_STREAM)
    streamed = [item for _, item in sent[1:-1]]
    return [e for e in streamed if e["type"] == "iteration"], summary


def _fresh_answer(request, store_dir):
    """The replaced worker body: the store opened afresh for one run."""
    scenario = ExperimentScenario.from_store(request.scenario_config(), str(store_dir))
    rows = []  # execute_run emits only iteration events
    summary, _ = execute_run(request, scenario, rows.append, lambda: None)
    return rows, summary


class TestWorkerResidentScenario:
    """A process-tier worker keeps the scenario it opened last.

    Each law names the hand mutation of ``procrun._resident_scenario`` that
    fails it: no slot (every run opens the store), no stamp check (the key is
    config and path only), the slot keyed on ``config.name`` alone, and
    open-then-drop (``from_store`` before the held scenario is released).
    """

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(procrun, "_RESIDENT", None)

    def _spy_on_opens(self, monkeypatch):
        """Record every ``from_store`` call as ``(seed, store_dir, held)``:
        ``held`` says whether the scenario tracked by :meth:`_track_slot`
        was still alive at entry."""
        calls = []
        from_store = ExperimentScenario.from_store
        self.tracked = lambda: None

        def spy(config, store_dir):
            calls.append((config.seed, store_dir, self.tracked() is not None))
            return from_store(config, store_dir)

        monkeypatch.setattr(ExperimentScenario, "from_store", staticmethod(spy))
        return calls

    def _track_slot(self):
        """Track the slot's scenario through a weakref: the test holds none."""
        self.tracked = weakref.ref(procrun._RESIDENT[3])

    @staticmethod
    def _request(seed):
        return RunRequest(scenario="tiny", snapshots=2, seed=seed, percent=40.0,
                          redistribution="round_robin")

    def test_one_config_is_opened_once(self, tmp_path, monkeypatch):
        """Fails with no slot: the second run opens the store again."""
        request = self._request(21)
        with ReplayCache(tmp_path).acquire_store(request.scenario_config()) as (store, _):
            oracle = _fresh_answer(request, store)
            calls = self._spy_on_opens(monkeypatch)
            answers = [_run_in_worker(request, store) for _ in range(2)]
        assert answers == [oracle, oracle]
        assert [call[:2] for call in calls] == [(21, str(store))]

    def test_a_rebuilt_store_is_opened_afresh(self, tmp_path, monkeypatch):
        """The store evicted and simulated again at the same path gets a new
        manifest inode.  Fails with no stamp check: the worker keeps running
        over the deleted store's maps."""
        request, other = self._request(22), self._request(23)
        cache = ReplayCache(tmp_path, max_entries=1)
        config = request.scenario_config()
        calls = self._spy_on_opens(monkeypatch)
        with cache.acquire_store(config) as (store, _):
            first = _run_in_worker(request, store)
        with cache.acquire_store(other.scenario_config()):
            pass  # evicts the first store
        with cache.acquire_store(config) as (rebuilt, was_hit):
            assert was_hit is False and rebuilt == store
            assert _run_in_worker(request, store) == first
        assert [call[:2] for call in calls] == [(22, str(store))] * 2

    def test_a_second_seed_is_a_different_scenario(self, tmp_path, monkeypatch):
        """Fails with the slot keyed on ``config.name``: seed 25 would replay
        seed 24's snapshots."""
        cache = ReplayCache(tmp_path)
        answers = {}
        for seed in (24, 25):
            request = self._request(seed)
            with cache.acquire_store(request.scenario_config()) as (store, _):
                answers[seed] = (request, store, _fresh_answer(request, store))
        assert answers[24][2] != answers[25][2]
        calls = self._spy_on_opens(monkeypatch)
        for seed in (24, 25, 25):
            request, store, oracle = answers[seed]
            assert _run_in_worker(request, store) == oracle
        assert [call[0] for call in calls] == [24, 25]

    def test_a_switch_drops_the_held_scenario_before_opening(self, tmp_path, monkeypatch):
        """A worker never holds two opened stores.  Fails with open-then-drop:
        the old scenario is still alive when ``from_store`` is entered."""
        cache = ReplayCache(tmp_path)
        first, second = self._request(26), self._request(27)
        calls = self._spy_on_opens(monkeypatch)
        with cache.acquire_store(first.scenario_config()) as (store, _):
            _run_in_worker(first, store)
        self._track_slot()
        with cache.acquire_store(second.scenario_config()) as (store, _):
            _run_in_worker(second, store)
        assert [(seed, held) for seed, _, held in calls] == [(26, False), (27, False)]
        assert procrun._RESIDENT[0] == second.scenario_config()


# -- request validation -------------------------------------------------------


class TestRunRequest:
    def test_minimal_payload(self):
        request = RunRequest.from_payload({"scenario": "tiny"})
        assert request.scenario == "tiny"
        assert not hasattr(request, "pipelined")

    def test_full_payload(self):
        request = RunRequest.from_payload(
            {
                "scenario": "tiny", "ranks": 4, "snapshots": 3, "seed": 7,
                "metric": "VAR", "redistribution": "shuffle", "percent": 40.0,
                "render_mode": "mesh",
            }
        )
        assert request.ranks == 4 and request.render_mode == "mesh"

    def test_removed_pipelined_field_is_unknown(self):
        """No silent-ignore shim: the field went away with the engine."""
        with pytest.raises(ValueError, match=r"unknown request fields: \['pipelined'\]"):
            RunRequest.from_payload({"scenario": "tiny", "pipelined": False})

    def test_timeout_parsed(self):
        request = RunRequest.from_payload({"scenario": "tiny", "timeout_s": 2.5})
        assert request.timeout_s == 2.5
        assert RunRequest.from_payload({"scenario": "tiny"}).timeout_s is None

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # scenario missing
            {"scenario": "  "},
            {"scenario": "tiny", "bogus_field": 1},
            {"scenario": "tiny", "metric": "NOPE"},
            {"scenario": "tiny", "redistribution": "sideways"},
            {"scenario": "tiny", "render_mode": "holo"},
            {"scenario": "tiny", "backend": "quantum"},
            {"scenario": "tiny", "timeout_s": 0},
            {"scenario": "tiny", "timeout_s": -1.5},
            "not an object",
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            RunRequest.from_payload(payload)


# -- in-process HTTP service --------------------------------------------------


@contextlib.asynccontextmanager
async def serve_app(tmp_path, **kwargs):
    app = ServeApp(tmp_path / "cache", **kwargs)
    server = await app.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        yield app, port
    finally:
        server.close()
        await server.wait_closed()
        app.close()


async def _request(port, method, path, payload=None):
    """One raw HTTP exchange; returns (status, body bytes read to EOF)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    with contextlib.suppress(ConnectionResetError, BrokenPipeError):
        await writer.wait_closed()
    head, _, payload_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split()[1])
    return status, payload_bytes


def _events(body: bytes):
    return [json.loads(line) for line in body.decode("utf-8").splitlines() if line]


def _assert_run_stream(events, iterations):
    """One streamed run: start, then per-iteration rows in order, then summary."""
    assert [e["type"] for e in events] == (
        ["start"] + ["iteration"] * iterations + ["summary"]
    )
    rows = [e for e in events if e["type"] == "iteration"]
    assert [row["iteration"] for row in rows] == list(range(iterations))
    for row in rows:
        assert row["nblocks"] > 0
        assert row["modelled_total"] > 0
        assert set(row["modelled_steps"]) == {
            "scoring", "sorting", "reduction", "redistribution", "rendering",
        }
    summary = events[-1]
    assert summary["run"]["iterations"] == iterations
    assert set(summary["run"]) == {
        "config", "iterations", "rendering_mean", "rendering_min",
        "rendering_max", "total_mean", "percent_final",
    }
    assert summary["run"]["config"] == summary["config"]
    assert "pipelined" not in summary["config"]
    assert summary["config"]["engine"] == "vectorized"


class TestServeApp:
    def test_health_and_scenarios(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "GET", "/health")
                assert status == 200
                assert json.loads(raw)["status"] == "ok"
                status, raw = await _request(port, "GET", "/scenarios")
                assert status == 200
                assert json.loads(raw)["scenarios"] == list(scenario_names())

        asyncio.run(body())

    def test_bind_failure_still_closes_the_app(self, tmp_path):
        """A port already in use: ``serve_forever`` raises and still closes
        the app it was given.  Fails if ``app.start`` moves back before the
        ``try``."""
        app = ServeApp(tmp_path / "cache")
        mask = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                asyncio.run(serve_forever(app, "127.0.0.1", taken.getsockname()[1]))
        assert app._shutdown.is_set()
        if mask is not None:  # the loop's thread is this one: it is given back
            assert os.sched_getaffinity(0) == mask

    def test_single_run_streams_per_iteration_json(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                events = _events(raw)
                _assert_run_stream(events, iterations=2)
                assert events[0]["cache"] == "miss"
                assert events[0]["cache_key"].startswith("tiny-")

        asyncio.run(body())

    def test_four_concurrent_runs_and_single_simulation(self, tmp_path, monkeypatch):
        """The acceptance gate: >=4 concurrent tiny runs, all streamed, the
        identical ones resolved by one simulation."""
        import repro.cm1.simulation as simulation

        calls = []
        original = simulation.CM1Simulation.snapshot

        def counting(self, snapshot_index):
            calls.append(snapshot_index)
            return original(self, snapshot_index)

        monkeypatch.setattr(simulation.CM1Simulation, "snapshot", counting)

        async def body():
            async with serve_app(tmp_path, max_workers=4) as (app, port):
                results = await asyncio.gather(
                    *[_request(port, "POST", "/run", TINY_RUN) for _ in range(4)]
                )
                for status, raw in results:
                    assert status == 200
                    _assert_run_stream(_events(raw), iterations=2)
                verdicts = sorted(
                    _events(raw)[0]["cache"] for _, raw in results
                )
                assert verdicts == ["hit", "hit", "hit", "miss"]
                stats = app.cache.stats()
                assert stats["hits"] == 3 and stats["misses"] == 1

        asyncio.run(body())
        # The four concurrent identical requests simulated each snapshot once.
        assert sorted(calls) == [0, 1]

    def test_second_identical_request_replays_without_simulation(
        self, tmp_path, monkeypatch
    ):
        """After a warm run, an identical request must never re-simulate:
        the simulation is forbidden outright and the run still succeeds."""
        import repro.cm1.simulation as simulation

        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                assert _events(raw)[0]["cache"] == "miss"

                def forbidden(self, snapshot_index):
                    raise AssertionError("cache hit must not re-simulate CM1")

                monkeypatch.setattr(
                    simulation.CM1Simulation, "snapshot", forbidden
                )
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                events = _events(raw)
                assert events[0]["cache"] == "hit"
                _assert_run_stream(events, iterations=2)

        asyncio.run(body())

    def test_cached_replay_matches_live_run_bitwise(self, tmp_path):
        """The mmap replay feeds the pipeline the same numbers as the live
        simulation: identical modelled timings, block counts, and scores."""

        async def body():
            async with serve_app(tmp_path) as (_, port):
                _, first = await _request(port, "POST", "/run", TINY_RUN)
                _, second = await _request(port, "POST", "/run", TINY_RUN)
                rows = lambda raw: [
                    e for e in _events(raw) if e["type"] == "iteration"
                ]
                assert rows(first) == rows(second)

        asyncio.run(body())

    def test_request_thread_never_forks_a_pool(self, tmp_path, two_workers):
        """A GIL-bound metric on the thread tier used to create the shared
        pool (a fork) from a request thread with the other request threads
        running.  The rule refuses any caller but the main thread: the run
        scores inline and no pool exists afterwards."""
        from repro.utils import procpool

        procpool.shutdown_shared_pool()

        async def body():
            async with serve_app(tmp_path) as (_, port):
                _, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "metric": "PYVAR"}
                )
                return _events(raw)

        _assert_run_stream(asyncio.run(body()), iterations=2)
        assert procpool._POOL is None

    def test_different_overrides_miss_separately(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (app, port):
                await _request(port, "POST", "/run", TINY_RUN)
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "seed": 1234}
                )
                assert status == 200
                assert _events(raw)[0]["cache"] == "miss"
                assert app.cache.stats()["misses"] == 2

        asyncio.run(body())

    def test_run_error_streams_error_event(self, tmp_path, monkeypatch):
        """A failure mid-run surfaces as a streamed error event, not a hang."""
        import repro.cm1.simulation as simulation

        def explode(self, snapshot_index):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(simulation.CM1Simulation, "snapshot", explode)

        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "exception"
                assert "synthetic failure" in events[-1]["error"]

        asyncio.run(body())

    def test_unexpected_exception_is_logged_with_its_type(
        self, tmp_path, monkeypatch, caplog
    ):
        """The error event tells the client *that* a run failed; the log record
        is the only place the exception type, traceback and request land."""
        from repro.metrics.statistics import VarianceMetric

        def explode(self, batch):
            raise ZeroDivisionError("synthetic metric failure")

        monkeypatch.setattr(VarianceMetric, "score_batch", explode)

        async def body():
            async with serve_app(tmp_path) as (_, port):
                _, raw = await _request(port, "POST", "/run", {**TINY_RUN, "seed": 77})
                return _events(raw)

        with caplog.at_level(logging.ERROR, logger="repro.serve"):
            events = asyncio.run(body())
        assert [e["type"] for e in events] == ["start", "error"]
        assert events[-1] == {
            "type": "error",
            "reason": "exception",
            "error": "synthetic metric failure",
        }
        (record,) = [r for r in caplog.records if r.name == "repro.serve.server"]
        assert record.levelno == logging.ERROR
        assert record.exc_info[0] is ZeroDivisionError
        message = record.getMessage()
        assert "ZeroDivisionError" in message
        assert "scenario=tiny" in message and "seed=77" in message

    def test_health_reports_executor_depth(self, tmp_path):
        async def body():
            async with serve_app(tmp_path, max_workers=3) as (_, port):
                _, raw = await _request(port, "GET", "/health")
                executor = json.loads(raw)["executor"]
                assert executor == {
                    "execution": "thread",
                    "workers": 3,
                    "active": 0,
                    "queued": 0,
                    "completed": 0,
                }
                await _request(port, "POST", "/run", TINY_RUN)
                _, raw = await _request(port, "GET", "/health")
                health = json.loads(raw)
                assert health["execution"] == "thread"
                assert health["executor"]["completed"] == 1
                assert health["executor"]["active"] == 0
                assert health["cache"]["misses"] == 1

        asyncio.run(body())

    def test_request_timeout_streams_timeout_error(self, tmp_path, shm_leak_check):
        """A tiny ``timeout_s`` cancels the run with the distinct reason —
        and the cancelled run leaves no shared-memory segment behind."""
        new_shm_segments = shm_leak_check()

        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 1e-4}
                )
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "timeout"
                assert "deadline" in events[-1]["error"]

        asyncio.run(body())
        assert new_shm_segments() == set()

    def test_server_side_max_run_seconds_caps_requests(self, tmp_path):
        """The server cap applies even when the request asks for longer."""

        async def body():
            async with serve_app(tmp_path, max_run_seconds=1e-4) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 3600.0}
                )
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "timeout"

        asyncio.run(body())

    def test_generous_timeout_does_not_fire(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 3600.0}
                )
                assert status == 200
                _assert_run_stream(_events(raw), iterations=2)

        asyncio.run(body())

    def test_watchdog_closes_the_reply_of_a_wedged_run(self, tmp_path, monkeypatch, caplog):
        """A run stuck inside one iteration, never calling ``check``: the
        reply gets its ``timeout`` event and reaches EOF at deadline + grace,
        not when the run ends.  The run stays active until its thread ends,
        so ``close`` drains it, and its events after the stream gave up —
        here after the loop closed — are dropped without raising.  Fails if
        ``stream_run`` waits for the runner before the response closes."""
        release = threading.Event()
        late_emits = []

        def wedged(request, scenario, emit, check):
            release.wait(4.0)
            emit({"type": "iteration", "iteration": 0})
            late_emits.append("returned")
            return {"type": "summary"}, None

        monkeypatch.setattr("repro.serve.server.execute_run", wedged)
        monkeypatch.setattr("repro.serve.server.STREAM_GRACE_SECONDS", 0.3)
        app = ServeApp(tmp_path / "cache")
        # Simulated up front, so no cooperative check can expire the run
        # before it wedges: only the watchdog can end this reply.
        with app.cache.acquire(RunRequest.from_payload(TINY_RUN).scenario_config()):
            pass

        async def body():
            server = await app.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                start = time.monotonic()
                status, raw = await _request(port, "POST", "/run", {**TINY_RUN, "timeout_s": 0.3})
                seconds = time.monotonic() - start
                _, health = await _request(port, "GET", "/health")
            return status, _events(raw), seconds, json.loads(health)["executor"]

        with caplog.at_level(logging.DEBUG):
            try:
                status, events, seconds, executor = asyncio.run(body())
            finally:
                release.set()
                app.close()
        assert seconds < 2.0, f"the reply closed {seconds:.2f}s in, after the run"
        assert status == 200
        assert [(e["type"], e.get("reason")) for e in events] == [
            ("start", None), ("error", "timeout"),
        ]
        assert events[-1]["error"] == "run exceeded its deadline of 0.300s"
        assert executor["active"] == 1
        assert late_emits == ["returned"]
        assert app.health()["executor"] | {"workers": None} == {
            "execution": "thread", "workers": None, "active": 0, "queued": 0, "completed": 1,
        }
        assert [r for r in caplog.records if r.name.startswith("repro")] == []

    def test_nothing_a_wedged_run_emits_follows_the_watchdogs_line(
        self, tmp_path, monkeypatch
    ):
        """One writer at a time: once the watchdog wrote its ``timeout`` line,
        the wedged run wakes and emits into the same reply, whose connection
        is held open until it is done.  None of it may reach the client:
        every line parses and the last is the ``timeout`` event.  Fails with
        a writer that ignores its closed flag."""
        watchdog, burst = threading.Event(), threading.Event()

        def wedged(request, scenario, emit, check):
            watchdog.wait(10.0)
            for index in range(50):
                emit({"type": "iteration", "iteration": index})
            burst.set()
            return {"type": "summary"}, None

        stream_run = ServeApp.stream_run

        async def held_open(self, *args):
            await stream_run(self, *args)
            watchdog.set()
            await asyncio.to_thread(burst.wait, 10.0)

        monkeypatch.setattr("repro.serve.server.execute_run", wedged)
        monkeypatch.setattr("repro.serve.server.STREAM_GRACE_SECONDS", 0.3)
        monkeypatch.setattr(ServeApp, "stream_run", held_open)
        app = ServeApp(tmp_path / "cache")
        with app.cache.acquire(RunRequest.from_payload(TINY_RUN).scenario_config()):
            pass

        async def body():
            server = await app.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                return await _request(port, "POST", "/run", {**TINY_RUN, "timeout_s": 0.3})

        try:
            status, raw = asyncio.run(body())
        finally:
            app.close()
        assert burst.is_set()
        assert status == 200 and raw.endswith(b"\n")
        assert [(e["type"], e.get("reason")) for e in _events(raw)] == [
            ("start", None), ("error", "timeout"),
        ]

    def test_close_cancels_inflight_run_within_grace(self, tmp_path, monkeypatch):
        """Shutdown mid-run: the in-flight run aborts at its next iteration
        boundary with a ``shutdown`` error event and ``close`` returns well
        inside its grace period instead of waiting the run out."""
        from repro.metrics.statistics import VarianceMetric

        original = VarianceMetric.score_batch

        def slow(self, batch):
            time.sleep(2.5)
            return original(self, batch)

        monkeypatch.setattr(VarianceMetric, "score_batch", slow)

        async def body():
            app = ServeApp(tmp_path / "cache")
            server = await app.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            async with server:
                # 12 snapshots, each scored in one held batch call: half a
                # minute of run if not cancelled.
                request = asyncio.ensure_future(
                    _request(port, "POST", "/run", {"scenario": "tiny", "snapshots": 12})
                )
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    _, raw = await _request(port, "GET", "/health")
                    if json.loads(raw)["executor"]["active"] > 0:
                        break
                    await asyncio.sleep(0.02)
                start = time.monotonic()
                await loop.run_in_executor(None, app.close, 30.0)
                close_seconds = time.monotonic() - start
                status, raw = await request
                return close_seconds, _events(raw)

        close_seconds, events = asyncio.run(body())
        assert close_seconds < 15.0, (
            f"close() took {close_seconds:.1f}s; the in-flight run was not "
            f"cancelled cooperatively"
        )
        assert events[-1]["type"] == "error"
        assert events[-1]["reason"] == "shutdown"


class TestServeAppProcessTier:
    """The process execution tier, in-process (fork-started pool workers)."""

    def test_streams_identically_to_thread_tier(self, tmp_path):
        """Same request, both tiers: identical iteration rows and summary
        (only the start event's execution/cache fields may differ)."""

        async def run_tier(execution, cache_root):
            async with serve_app(
                cache_root, execution=execution, max_workers=2
            ) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                return _events(raw)

        process_events = asyncio.run(run_tier("process", tmp_path / "p"))
        thread_events = asyncio.run(run_tier("thread", tmp_path / "t"))
        assert process_events[0]["execution"] == "process"
        _assert_run_stream(process_events, iterations=2)

        def comparable(events):
            rows = [dict(e) for e in events[1:]]
            for row in rows:
                row.pop("cache", None)
            return rows

        assert comparable(process_events) == comparable(thread_events)

    def test_cache_hit_and_health_depth(self, tmp_path):
        async def body():
            async with serve_app(
                tmp_path, execution="process", max_workers=2
            ) as (_, port):
                _, first = await _request(port, "POST", "/run", TINY_RUN)
                _, second = await _request(port, "POST", "/run", TINY_RUN)
                assert _events(first)[0]["cache"] == "miss"
                assert _events(second)[0]["cache"] == "hit"
                _, raw = await _request(port, "GET", "/health")
                health = json.loads(raw)
                assert health["execution"] == "process"
                assert health["executor"]["execution"] == "process"
                assert health["executor"]["workers"] >= 1
                assert health["executor"]["completed"] == 2
                assert health["cache"]["hits"] == 1

        asyncio.run(body())

    def test_timeout_cancels_worker_without_leaking_shm(self, tmp_path, shm_leak_check):
        new_shm_segments = shm_leak_check()

        async def body():
            async with serve_app(tmp_path, execution="process") as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 1e-4}
                )
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "timeout"

        asyncio.run(body())
        assert new_shm_segments() == set()

    def test_reply_ends_on_the_workers_mark_not_a_poll(self, tmp_path, monkeypatch):
        """The relay stops on the worker's end-of-stream mark: with a 2 s
        poll, a reply that waited out one last poll would take over 2 s."""
        monkeypatch.setattr("repro.serve.server._POLL_SECONDS", 2.0)

        async def body():
            async with serve_app(tmp_path, execution="process") as (_, port):
                await _request(port, "POST", "/run", TINY_RUN)  # the miss
                start = time.monotonic()
                _, raw = await _request(port, "POST", "/run", TINY_RUN)
                return time.monotonic() - start, _events(raw)

        seconds, events = asyncio.run(body())
        _assert_run_stream(events, iterations=2)
        assert seconds < 1.0, f"the reply took {seconds:.2f}s"

    def test_worker_dying_mid_run_ends_the_stream(self, tmp_path, monkeypatch):
        """A worker that exits before its end-of-stream mark: the dead-worker
        poll sees the broken future, and the reply ends with an ``exception``
        error event instead of hanging."""
        from repro.utils import procpool

        monkeypatch.setattr(
            "repro.serve.server.run_scenario_in_worker", _exit_in_worker
        )

        async def body():
            async with serve_app(tmp_path, execution="process") as (_, port):
                start = time.monotonic()
                _, raw = await asyncio.wait_for(
                    _request(port, "POST", "/run", TINY_RUN), timeout=30
                )
                return time.monotonic() - start, _events(raw)

        try:
            seconds, events = asyncio.run(body())
        finally:
            procpool.shutdown_shared_pool()  # a broken pool stays broken
        assert [e["type"] for e in events] == ["start", "error"]
        assert events[-1]["reason"] == "exception"
        assert seconds < 5.0, f"the stream took {seconds:.2f}s to end"

    def test_a_stale_cancel_word_never_cancels_a_later_run(self, tmp_path, monkeypatch):
        """One worker, so one slot: a run cancelled in its worker leaves its
        id in the slot's cancel word, and the three runs after it on that
        slot all stream cleanly.  Fails with a worker ``check`` that fires on
        any non-zero word.  The cancelled run sleeps in its worker, so the
        deadline passes after it was dispatched (with ``timeout_s: 1e-4`` the
        server cancels it before dispatch and no word is written)."""
        execute = procrun.execute_run

        def slow_when_bounded(request, *args):
            if request.timeout_s is not None:
                time.sleep(1.0)
            return execute(request, *args)

        procpool.shutdown_shared_pool()
        monkeypatch.setattr(procpool, "default_process_workers", lambda: 1)
        monkeypatch.setattr(procrun, "execute_run", slow_when_bounded)

        async def body():
            async with serve_app(tmp_path, execution="process") as (_, port):
                replies = []
                for payload in [TINY_RUN, {**TINY_RUN, "timeout_s": 0.25}] + [TINY_RUN] * 3:
                    _, raw = await _request(port, "POST", "/run", payload)
                    replies.append(_events(raw))
                return replies, list(procpool.shared_pool_channels()[1].cancel)

        try:
            (miss, timed_out, *replies), words = asyncio.run(
                asyncio.wait_for(body(), timeout=60)
            )
        finally:
            procpool.shutdown_shared_pool()  # no one-worker pool for later tests
        assert timed_out[-1]["reason"] == "timeout"
        assert words == [2]  # the cancelled run, the server's second
        for events in [miss, *replies]:
            _assert_run_stream(events, iterations=2)

    def test_concurrent_runs_each_get_their_own_stream(self, tmp_path):
        """Six concurrent runs, three rounds, with a short switch interval:
        every reply is its own clean stream — each run asks for its own
        percent, and its rows must carry it.  Fails when events are routed
        by worker slot instead of by run id."""
        percents = [30.0 + 5 * i for i in range(6)]

        async def body():
            async with serve_app(
                tmp_path, execution="process", max_workers=6
            ) as (_, port):
                await _request(port, "POST", "/run", TINY_RUN)  # the miss
                rounds = []
                for _ in range(3):
                    rounds.append(
                        await asyncio.gather(*[
                            _request(port, "POST", "/run", {**TINY_RUN, "percent": p})
                            for p in percents
                        ])
                    )
                return rounds

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            rounds = asyncio.run(asyncio.wait_for(body(), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for results in rounds:
            for percent, (status, raw) in zip(percents, results):
                events = _events(raw)
                assert status == 200
                _assert_run_stream(events, iterations=2)
                rows = [e for e in events if e["type"] == "iteration"]
                assert [row["percent_reduced"] for row in rows] == [percent] * 2

    def test_runs_stream_on_a_new_pool_generation(self, tmp_path):
        """A pool shut down and created again has new pipes: a run on it
        still streams.  Fails with a router bound to the first generation's
        pipes — the run's events are never read and the reply hangs."""

        async def one_run(cache_root):
            async with serve_app(cache_root, execution="process") as (_, port):
                _, raw = await _request(port, "POST", "/run", TINY_RUN)
                return _events(raw)

        first = asyncio.run(asyncio.wait_for(one_run(tmp_path / "a"), timeout=60))
        procpool.shutdown_shared_pool()
        second = asyncio.run(asyncio.wait_for(one_run(tmp_path / "b"), timeout=30))
        for events in (first, second):
            _assert_run_stream(events, iterations=2)

    def test_the_process_tier_forks_no_manager(self, tmp_path):
        """The server's only ``multiprocessing`` children are the pool's
        workers: no manager process relays the events."""
        procpool.shutdown_shared_pool()
        app = ServeApp(tmp_path / "cache", execution="process")
        try:
            children = {child.pid for child in multiprocessing.active_children()}
            pool = procpool.shared_process_pool()
            assert len(children) == procpool.default_process_workers()
            assert children == set(pool._processes)
        finally:
            app.close()


def _post_head(payload):
    body = json.dumps(payload).encode("utf-8")
    head = f"POST /run HTTP/1.1\r\nHost: localhost\r\nContent-Length: {len(body)}\r\n\r\n"
    return head.encode("latin-1") + body


class TestOneWriterPerStream:
    """The thread that has an event writes it to the client's socket: the
    event loop is woken once per run, not once per event, and a failed send
    is what cancels the run of a client that went away."""

    @pytest.mark.parametrize("execution", EXECUTION_TIERS)
    def test_a_run_wakes_the_loop_no_more_for_more_events(self, tmp_path, execution):
        """A 12-snapshot hit schedules no more cross-thread callbacks on the
        event loop than a 1-snapshot hit.  Fails when events travel to the
        loop through ``call_soon_threadsafe``, one callback per event."""

        async def body():
            async with serve_app(tmp_path, execution=execution) as (_, port):
                loop = asyncio.get_running_loop()
                scheduled = []
                schedule = loop.call_soon_threadsafe

                def counting(callback, *args, **kwargs):
                    scheduled.append(callback)
                    return schedule(callback, *args, **kwargs)

                loop.call_soon_threadsafe = counting
                counts = {}
                for snapshots in (1, 12):
                    payload = {**TINY_RUN, "snapshots": snapshots}
                    await _request(port, "POST", "/run", payload)  # the miss
                    scheduled.clear()
                    status, raw = await _request(port, "POST", "/run", payload)
                    assert status == 200
                    _assert_run_stream(_events(raw), iterations=snapshots)
                    counts[snapshots] = len(scheduled)
                return counts

        counts = asyncio.run(asyncio.wait_for(body(), timeout=60))
        assert 1 <= counts[12] <= counts[1], counts

    @pytest.mark.parametrize("execution", EXECUTION_TIERS)
    def test_a_client_gone_mid_stream_cancels_its_run(
        self, tmp_path, monkeypatch, caplog, capsys, shm_leak_check, execution
    ):
        """The client aborts its connection after the first ``iteration``
        line of a 12-snapshot run.  The run stops at its next boundary with
        reason ``disconnect``, nothing is logged, ``/health`` counts it
        completed and none active, the worker is free and no segment is
        left, and the next identical request streams every event.  Fails
        with a writer that swallows the failed send without cancelling."""
        new_shm_segments = shm_leak_check()
        emitted = multiprocessing.RawValue("i", 0)  # shared with forked workers
        row = procrun.iteration_row

        def slow_row(result):
            emitted.value += 1
            time.sleep(0.05)
            return row(result)

        reasons = []
        cancel_event = ServeApp._cancel_event

        def spy(reason, scope):
            reasons.append(reason)
            return cancel_event(reason, scope)

        procpool.shutdown_shared_pool()  # the workers fork with the slow rows
        monkeypatch.setattr(procrun, "iteration_row", slow_row)
        monkeypatch.setattr(ServeApp, "_cancel_event", staticmethod(spy))
        run = {**TINY_RUN, "snapshots": 12}

        async def body():
            async with serve_app(tmp_path, execution=execution) as (app, port):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(_post_head(run))
                await reader.readuntil(protocol.HEAD_END)
                read = [json.loads(await reader.readline())]
                while read[-1]["type"] != "iteration":
                    read.append(json.loads(await reader.readline()))
                # Linger 0: the close resets the connection at once.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                writer.transport.abort()
                deadline = time.monotonic() + 30
                while app.health()["executor"]["completed"] < 1:
                    assert time.monotonic() < deadline, "the run never ended"
                    await asyncio.sleep(0.01)
                if execution == "process":
                    pool = procpool.shared_pool_channels()[0]
                    while pool._pending_work_items:
                        assert time.monotonic() < deadline, "the worker stayed busy"
                        await asyncio.sleep(0.01)
                rows = emitted.value
                _, health = await _request(port, "GET", "/health")
                status, raw = await _request(port, "POST", "/run", run)
                return read, rows, json.loads(health)["executor"], status, _events(raw)

        with caplog.at_level(logging.DEBUG):
            try:
                read, rows, executor, status, events = asyncio.run(
                    asyncio.wait_for(body(), timeout=60)
                )
            finally:
                procpool.shutdown_shared_pool()  # no workers with slow rows later
        assert [e["type"] for e in read] == ["start", "iteration"]
        assert reasons == ["disconnect"]
        assert rows <= 3, f"the run went on for {rows} of 12 iterations"
        assert executor["active"] == 0 and executor["completed"] == 1
        # (asyncio's debug mode logs the reset at DEBUG: the test caused it)
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
        assert [r for r in caplog.records if r.name.startswith("repro")] == []
        assert "Traceback" not in capsys.readouterr().err
        assert new_shm_segments() == set()
        assert status == 200 and events[0]["cache"] == "hit"
        _assert_run_stream(events, iterations=12)


    @pytest.mark.parametrize("execution", EXECUTION_TIERS)
    def test_the_loop_never_waits_on_a_client_that_stopped_reading(
        self, tmp_path, monkeypatch, execution
    ):
        """A client sends a request and never reads: with small socket
        buffers the run's runner blocks in a send, holding the stream's
        lock, past the run's 1 s deadline.  The watchdog ends the stream
        without taking that lock.  ``/health`` from a second client answers
        within 100 ms at every probe, the run ends (``active`` back to 0)
        within 5 s and the next identical request streams in full.  Fails
        when the loop writes the ``timeout`` line under the lock, waiting
        out the runner's 10 s send, or waits for the line without bound."""
        monkeypatch.setattr("repro.serve.server.STREAM_GRACE_SECONDS", 0.2)
        init = server_module._Stream.__init__

        def small_buffer(self, sock, scope):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            init(self, sock, scope)

        monkeypatch.setattr(server_module._Stream, "__init__", small_buffer)
        run = {**TINY_RUN, "snapshots": 40}

        def stop_reading(app, port):
            with socket.socket() as stuck:
                stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
                stuck.connect(("127.0.0.1", port))
                stuck.sendall(_post_head({**run, "timeout_s": 1.0}))
                start, probes = time.monotonic(), []
                while time.monotonic() - start < 2.5:
                    sent = time.monotonic()
                    _get_json(port, "/health")
                    probes.append(time.monotonic() - sent)
                    time.sleep(0.05)
                # Well inside the runner's 10 s send time-out: the socket
                # was shut down one grace after the watchdog fired.
                while app.health()["executor"]["active"] > 0:
                    assert time.monotonic() < start + 5, "the run outlived its grace"
                    time.sleep(0.01)
                events = _post_run_events(port, run)
                stuck.settimeout(10)
                received = b"".join(iter(lambda: stuck.recv(65536), b""))
            return probes, events, received

        async def body():
            async with serve_app(tmp_path, execution=execution) as (app, port):
                await _request(port, "POST", "/run", run)  # the miss
                return await asyncio.to_thread(stop_reading, app, port)

        probes, events, received = asyncio.run(asyncio.wait_for(body(), timeout=60))
        assert max(probes) < 0.1, f"/health took {max(probes):.3f}s"
        _assert_run_stream(events, iterations=40)
        assert events[0]["cache"] == "hit"
        # The stuck client got EOF before the run's summary.
        assert b'"type": "summary"' not in received

    def test_a_slow_reader_gets_the_timeout_line_whole(self, monkeypatch):
        """A runner streams 300 lines through small buffers to a client that
        keeps reading 256 bytes every 10 ms, so the runner is blocked in a
        send, holding the stream's lock, when the loop abandons the stream.
        The client still reads only whole lines: a prefix of the runner's,
        in order, then the ``timeout`` event, then EOF.  Fails when the loop
        tries the lock once and sends without looking at the buffer: the
        line is dropped, or cut."""
        monkeypatch.setattr("repro.serve.server.STREAM_GRACE_SECONDS", 2.0)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = socket.socket()
            client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            client.connect(listener.getsockname())
            sock, _ = listener.accept()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        stream = server_module._Stream(sock, server_module._RunScope(None, threading.Event()))
        timeout = {"type": "error", "reason": "timeout", "error": "run exceeded 1 s"}
        received = []

        def runner():
            for index in range(300):
                stream.emit({"type": "iteration", "iteration": index, "pad": "x" * 200})

        def read_slowly():
            while chunk := client.recv(256):
                received.append(chunk)
                time.sleep(0.01)

        async def watchdog():
            await asyncio.sleep(0.3)
            await stream.abandon(timeout)

        threads = [threading.Thread(target=runner), threading.Thread(target=read_slowly)]
        with client:
            for thread in threads:
                thread.start()
            asyncio.run(watchdog())
            threads[0].join(timeout=30)
            stream.release()
            threads[1].join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        *lines, rest = b"".join(received).split(b"\n")
        assert rest == b"", "the stream ends inside a line"
        events = [json.loads(line) for line in lines]
        assert events[-1] == timeout
        assert [e["iteration"] for e in events[:-1]] == list(range(len(events) - 1))
        assert len(events) - 1 < 300

    def test_no_line_follows_the_runs_own_terminal_line(self):
        """The runner has written its summary but not yet closed the socket
        when the loop abandons the stream: the client reads the summary,
        then EOF.  Fails when the loop's ``timeout`` line may follow any
        line but a failed one."""
        sock, client = socket.socketpair()
        stream = server_module._Stream(sock, server_module._RunScope(None, threading.Event()))
        summary = {"type": "summary", "run": {"iterations": 2}}
        with client:
            stream.emit(summary)
            asyncio.run(stream.abandon({"type": "error", "reason": "timeout", "error": ""}))
            stream.release()
            received = b"".join(iter(lambda: client.recv(65536), b""))
        assert _events(received) == [summary]

    @pytest.mark.parametrize("execution", EXECUTION_TIERS)
    def test_a_run_ending_at_the_watchdog_keeps_its_stream(
        self, tmp_path, monkeypatch, caplog, execution
    ):
        """The watchdog's wait reports its time-out only after the run has
        ended and its runner closed the socket: a run finishing just at
        deadline plus grace.  The client reads the whole stream ending in
        the summary, with no ``timeout`` line after it, nothing is logged,
        and ``/health`` counts the run completed.  Fails when the loop
        touches the socket the runner closed (``EBADF`` out of the
        handler)."""
        wait = asyncio.wait

        async def expired_after_the_end(futures, timeout=None):
            await wait(futures)
            return set(), set(futures)

        monkeypatch.setattr(server_module.asyncio, "wait", expired_after_the_end)

        async def body():
            async with serve_app(tmp_path, execution=execution) as (app, port):
                reply = await _request(port, "POST", "/run", {**TINY_RUN, "timeout_s": 30.0})
                return reply, app.health()["executor"]

        with caplog.at_level(logging.WARNING):
            (status, raw), executor = asyncio.run(asyncio.wait_for(body(), timeout=60))
        assert status == 200
        _assert_run_stream(_events(raw), iterations=TINY_RUN["snapshots"])
        assert executor["active"] == 0 and executor["completed"] == 1
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(procpool.PROCESS_CPUS) < 2,
    reason="needs thread affinity and a second CPU",
)
class TestThreadTierOnOneCPU:
    """The thread tier runs its Python on one CPU, the last of the process's,
    so its runs never hand the GIL between cores; a miss still simulates on
    every CPU, the process tier binds nothing, and no caller's thread keeps
    a mask it did not have."""

    @pytest.mark.parametrize("execution", EXECUTION_TIERS)
    def test_runs_iterate_on_one_cpu_and_simulate_on_every_cpu(
        self, tmp_path, monkeypatch, execution
    ):
        """A miss then a hit, reading the runner's mask where it emits each
        event and where the miss saves its CM1 snapshots.  Thread tier: every
        event on the app's one CPU, the save on every CPU.  Process tier:
        every CPU throughout.  Fails without the widening around
        ``ReplayCache.acquire``, or with the process tier bound."""
        from repro.cm1.dataset import CM1Dataset

        emitted, saved = [], []
        emit, save = server_module._Stream.emit, CM1Dataset.save

        def emit_spy(self, event):
            emitted.append((event["type"], os.sched_getaffinity(0)))
            emit(self, event)

        def save_spy(self, *args, **kwargs):
            saved.append(os.sched_getaffinity(0))
            return save(self, *args, **kwargs)

        monkeypatch.setattr(server_module._Stream, "emit", emit_spy)
        monkeypatch.setattr(CM1Dataset, "save", save_spy)

        async def body():
            async with serve_app(tmp_path, execution=execution) as (app, port):
                for verdict in ("miss", "hit"):
                    status, raw = await _request(port, "POST", "/run", TINY_RUN)
                    assert status == 200 and _events(raw)[0]["cache"] == verdict
                return app.cpus

        cpus = asyncio.run(body())
        every = set(procpool.PROCESS_CPUS)
        runner = every if execution == "process" else {max(every)}
        assert cpus == (None if execution == "process" else frozenset(runner))
        assert saved == [every]
        assert [kind for kind, _ in emitted] == (
            ["start", "iteration", "iteration", "summary"] * 2
        )
        assert all(mask == runner for _, mask in emitted), emitted

    def test_no_caller_keeps_a_mask(self, tmp_path, monkeypatch):
        """The calling thread's mask is the same after an in-process
        thread-tier app served a run and closed, and after ``serve_forever``
        returned, whose loop ran on the app's CPU meanwhile.  Fails without
        the restore in ``serve_forever``."""
        before = os.sched_getaffinity(0)

        async def in_process():
            async with serve_app(tmp_path / "a") as (_, port):
                status, _ = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200

        asyncio.run(in_process())
        assert os.sched_getaffinity(0) == before

        app = ServeApp(tmp_path / "b")
        ports, during = [], []
        start = app.start

        async def recording_start(host, port):
            server = await start(host, port)
            ports.append(server.sockets[0].getsockname()[1])
            during.append(os.sched_getaffinity(0))
            return server

        monkeypatch.setattr(app, "start", recording_start)

        async def served():
            task = asyncio.create_task(serve_forever(app, "127.0.0.1", 0))
            while not ports:
                await asyncio.sleep(0.01)
            status, _ = await _request(ports[0], "POST", "/run", TINY_RUN)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return status

        assert asyncio.run(served()) == 200
        assert during == [set(app.cpus)]
        assert os.sched_getaffinity(0) == before


def _exit_in_worker(*args):
    """Stands in for ``run_scenario_in_worker``: the worker dies mid-run.

    Module level, so that forked pool workers unpickle it by name."""
    os._exit(1)


# -- three doors, one run ------------------------------------------------------


def _parity_cases():
    """Every scenario x metric x redistribution once; the mode alternates
    with the scenario and with PYVAR, so each mode meets each of them."""
    modes = (("percent", 50.0), ("target", 30.0))
    return [
        (scenario, metric, redistribution,
         *modes[(scenario == "tiny") == (metric == "PYVAR")])
        for scenario, metric, redistribution in itertools.product(
            ("tiny", "decaying_storm"), ("VAR", "PYVAR", "FPZIP"), ("none", "round_robin")
        )
    ]


#: What ``RunRequest`` refuses, as (field, JSON value, CLI spelling or None
#: where argparse cannot express the value).
BAD_VALUES = [
    ("ranks", 0, "0"),
    ("ranks", -2, "-2"),
    ("snapshots", 0, "0"),
    ("percent", 150, "150"),
    ("percent", -0.5, "-0.5"),
    ("target", 0, "0"),
    ("target", -1, "-1"),
    ("ranks", 1024, "1024"),  # tiny's 44-point axes cannot host 32x32 ranks
    ("ranks", 2.5, None),
    ("ranks", True, None),
    ("snapshots", "two", None),
    ("snapshots", False, None),
    ("seed", 1.5, None),
    ("seed", True, None),
]


class TestThreeDoors:
    """``repro run``, the thread tier and the process tier are one validator
    and one run body (``repro.serve.procrun``) behind three transports."""

    @pytest.mark.parametrize(
        "scenario, metric, redistribution, mode, value", _parity_cases()
    )
    def test_same_request_same_answer_at_every_door(
        self, tmp_path, capsys, scenario, metric, redistribution, mode, value
    ):
        """Fails if a door stops calling ``execute_run`` with the request as
        validated — e.g. ``run_scenario_in_worker`` replacing the request's
        ``redistribution`` with the default, the thread tier dropping
        ``render_mode``, or ``_cmd_run`` building its rows from a literal of
        its own."""
        payload = {
            "scenario": scenario, "ranks": 4, "snapshots": 2, "metric": metric,
            "redistribution": redistribution, mode: value,
        }
        argv = ["run", scenario, "--ranks", "4", "--snapshots", "2", "--metric", metric,
                "--redistribution", redistribution, f"--{mode}", str(value)]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)

        async def served(execution):
            async with serve_app(
                tmp_path / execution, execution=execution, max_workers=2
            ) as (_, port):
                status, raw = await _request(port, "POST", "/run", payload)
                assert status == 200
                return _events(raw)

        assert len(document["iterations"]) == 2
        for execution in ("thread", "process"):
            events = asyncio.run(served(execution))
            _assert_run_stream(events, iterations=2)
            assert events[0]["execution"] == execution
            rows = [
                {k: v for k, v in event.items() if k != "type"} for event in events[1:-1]
            ]
            summary = events[-1]
            assert rows == document["iterations"]
            assert summary["config"] == document["config"]
            assert summary["run"] == document["run"]
            assert summary["scenario"].items() <= document["scenario"].items()

    @pytest.mark.parametrize("field, value, cli_value", BAD_VALUES)
    def test_bad_value_is_refused_before_anything_runs(self, capsys, field, value, cli_value):
        """``repro run``'s half of the refusal table (``TestRefusalTable`` is
        the served half): exit 2 with one error line naming the field, and
        nothing on stdout.  Fails if a check leaves ``RunRequest`` for
        ``ScenarioConfig``, whose message names ``ncores``."""
        if cli_value is None:  # argparse refuses the spelling itself
            with pytest.raises(SystemExit) as exit_info:
                main(["run", "tiny", f"--{field}={value}"])
            assert exit_info.value.code == 2
            return
        assert main(["run", "tiny", f"--{field}={cli_value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and field in captured.err
        assert "Traceback" not in captured.err


# -- the refusal table: one class, the pure core and two live servers ---------


def _post(payload=None, body=None, content_length=None):
    """A raw ``POST /run``: ``payload`` as JSON, or ``body`` as is."""
    body = json.dumps(payload).encode("utf-8") if body is None else body
    length = len(body) if content_length is None else content_length
    return f"POST /run HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode() + body


def _error_names(word):
    return lambda reply: set(reply) == {"error"} and word in reply["error"]


def _error_is(message):
    return lambda reply: reply == {"error": message}


def _unknown_scenario(reply):
    return reply == {
        "error": "unknown scenario 'not_a_scenario'", "available": list(scenario_names()),
    }


#: Every row of README's refusal table as ``(id, raw request, status, check
#: of the JSON reply)``.
REFUSALS = [
    ("unknown-scenario", _post({"scenario": "not_a_scenario"}), 404, _unknown_scenario),
    ("unknown-metric", _post({"scenario": "tiny", "metric": "NOPE"}), 400, _error_names("metric")),
    # A metric the table no longer has is refused like one it never had.
    ("removed-metric", _post({"scenario": "tiny", "metric": "ZFP"}), 400,
     _error_is(f"unknown metric 'ZFP'; available: {', '.join(sorted(METRICS))}")),
    ("unknown-redistribution", _post({"scenario": "tiny", "redistribution": "x"}), 400,
     _error_names("redistribution")),
    ("unknown-render-mode", _post({"scenario": "tiny", "render_mode": "x"}), 400,
     _error_names("render_mode")),
    *[
        (f"removed-{field}", _post({"scenario": "tiny", field: value}), 400,
         _error_is(f"unknown request fields: ['{field}']"))
        for field, value in (("backend", "serial"), ("pipelined", True))
    ],
    *[
        (f"{field}={value!r}", _post({"scenario": "tiny", field: value}), 400, _error_names(field))
        for field, value, _ in BAD_VALUES
    ],
    ("unknown-field", _post({"scenario": "tiny", "colour": 1}), 400,
     _error_is("unknown request fields: ['colour']")),
    ("body-not-an-object", _post([1, 2]), 400, _error_is("request body must be a JSON object")),
    ("body-not-json", _post(body=b"{not json"), 400, _error_names("Expecting")),
    ("body-not-utf8", _post(body=b"\xff\xfe"), 400, _error_names("utf-8")),
    ("timeout_s<=0", _post({"scenario": "tiny", "timeout_s": 0}), 400, _error_names("timeout_s")),
    *[
        (f"content-length={length!r}", _post(body=b"", content_length=length), 400,
         _error_is(f"malformed Content-Length {length!r}"))
        for length in ("abc", "-5", "1e3", "12 34")
    ],
    # No body is sent: a server that tried to read it would hang the row.
    ("content-length-above-64KiB", _post(body=b"", content_length=64 * 1024 + 1), 413,
     _error_is("request body exceeds 65536 bytes")),
    ("head-above-64KiB", b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n", 431,
     _error_is("request head exceeds 65536 bytes")),
    ("garbage-request-line", b"GARBAGE\r\n\r\n", 400,
     _error_is("malformed request line: 'GARBAGE'")),
    ("request-line-without-version", b"GET /health\r\n\r\n", 400,
     _error_is("malformed request line: 'GET /health'")),
    ("empty-head", b"\r\n\r\n", 400, _error_is("malformed request line: ''")),
    ("unknown-route", b"GET /nope HTTP/1.1\r\n\r\n", 404, _error_is("no route GET /nope")),
]


def _pure_exchange(raw: bytes) -> bytes:
    """The protocol core alone: the bytes ``handle_connection`` would write."""
    head, end, rest = raw.partition(protocol.HEAD_END)
    reply = protocol.parse_head(head + end)
    if isinstance(reply, protocol.Head):
        reply = protocol.route(reply, rest[: reply.length], lambda: {"status": "ok"})
    return protocol.STREAM_HEADER if isinstance(reply, protocol.RunPlan) else reply.encode()


class _LiveServer:
    """A ``ServeApp`` serving on a loop of its own thread, spoken to over
    blocking sockets."""

    def __init__(self, cache_dir, execution):
        self.app = ServeApp(cache_dir, execution=execution, max_workers=2)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = self._call(self.app.start("127.0.0.1", 0))
        self.port = self.server.sockets[0].getsockname()[1]

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(30)

    def exchange(self, raw: bytes) -> bytes:
        with socket.create_connection(("127.0.0.1", self.port), timeout=10) as conn:
            conn.sendall(raw)
            return conn.makefile("rb").read()

    def close(self):
        self.loop.call_soon_threadsafe(self.server.close)
        self._call(self.server.wait_closed())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()
        self.loop.close()
        self.app.close()


def _reply(raw: bytes):
    """``(status line, JSON body)`` of a whole reply."""
    head, _, body = raw.partition(b"\r\n\r\n")
    return head.split(b"\r\n")[0].decode("latin-1"), json.loads(body)


class TestRefusalTable:
    """One table, three implementations (pymor's shared test class): the pure
    ``parse_head``/``route`` core and live servers of both tiers answer every
    row alike, so the asyncio shell adds nothing.  A refusal comes before the
    streaming header — never a ``200``, a ``start`` event, a cache miss or a
    log record — and a live server keeps serving.  Fails if a check moves
    past the ``200`` header (the scenario resolved after it, as it once was),
    or if the shell swallows a refusal (a malformed request line used to get
    zero bytes)."""

    @pytest.fixture(scope="class", params=["pure", "thread", "process"])
    def server(self, request, tmp_path_factory):
        if request.param == "pure":
            yield None
            return
        live = _LiveServer(tmp_path_factory.mktemp(request.param), request.param)
        try:
            yield live
        finally:
            live.close()

    @pytest.mark.parametrize(
        "raw, status, check", [row[1:] for row in REFUSALS], ids=[row[0] for row in REFUSALS]
    )
    def test_row_is_refused(self, server, caplog, raw, status, check):
        exchange = _pure_exchange if server is None else server.exchange
        with caplog.at_level(logging.DEBUG):
            status_line, reply = _reply(exchange(raw))
            if server is not None:
                health_line, health = _reply(server.exchange(b"GET /health HTTP/1.1\r\n\r\n"))
                assert health_line == "HTTP/1.1 200 OK"
                assert health["cache"]["misses"] == 0 and health["cache"]["entries"] == 0
        assert status_line == f"HTTP/1.1 {status} {HTTPStatus(status).phrase}"
        assert check(reply), reply
        assert [r for r in caplog.records if r.name.startswith("repro")] == []
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []


def _heads():
    """Heads near the grammar: a request line of 0-4 tokens and headers,
    among them ``Content-Length`` with any value."""
    token = st.binary(max_size=8)
    length = st.one_of(token, st.integers(0, 2 * protocol.MAX_BODY_BYTES).map(lambda n: b"%d" % n))
    header = st.one_of(token, length.map(lambda value: b"Content-Length: " + value))
    return st.builds(
        lambda line, headers: b"\r\n".join([line, *headers]) + b"\r\n\r\n",
        st.lists(token, max_size=4).map(b" ".join),
        st.lists(header, max_size=3),
    )


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=64),
        _heads(),
        st.integers(-3, 3).map(lambda d: b"G" * (protocol.MAX_HEAD_BYTES + d)),
    )
)
def test_parse_head_answers_any_bytes(raw):
    """Fuzzed request heads: a ``Head`` with a readable length, or a 400,
    413 or 431 that encodes — never an exception."""
    reply = protocol.parse_head(raw)
    if isinstance(reply, protocol.Head):
        assert 0 <= reply.length <= protocol.MAX_BODY_BYTES
    else:
        assert reply.status in (400, 413, 431)
        assert reply.encode().startswith(b"HTTP/1.1 %d " % reply.status)


# -- the real subprocess entry point ------------------------------------------


@contextlib.contextmanager
def _spawn_serve(env, *extra_args, **popen_kwargs):
    """Run ``python -m repro serve`` for the ``with`` block, which gets
    ``(proc, port)``.  On the way out the server is terminated if it still
    runs and waited for, and its stderr pipe is closed."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stderr=subprocess.PIPE, text=True, env=env, **popen_kwargs,
    )
    try:
        port = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stderr.readline()
            if not line and proc.poll() is not None:
                pytest.fail(f"serve exited early (rc={proc.returncode})")
            if "repro serve listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port is not None, "server never reported its port"
        yield proc, port
    finally:
        try:
            if proc.poll() is None:
                proc.terminate()
            proc.wait(timeout=30)
        finally:
            proc.stderr.close()


def _live_group_members(pgid):
    """PIDs of the live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            # "pid (comm) state ppid pgrp ..." — comm may contain spaces.
            state, _ppid, pgrp = (
                (entry / "stat").read_text().rsplit(")", 1)[1].split()[:3]
            )
        except (OSError, IndexError, ValueError):
            continue  # exited while we were looking
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


def _post_run_events(port, payload, timeout=120):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/run",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.status == 200
        return _events(response.read())


def _get_json(port, path, timeout=30):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        assert response.status == 200
        return json.loads(response.read())


class TestServeSubprocess:
    @pytest.fixture()
    def env(self):
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return env

    def test_serve_cli_streams_and_caches(self, env, tmp_path):
        with _spawn_serve(
            env, "--cache-dir", str(tmp_path / "cache"), "--workers", "2"
        ) as (_, port):
            events = _post_run_events(port, TINY_RUN)
            _assert_run_stream(events, iterations=2)
            assert events[0]["cache"] == "miss"
            events = _post_run_events(port, TINY_RUN)
            _assert_run_stream(events, iterations=2)
            assert events[0]["cache"] == "hit"
            assert events[-1]["cache"]["hits"] == 1
            assert events[-1]["cache"]["misses"] == 1
            assert events[-1]["cache"]["resident"] == 1
            # A second key: the first one is released and not the latest,
            # so it no longer holds an open scenario.
            _assert_run_stream(
                _post_run_events(port, {**TINY_RUN, "seed": 4242}), iterations=2
            )
            cache = _get_json(port, "/health")["cache"]
            assert cache["entries"] == 2 and cache["resident"] <= 1

    def test_stale_cache_entry_is_rebuilt_at_start_up(self, env, tmp_path):
        """A previous release's entry under the requested key is dropped when
        the server adopts its cache directory: the first reply is a miss that
        streams every iteration, and the cache then holds one entry."""
        config = RunRequest.from_payload(TINY_RUN).scenario_config()
        entry = tmp_path / "cache" / scenario_cache_key(config)
        ExperimentScenario(config).save(entry)
        _version_1(entry)
        with _spawn_serve(env, "--cache-dir", str(tmp_path / "cache")) as (_, port):
            events = _post_run_events(port, TINY_RUN)
            _assert_run_stream(events, iterations=TINY_RUN["snapshots"])
            assert events[0]["cache"] == "miss"
            assert _get_json(port, "/health")["cache"]["entries"] == 1

    def test_process_tier_with_bounded_cache_evicts(self, env, tmp_path):
        """The CI smoke: ``--execution process --cache-max-entries 1``,
        three requests (two identical), an eviction visible in /health."""
        with _spawn_serve(
            env,
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "2",
            "--execution", "process",
            "--cache-max-entries", "1",
        ) as (_, port):
            health = _get_json(port, "/health")
            assert health["execution"] == "process"
            assert health["cache"]["max_entries"] == 1

            first = _post_run_events(port, TINY_RUN)
            _assert_run_stream(first, iterations=2)
            assert first[0]["cache"] == "miss"
            other = {**TINY_RUN, "seed": 4242}
            evicting = _post_run_events(port, other)
            assert evicting[0]["cache"] == "miss"
            repeat = _post_run_events(port, other)
            assert repeat[0]["cache"] == "hit"

            health = _get_json(port, "/health")
            assert health["cache"]["evictions"] >= 1
            assert health["cache"]["entries"] == 1
            assert health["cache"]["hits"] >= 1
            assert health["executor"]["execution"] == "process"
            assert health["executor"]["completed"] == 3

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="needs a Linux /proc"
    )
    def test_sigterm_shuts_the_process_tier_down_cleanly(self, env, tmp_path):
        """``terminate()`` used to kill the server without ``app.close()`` or
        the pool's atexit teardown, orphaning the pool workers and the
        manager.  SIGTERM now takes SIGINT's path: exit 0, nothing left."""
        shm = Path("/dev/shm")
        shm_before = set(os.listdir(shm)) if shm.is_dir() else set()
        # Its own session, so the server and everything it forks share one
        # process group that can be inspected (and swept) afterwards.
        with _spawn_serve(
            env,
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "2",
            "--execution", "process",
            start_new_session=True,
        ) as (proc, port):
            try:
                _assert_run_stream(_post_run_events(port, TINY_RUN), iterations=2)
                assert len(_live_group_members(proc.pid)) > 1  # the pool's workers
                proc.terminate()
                assert proc.wait(timeout=30) == 0
                settle = time.monotonic() + 2.0
                while _live_group_members(proc.pid) and time.monotonic() < settle:
                    time.sleep(0.02)
                assert _live_group_members(proc.pid) == []
                if shm.is_dir():
                    assert set(os.listdir(shm)) - shm_before == set()
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)

    def test_sigint_mid_run_exits_promptly(self, env, tmp_path):
        """The shutdown fix: SIGINT while a run is streaming must cancel the
        run at its next iteration boundary and exit inside the grace period,
        not wait out the remaining iterations (or hang in executor teardown).
        """
        import socket as socket_module

        with _spawn_serve(
            env,
            "--cache-dir", str(tmp_path / "cache"),
            "--shutdown-grace", "15",
        ) as (proc, port):
            # Warm the cache with the cheap vectorised metric: the cache key
            # is the scenario config, so the slow PYVAR run below replays
            # the same snapshots as a hit and spends its time purely in
            # GIL-bound scoring across many iterations.
            long_run = {"scenario": "tiny", "snapshots": 150}
            warm = _post_run_events(port, long_run, timeout=180)
            assert warm[0]["cache"] == "miss"

            with socket_module.create_connection(
                ("127.0.0.1", port), timeout=60
            ) as sock:
                body = json.dumps({**long_run, "metric": "PYVAR"}).encode()
                sock.sendall(
                    (
                        f"POST /run HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode()
                    + body
                )
                # Wait until the run is demonstrably streaming iterations.
                seen = b""
                while seen.count(b'"iteration"') < 3:
                    chunk = sock.recv(4096)
                    assert chunk, "stream closed before iterations arrived"
                    seen += chunk
                proc.send_signal(signal.SIGINT)
                start = time.monotonic()
                rest = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    rest += chunk

            rc = proc.wait(timeout=20)
            exit_seconds = time.monotonic() - start
            assert exit_seconds < 15.0, (
                f"serve took {exit_seconds:.1f}s to exit after SIGINT mid-run"
            )
            assert rc == 0
            # The interrupted stream ended early — nowhere near the 150
            # iterations a full run streams.
            total = seen + rest
            assert total.count(b'"iteration"') < 140

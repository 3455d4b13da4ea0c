"""Replay cache: resolved scenario configs to mmap-backed dataset stores.

A fully resolved :class:`~repro.scenarios.ScenarioConfig` is the sound
identity of a workload — two configs that hash equal describe the same data.
This module turns that identity into an *on-disk* cache: the first run of a
config simulates CM1 and persists every snapshot as a
:class:`~repro.io.store.DatasetStore`; every later run (within or across
server processes) replays the stored snapshots through read-only
``np.memmap`` views and never touches the simulation again.

Every request goes through one of two context managers, each pinning its
entry while open: :meth:`ReplayCache.acquire_store` yields the store's
directory (a process-tier worker opens it by path), and
:meth:`ReplayCache.acquire` yields the opened scenario.

Long-lived servers need the cache *bounded*: ``max_entries`` / ``max_bytes``
cap it with LRU eviction.  Eviction is decided under the cache's internal
lock, honours in-flight readers (a pinned entry is never evicted), and is
counted alongside hits and misses in :meth:`ReplayCache.stats`, which
``GET /health`` surfaces.

A hit through :meth:`ReplayCache.acquire` does not re-open the store either:
each entry keeps the :class:`~repro.scenarios.ExperimentScenario` it was first
opened as — calibrated platform and decomposed snapshots included — and hands
that same object to every later hit.  An entry stays *resident* while it is
pinned and while it is the most recently acquired entry; every other release
drops its scenario, and eviction drops it with the entry.  Resident arrivals
therefore take at most (entries in use + 1) × nsnapshots × field bytes of RAM.
"""

from __future__ import annotations

import hashlib
import logging
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

from repro.io.store import DatasetStore
from repro.scenarios import ExperimentScenario, ScenarioConfig
from repro.scenarios.scenario import live_dataset

__all__ = ["ReplayCache", "scenario_cache_key"]

_LOG = logging.getLogger(__name__)


def scenario_cache_key(config: ScenarioConfig) -> str:
    """Stable cache key of a fully resolved scenario config.

    ``ScenarioConfig`` (and any storm override it carries) is a frozen
    dataclass, so its ``repr`` is a complete, deterministic rendering of
    every field — hashing it gives a filesystem-safe key with the same
    equality semantics as the config itself.
    """
    digest = hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:20]
    prefix = config.name or "adhoc"
    return f"{prefix}-{digest}"


def _unservable(store: DatasetStore) -> Optional[str]:
    """Why a cache directory cannot be replayed as it stands, else ``None``.

    A servable entry's manifest loads at the current format version, records
    the ``nsnapshots`` iterations its metadata announces, and every iteration
    file is present at its recorded size.  A server killed mid-``save``
    leaves a manifest that fails the count; a previous release's entry fails
    the version.
    """
    try:
        manifest = store.manifest()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable manifest ({exc})"
    expected = manifest.metadata.get("nsnapshots")
    if manifest.niterations != expected:
        return f"{manifest.niterations} of {expected} iterations recorded"
    for record in manifest.iterations:
        path = store.root / record.filename
        size = path.stat().st_size if path.is_file() else None
        if size != record.nbytes:
            return f"{record.filename} holds {size} bytes, not {record.nbytes}"
    return None


def _adoptable(store: DatasetStore) -> bool:
    """True if ``store`` is servable; otherwise delete it with one warning.

    Every directory under the cache root is the cache's own, so an entry
    that fails :func:`_unservable` is removed and its key's next request
    misses and rebuilds it.
    """
    problem = _unservable(store)
    if problem is None:
        return True
    _LOG.warning(
        "replay cache: dropping entry %s: %s; it is rebuilt on its next request",
        store.root.name, problem,
    )
    store.delete()
    return False


class _Entry:
    """Book-keeping for one cached store (guarded by the cache lock).

    ``scenario`` is the store as :meth:`ReplayCache.acquire` opened it while
    the entry is resident, else ``None``.
    """

    __slots__ = ("nbytes", "readers", "scenario")

    def __init__(self, nbytes: int) -> None:
        self.nbytes = int(nbytes)
        self.readers = 0
        self.scenario: Optional[ExperimentScenario] = None


class _KeyLock:
    """One key's lock and the number of threads holding or waiting on it
    (guarded by the cache lock)."""

    __slots__ = ("lock", "users")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.users = 0


class ReplayCache:
    """Disk-backed scenario cache keyed by resolved config identity.

    Parameters
    ----------
    root:
        Directory the per-config dataset stores live under (one
        subdirectory per cache key).  Stores already present under it —
        from a previous server process — are adopted on construction in
        mtime order (oldest = least recently used) if they are complete at
        the current format version; any other entry is deleted with a
        ``WARNING`` on the ``repro.serve.cache`` logger and rebuilt on demand.
    max_entries, max_bytes:
        Optional bounds on the number of cached stores / their total
        on-disk bytes.  When either is exceeded, least-recently-used
        entries without in-flight readers are evicted (their directories
        deleted) until the cache fits; pinned entries are skipped, so the
        cache may transiently exceed its bounds while every entry is being
        read.

    Thread safety: all entry points may be called concurrently from worker
    threads; a per-key lock ensures that two simultaneous requests for the
    same config simulate at most once (the second waits, then replays).
    A key's lock lives only while some thread holds or waits on it, so the
    locks never outnumber the requests in flight.
    ``hits`` / ``misses`` / ``evictions`` count resolved requests and
    evicted stores and are surfaced in the serve responses.
    """

    def __init__(
        self,
        root: Path,
        max_entries: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._guard = threading.Lock()
        self._key_locks: Dict[str, _KeyLock] = {}
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._adopt_existing()

    # -- internal ------------------------------------------------------------

    def _adopt_existing(self) -> None:
        """Register stores left by a previous process, oldest first."""
        if not self.root.exists():
            return
        found = []
        for child in self.root.iterdir():
            store = DatasetStore(child)
            if child.is_dir() and store.exists() and _adoptable(store):
                found.append((child.stat().st_mtime, child.name, store.nbytes()))
        with self._guard:
            for _, key, nbytes in sorted(found):
                self._entries[key] = _Entry(nbytes)
            self._evict_locked()

    @contextmanager
    def _key_lock(self, key: str) -> Iterator[None]:
        """Hold ``key``'s lock.  The lock is made by its first user and
        dropped by its last: a thread that fetched it before the holder let
        go still counts, so every thread contending for a key waits on the
        same lock."""
        with self._guard:
            held = self._key_locks.get(key)
            if held is None:
                held = self._key_locks[key] = _KeyLock()
            held.users += 1
        try:
            with held.lock:
                yield
        finally:
            with self._guard:
                held.users -= 1
                if not held.users:
                    del self._key_locks[key]

    def _over_bounds_locked(self) -> bool:
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            return True
        if self.max_bytes is not None:
            total = sum(entry.nbytes for entry in self._entries.values())
            if total > self.max_bytes:
                return True
        return False

    def _evict_locked(self) -> None:
        """Evict LRU entries (readers == 0) until the cache fits its bounds.

        Runs with ``self._guard`` held — the same lock under which readers
        are pinned, so an entry observed at zero readers cannot gain one
        mid-eviction.
        """
        while self._over_bounds_locked():
            victim = next(
                (k for k, e in self._entries.items() if e.readers == 0), None
            )
            if victim is None:
                return  # every entry is being read; try again on release
            del self._entries[victim]
            self.evictions += 1
            DatasetStore(self.root / victim).delete()

    def _release(self, key: str) -> None:
        with self._guard:
            entry = self._entries.get(key)
            if entry is not None and entry.readers > 0:
                entry.readers -= 1
            # A release may make an over-bounds cache evictable again.
            self._evict_locked()
            # Only pinned entries and the most recently acquired one stay
            # resident.
            latest = next(reversed(self._entries), None)
            for other, held in self._entries.items():
                if held.readers == 0 and other != latest:
                    held.scenario = None

    # -- public surface ------------------------------------------------------

    @contextmanager
    def acquire_store(
        self, config: ScenarioConfig
    ) -> Iterator[Tuple[Path, bool]]:
        """Pin the store for ``config``; yields ``(store_dir, was_hit)``.

        The store is simulated and persisted on a miss (under the per-key
        lock, so N simultaneous identical requests simulate exactly once and
        exactly one of them reports the miss).  While the context is open
        the entry counts as *read* and is exempt from LRU eviction — this is
        the handle the serve tier holds for the whole duration of a run,
        including process-tier runs whose worker opens the store by path.
        """
        key = scenario_cache_key(config)
        store_dir = self.root / key
        with self._key_lock(key):
            with self._guard:
                entry = self._entries.get(key)
                store = DatasetStore(store_dir)
                if entry is None and store.exists() and _adoptable(store):
                    # Left by another process (or pre-seeded): adopt it.
                    entry = self._entries[key] = _Entry(store.nbytes())
                was_hit = entry is not None
                if was_hit:
                    self.hits += 1
                    entry.readers += 1
                    self._entries.move_to_end(key)
            if not was_hit:
                # Simulate + persist outside the cache-wide guard (slow),
                # still under the per-key lock (exactly-once).
                live_dataset(config, cache=False).save(
                    store_dir,
                    extra_metadata={
                        "scenario": config.name or "adhoc",
                        "cache_key": key,
                    },
                )
                with self._guard:
                    entry = self._entries[key] = _Entry(
                        DatasetStore(store_dir).nbytes()
                    )
                    entry.readers += 1
                    self.misses += 1
                    self._evict_locked()
        try:
            yield store_dir, was_hit
        finally:
            self._release(key)

    @contextmanager
    def acquire(
        self, config: ScenarioConfig
    ) -> Iterator[Tuple[ExperimentScenario, bool]]:
        """Pin + open: yields ``(scenario, was_hit)`` backed by the store.

        Hit or miss, the scenario replays the persisted snapshots through a
        :class:`~repro.cm1.dataset.StoredCM1Dataset` opened with
        ``mmap=True`` — fields come straight off the store, zero-copy,
        bitwise-identical to the live simulation (the store keeps exact
        bytes).

        The store is opened once per residency, under the per-key lock, and
        every hit while the entry stays resident (pinned, or the most
        recently acquired entry) gets that same scenario, with its calibrated
        platform and its decomposed snapshots — read-only arrivals, safe to
        share between concurrent runs.  Resident scenarios hold at most
        (entries in use + 1) × nsnapshots × field bytes.  A key evicted and
        simulated again is opened afresh.
        """
        key = scenario_cache_key(config)
        with self.acquire_store(config) as (store_dir, was_hit):
            with self._key_lock(key):
                with self._guard:
                    entry = self._entries[key]  # pinned, so never evicted
                if entry.scenario is None:
                    entry.scenario = ExperimentScenario.from_store(config, store_dir)
                scenario = entry.scenario
            yield scenario, was_hit

    def stats(self) -> Dict[str, Optional[int]]:
        """Hit/miss/eviction counters and occupancy (snapshot, not a view).

        ``resident`` counts the entries holding an open scenario.
        """
        with self._guard:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "resident": sum(
                    entry.scenario is not None for entry in self._entries.values()
                ),
                "bytes": sum(entry.nbytes for entry in self._entries.values()),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
            }

"""Tests for repro.utils (timer, histogram, random, validation)."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.histogram import fixed_range_histogram, probabilities, shannon_entropy
from repro.utils.random import derive_seed, rng_from_seed
from repro.utils.timer import Timer
from repro.utils.validation import (
    ensure_3d,
    ensure_float_array,
    ensure_in_range,
    ensure_positive,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestTimer:
    def test_elapsed_non_negative(self):
        with Timer() as t:
            sum(range(100))
        assert t.elapsed >= 0.0

    def test_stop_returns_elapsed(self):
        t = Timer()
        t.start()
        assert t.stop() >= 0.0

    def test_accumulates_over_restarts(self):
        t = Timer()
        t.start()
        first = t.stop()
        t.start()
        total = t.stop()
        assert total >= first

    def test_elapsed_while_running(self):
        t = Timer()
        t.start()
        assert t.elapsed >= 0.0


class TestHistogram:
    def test_counts_sum_to_size(self):
        values = np.linspace(-60, 80, 1000)
        counts = fixed_range_histogram(values, 256, (-60, 80))
        assert counts.sum() == 1000

    def test_clipping(self):
        values = np.array([-1000.0, 1000.0])
        counts = fixed_range_histogram(values, 10, (0.0, 1.0), clip=True)
        assert counts.sum() == 2
        assert counts[0] == 1 and counts[-1] == 1

    def test_drop_out_of_range(self):
        values = np.array([-1000.0, 0.5, 1000.0])
        counts = fixed_range_histogram(values, 10, (0.0, 1.0), clip=False)
        assert counts.sum() == 1

    def test_empty_input(self):
        counts = fixed_range_histogram(np.array([]), 8, (0.0, 1.0))
        assert counts.sum() == 0 and counts.size == 8

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            fixed_range_histogram(np.ones(3), 0, (0, 1))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            fixed_range_histogram(np.ones(3), 4, (1.0, 1.0))

    def test_probabilities_sum_to_one(self):
        counts = np.array([1, 2, 3, 0])
        probs = probabilities(counts)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs > 0)

    def test_probabilities_empty(self):
        assert probabilities(np.zeros(4)).size == 0

    def test_entropy_constant_is_zero(self):
        counts = np.array([100, 0, 0, 0])
        assert shannon_entropy(counts) == pytest.approx(0.0)

    def test_entropy_uniform_is_log2_bins(self):
        counts = np.full(16, 10)
        assert shannon_entropy(counts) == pytest.approx(4.0)

    def test_entropy_empty(self):
        assert shannon_entropy(np.zeros(8)) == 0.0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=64))
    def test_entropy_bounds_property(self, counts):
        e = shannon_entropy(np.asarray(counts))
        assert 0.0 <= e <= np.log2(len(counts)) + 1e-9


class TestRandom:
    def test_rng_from_int(self):
        a = rng_from_seed(7).standard_normal(4)
        b = rng_from_seed(7).standard_normal(4)
        np.testing.assert_allclose(a, b)

    def test_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert rng_from_seed(gen) is gen

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "shuffle", 3) == derive_seed(42, "shuffle", 3)

    def test_derive_seed_depends_on_components(self):
        assert derive_seed(42, "shuffle", 3) != derive_seed(42, "shuffle", 4)
        assert derive_seed(42, "a") != derive_seed(43, "a")

    def test_derive_seed_in_range(self):
        s = derive_seed(1, "x")
        assert 0 <= s < 2**63


class TestValidation:
    def test_ensure_3d_ok(self):
        arr = ensure_3d(np.zeros((2, 3, 4)))
        assert arr.shape == (2, 3, 4)

    def test_ensure_3d_rejects_2d(self):
        with pytest.raises(ValueError):
            ensure_3d(np.zeros((2, 3)))

    def test_ensure_float_array_casts_ints(self):
        arr = ensure_float_array(np.zeros((2, 2), dtype=np.int32))
        assert np.issubdtype(arr.dtype, np.floating)

    def test_ensure_float_array_keeps_float32(self):
        arr = ensure_float_array(np.zeros(3, dtype=np.float32))
        assert arr.dtype == np.float32

    def test_ensure_positive(self):
        assert ensure_positive(2.5) == 2.5
        with pytest.raises(ValueError):
            ensure_positive(0.0)

    def test_ensure_in_range(self):
        assert ensure_in_range(0.5, (0, 1)) == 0.5
        with pytest.raises(ValueError):
            ensure_in_range(1.5, (0, 1))


def _send_on_my_pipe(tag):
    """Pool task: send ``tag`` on this worker's pipe; ``(pid, slot)``."""
    from repro.utils.procpool import worker_channel

    slot, sender, _ = worker_channel()
    sender.send(tag)
    time.sleep(0.02)  # keep this worker busy so the next task may take another
    return os.getpid(), slot


class TestSharedProcpool:
    def test_each_worker_owns_one_slot_of_its_generation(self):
        """Every worker of a pool generation keeps one slot: what it sends
        arrives on that slot's reader, two workers never share a slot, and
        once the pool is shut down every reader reads EOF."""
        from repro.utils import procpool

        with pytest.raises(RuntimeError):
            procpool.worker_channel()  # the parent is no pool worker
        procpool.shutdown_shared_pool()
        pool, channels = procpool.shared_pool_channels()
        assert procpool.shared_pool_channels() == (pool, channels)
        width = len(channels.readers)
        assert width == procpool.default_process_workers() == len(channels.cancel)
        futures = [pool.submit(_send_on_my_pipe, tag) for tag in range(4 * width)]
        slots = {}
        for tag, future in enumerate(futures):
            pid, slot = future.result(timeout=30)
            assert slots.setdefault(pid, slot) == slot
            assert channels.readers[slot].poll(10)
            assert channels.readers[slot].recv() == tag
        assert len(set(slots.values())) == len(slots)
        assert set(slots.values()) <= set(range(width))
        procpool.shutdown_shared_pool()
        for reader in channels.readers:
            assert reader.poll(10)  # readable: at EOF, not empty
            with pytest.raises(EOFError):
                reader.recv()
            reader.close()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs thread affinity and a second CPU",
    )
    def test_default_process_workers_answers_for_the_process(self):
        """On Linux ``sched_getaffinity(0)`` is the calling thread's mask: a
        thread bound to one CPU (a thread-tier serve runner) must still get
        the main thread's worker count.  Fails if the count reads the
        calling thread's mask."""
        import threading

        from repro.utils.procpool import default_process_workers

        answers = []

        def bound():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            answers.append(default_process_workers())

        thread = threading.Thread(target=bound)
        thread.start()
        thread.join()
        assert answers == [default_process_workers()] and answers[0] >= 2

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs affinity")
    def test_a_one_cpu_process_gets_one_worker(self):
        """A process started on one CPU (``taskset -c 0``) gets one worker."""
        one_cpu = min(os.sched_getaffinity(0))
        done = subprocess.run(
            [
                sys.executable, "-c",
                "from repro.utils.procpool import default_process_workers as w; print(w())",
            ],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: os.sched_setaffinity(0, {one_cpu}),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.split() == ["1"]

    def test_warm_shared_pool_forks_workers_up_front(self):
        from repro.utils.procpool import (
            default_process_workers,
            shared_process_pool,
            warm_shared_pool,
        )

        started = warm_shared_pool()
        assert 1 <= started <= default_process_workers()
        # The pool is live and every later submit hits a forked worker.
        assert shared_process_pool().submit(int, "7").result(timeout=30) == 7
        assert warm_shared_pool(tasks=1) >= 1

    @pytest.mark.parametrize(
        "flipped",
        [None, "gil_bound", "one_worker", "spawn_only", "other_thread", "pool_worker"],
    )
    def test_pool_pays_is_the_conjunction_of_its_five_conditions(
        self, flipped, monkeypatch
    ):
        """The pool is taken iff the kernel is GIL-bound, a second worker
        exists, workers fork, the caller is the main thread and the caller is
        not a pool worker: all five hold → True; any one flipped alone → False."""
        import multiprocessing
        import threading

        from repro.utils import procpool

        workers = 1 if flipped == "one_worker" else 2
        monkeypatch.setattr(procpool, "default_process_workers", lambda: workers)
        if flipped == "spawn_only":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        gil_bound = flipped != "gil_bound"
        if flipped == "other_thread":
            answers = []
            thread = threading.Thread(
                target=lambda: answers.append(procpool.pool_pays(gil_bound))
            )
            thread.start()
            thread.join()
            answer = answers[0]
        elif flipped == "pool_worker":
            # The worker is forked after the patch, so it sees two workers too.
            procpool.shutdown_shared_pool()
            answer = procpool.shared_process_pool().submit(
                procpool.pool_pays, gil_bound
            ).result(timeout=30)
            procpool.shutdown_shared_pool()
        else:
            answer = procpool.pool_pays(gil_bound)
        assert answer is (flipped is None)

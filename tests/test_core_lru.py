"""Unit tests for the shared bounded LRU cache and the executors."""

import pytest

from repro.core import LRUCache, SerialExecutor, ThreadedExecutor, \
    resolve_executor


class TestLRUCache:
    def test_put_get(self):
        cache = LRUCache(max_entries=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_none(self):
        cache = LRUCache(max_entries=4)
        assert cache.get("ghost") is None
        assert cache.stats["misses"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")      # touch: "b" is now the LRU entry
        cache.put("c", 3)   # evicts "b"
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats["evictions"] == 1

    def test_bounded_size(self):
        cache = LRUCache(max_entries=3)
        for index in range(10):
            cache.put(index, index)
        assert len(cache) == 3
        assert cache.stats["evictions"] == 7

    def test_clear(self):
        cache = LRUCache(max_entries=3)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_hit_and_miss_counters(self):
        cache = LRUCache(max_entries=3)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("zz")
        assert cache.stats["hits"] == 2
        assert cache.stats["misses"] == 1


class TestExecutors:
    def test_serial_preserves_order(self):
        assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_threaded_preserves_order(self):
        executor = ThreadedExecutor(max_workers=4)
        assert executor.map(lambda x: x * 2, list(range(20))) == \
            [x * 2 for x in range(20)]

    def test_threaded_runs_concurrently(self):
        import threading
        barrier = threading.Barrier(3, timeout=5)

        def rendezvous(_item):
            barrier.wait()  # deadlocks unless 3 run at once
            return True

        assert ThreadedExecutor(max_workers=3).map(rendezvous,
                                                   [1, 2, 3]) == [True] * 3

    def test_threaded_raises_earliest_failure(self):
        def boom(item):
            if item % 2:
                raise ValueError(f"item {item}")
            return item

        with pytest.raises(ValueError, match="item 1"):
            ThreadedExecutor(max_workers=4).map(boom, [0, 1, 2, 3])

    def test_resolve_executor_specs(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadedExecutor)
        assert isinstance(resolve_executor("threaded"), ThreadedExecutor)
        # Every site shares one interpreter: fan-out threads would only
        # take turns on the GIL, so the default sends one at a time.
        assert isinstance(resolve_executor(None), SerialExecutor)
        custom = SerialExecutor()
        assert resolve_executor(custom) is custom

    def test_resolve_executor_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_executor("warp-drive")

"""Unit tests for repro.uarch.cache."""

import time

import numpy as np
import pytest

from repro.uarch.cache import Cache, CacheHierarchy, lru_hits
from repro.uarch.config import CacheParams
from tests.lru_oracle import OracleCache, OracleHierarchy


def _cache(size=1024, assoc=2, line=64, name="test"):
    return Cache(CacheParams(size, assoc, line_bytes=line), name)


def _hits(cache, lines):
    return cache.hits(np.array(lines, dtype=np.int64)).tolist()


def _addrs(*lines):
    return np.array([line * 64 for line in lines], dtype=np.uint64)


class TestCacheGeometry:
    def test_n_sets(self):
        params = CacheParams(1024, 2, line_bytes=64)  # 16 lines, 2-way -> 8 sets
        assert params.n_sets == 8

    def test_too_small_for_assoc_rejected(self):
        with pytest.raises(ValueError):
            CacheParams(64, 8, line_bytes=64)

    def test_scaled_preserves_min(self):
        params = CacheParams(1024, 8, line_bytes=64)
        scaled = params.scaled(1000.0)
        assert scaled.size_bytes == 8 * 64  # clamped to assoc * line

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ValueError):
            Cache(CacheParams(1024, 2, line_bytes=48))


class TestLruBehaviour:
    def test_cold_miss_then_hit(self):
        # compulsory miss, then resident
        assert _hits(_cache(), [5, 5]) == [False, True]

    def test_capacity_eviction_lru_order(self):
        c = _cache(size=2 * 64, assoc=2, line=64)  # one set, 2 ways
        # 2 evicts 0 (LRU): 1 still hits, 0 was evicted
        assert _hits(c, [0, 1, 2, 1, 0]) == [False, False, False, True, False]

    def test_touch_refreshes_lru(self):
        c = _cache(size=2 * 64, assoc=2, line=64)
        # refresh 0 so 1 becomes LRU; 2 then evicts 1
        assert _hits(c, [0, 1, 0, 2, 0, 1]) == [
            False, False, True, False, True, False,
        ]

    def test_set_isolation(self):
        c = _cache(size=4 * 64, assoc=1, line=64)  # 4 direct-mapped sets
        # set 1 traffic doesn't evict set 0
        assert _hits(c, [0, 1, 0]) == [False, False, True]

    def test_stats_weighting(self):
        c = _cache()
        stats = CacheHierarchy([c]).replay(
            [_addrs(1), _addrs(1)], weights=[3.0, 3.0]
        )
        level = stats.levels["test"]
        assert level.accesses == 6.0
        assert level.misses == 3.0
        assert level.hits == 3.0

    def test_mpki(self):
        stats = CacheHierarchy([_cache()]).replay([_addrs(1)])
        assert stats.levels["test"].mpki(1000) == pytest.approx(1.0)
        assert stats.levels["test"].mpki(0) == 0.0

    def test_reset_stats(self):
        """Every replay starts cold with fresh counters."""
        hier = CacheHierarchy([_cache()])
        hier.replay([_addrs(1)])
        assert hier.replay([]).levels["test"].accesses == 0
        again = hier.replay([_addrs(1)]).levels["test"]
        assert again.accesses == 1
        assert again.misses == 1


class TestHierarchy:
    def _hier(self):
        l1 = _cache(size=2 * 64, assoc=2, name="l1")
        l2 = _cache(size=8 * 64, assoc=4, name="l2")
        return CacheHierarchy([l1, l2])

    def test_miss_propagates(self):
        stats = self._hier().replay([_addrs(0)])
        assert stats.levels["l1"].misses == 1
        assert stats.levels["l2"].misses == 1
        assert stats.mem_accesses == 1

    def test_l1_hit_does_not_touch_l2(self):
        stats = self._hier().replay([_addrs(0), _addrs(0)])
        assert stats.levels["l2"].accesses == 1  # only the initial miss

    def test_l2_catches_l1_evictions(self):
        # Touch 3 lines in L1's single set (2-way): line 0 evicted from L1
        # but stays in L2.
        stats = self._hier().replay([_addrs(0), _addrs(1), _addrs(2), _addrs(0)])
        assert stats.event_misses[:, 3].tolist() == [1, 0]  # L2 hit
        assert stats.mem_accesses == 3  # no memory access for the re-touch

    def test_consecutive_same_line_collapsed_as_hits(self):
        addrs = np.array([0, 8, 16, 63], dtype=np.uint64)  # all in line 0
        stats = self._hier().replay([addrs])
        assert stats.levels["l1"].accesses == 4.0
        assert stats.levels["l1"].misses == 1.0

    def test_empty_batch_noop(self):
        stats = self._hier().replay([np.array([], dtype=np.uint64)])
        assert stats.levels["l1"].accesses == 0
        assert stats.event_misses.tolist() == [[0], [0]]

    def test_requires_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_stats_snapshot(self):
        stats = self._hier().replay([_addrs(0, 1)])
        assert stats.levels["l1"].accesses == 2
        assert stats.mem_accesses == 2

    def test_misses_are_attributed_to_their_event(self):
        stats = self._hier().replay([_addrs(0, 1), _addrs(0, 2, 3), _addrs(1)])
        assert stats.event_misses.tolist() == [[2, 2, 1], [2, 2, 0]]

    def test_matches_oracle_on_weighted_events(self):
        rng = np.random.default_rng(3)
        batches = [rng.integers(0, 64 * 40, size=n).astype(np.uint64)
                   for n in rng.integers(0, 30, size=60)]
        weights = [float(w) for w in rng.integers(1, 4, size=60)]
        levels = [_cache(4 * 64, 2, name="l1"), _cache(16 * 64, 4, name="l2"),
                  _cache(32 * 64, 8, name="l3")]
        fast = CacheHierarchy(levels).replay(batches, weights)
        slow = OracleHierarchy(levels).replay(batches, weights)
        assert fast.levels == slow.levels
        assert fast.mem_accesses == slow.mem_accesses
        assert np.array_equal(fast.event_misses, slow.event_misses)


class TestBatchedLru:
    def test_empty_stream(self):
        assert lru_hits(np.array([], dtype=np.int64), 4, 2).size == 0

    def test_long_random_stream_matches_oracle(self):
        """Enough undecided accesses to take the blocked scan through
        several row chunks and widening rounds."""
        rng = np.random.default_rng(11)
        lines = rng.integers(0, 300, size=60_000)
        oracle = OracleCache(CacheParams(4 * 8 * 64, 8))
        assert lru_hits(lines, 4, 8).tolist() == oracle.hits(lines.tolist())

    def test_adversarial_long_loop_matches_oracle_quickly(self):
        """One line returns after a 100k-access loop over fewer than
        ``assoc`` other lines: its window is long but has few distinct
        lines, the worst case for a scan that stops at ``assoc``."""
        assoc = 8
        loop = np.tile(np.arange(1, assoc), 100_000 // (assoc - 1) + 1)[:100_000]
        rest = np.random.default_rng(5).integers(0, 4 * assoc, size=99_998)
        lines = np.concatenate(([1000], loop, [1000], rest)).astype(np.int64)
        assert lines.size == 200_000
        start = time.perf_counter()
        fast = lru_hits(lines, 1, assoc)
        elapsed = time.perf_counter() - start
        assert fast[100_001]  # the returning line hits
        assert fast.tolist() == OracleCache(
            CacheParams(assoc * 64, assoc)
        ).hits(lines.tolist())
        assert elapsed < 2.0

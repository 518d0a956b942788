"""Per-access list-LRU model of the data-side cache hierarchy (test oracle).

Each set is a Python list used as an LRU stack (most recently used at
the end), and every access walks the hierarchy level by level. It is
slow and obviously correct, which is what an oracle should be:
:mod:`repro.uarch.cache` computes the same hit/miss decisions for a
whole stream at once, and the tests require the two to agree access by
access.

:class:`OracleHierarchy` also offers ``replay`` with the same signature
and result type as :meth:`repro.uarch.cache.CacheHierarchy.replay`, so a
test can swap it into the simulator and compare full reports.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.uarch.cache import CacheStats, HierarchyStats
from repro.uarch.config import CacheParams

__all__ = ["OracleCache", "OracleHierarchy"]


class OracleCache:
    """One set-associative LRU cache level with per-set list stacks."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.n_sets = params.n_sets
        self.assoc = params.assoc
        self._line_shift = int(params.line_bytes).bit_length() - 1
        if params.line_bytes != (1 << self._line_shift):
            raise ValueError("line_bytes must be a power of two")
        # Per-set LRU stacks: most recently used at the END of the list.
        self._sets: list[list[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()
        self.miss_count = 0  # unweighted

    def access_line(self, line: int, weight: float = 1.0) -> bool:
        """Access one line address; returns True on hit."""
        s = self._sets[line % self.n_sets]
        self.stats.accesses += weight
        try:
            s.remove(line)
        except ValueError:
            self.stats.misses += weight
            self.miss_count += 1
            if len(s) >= self.assoc:
                s.pop(0)
            s.append(line)
            return False
        s.append(line)
        return True

    def hits(self, lines: Sequence[int]) -> list[bool]:
        return [self.access_line(int(line)) for line in lines]


class OracleHierarchy:
    """A chain of :class:`OracleCache` levels backed by memory.

    Built from the geometry of any objects with ``params`` and ``name``
    (``repro.uarch.cache.Cache`` or :class:`OracleCache`).
    """

    def __init__(self, levels: list) -> None:
        if not levels:
            raise ValueError("hierarchy requires at least one level")
        self._geometry = [(c.params, c.name) for c in levels]
        self.levels = [OracleCache(p, n) for p, n in self._geometry]
        self.mem_accesses = 0.0

    def access(self, addrs: np.ndarray, weight: float = 1.0) -> None:
        """Run one batch of byte addresses through the hierarchy."""
        if addrs.size == 0:
            return
        first = self.levels[0]
        lines = (addrs >> np.uint64(first._line_shift)).astype(np.int64)
        if lines.size > 1:
            # Collapse consecutive same-line accesses (guaranteed hits).
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            collapsed = lines[keep]
            # The collapsed-away accesses still count as L1 hits.
            first.stats.accesses += float(lines.size - collapsed.size) * weight
            lines = collapsed
        for line in lines.tolist():
            for level in self.levels:
                if level.access_line(line, weight):
                    break
            else:
                self.mem_accesses += weight

    def replay(
        self,
        batches: Sequence[np.ndarray],
        weights: Sequence[float] | None = None,
    ) -> HierarchyStats:
        """Cold replay of per-event batches, one access at a time."""
        self.levels = [OracleCache(p, n) for p, n in self._geometry]
        self.mem_accesses = 0.0
        if weights is None:
            weights = [1.0] * len(batches)
        event_misses = np.zeros((len(self.levels), len(batches)), dtype=np.int64)
        for e, (addrs, weight) in enumerate(zip(batches, weights)):
            before = [c.miss_count for c in self.levels]
            self.access(np.asarray(addrs, dtype=np.uint64), weight)
            for k, c in enumerate(self.levels):
                event_misses[k, e] = c.miss_count - before[k]
        return HierarchyStats(
            levels={c.name: c.stats for c in self.levels},
            mem_accesses=self.mem_accesses,
            event_misses=event_misses,
        )

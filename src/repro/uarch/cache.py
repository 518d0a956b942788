"""Exact set-associative LRU caches, computed for a whole trace at once.

LRU hit/miss is fully determined by set-local reuse distance (Mattson
et al., "Evaluation techniques for storage hierarchies", 1970): an access
to line ``x`` hits iff ``x`` was used before in its set and fewer than
``assoc`` distinct other lines of that set were used since. So instead
of walking an LRU stack per access, :func:`lru_hits` decides every
access of a stream with array operations:

1. stable-sort the stream by set, so each set's accesses are contiguous
   and still in time order;
2. find each access's previous use ``p`` of the same line (a stable
   argsort by line);
3. an access at ``i`` hits iff ``#{k in (p, i) : prev[k] <= p} < assoc``,
   which is the number of distinct lines in between. Windows shorter
   than ``assoc`` hit outright, and a window whose first ``assoc``
   accesses are all first uses misses outright (one sliding maximum
   decides that for every access). The rest are resolved by a blocked
   forward scan, with blocks doubling in width, that stops as soon as
   ``assoc`` distinct lines are seen; the last few stragglers are
   counted one query at a time. A long window with few distinct lines
   thus costs a few widening blocks or one array count, never one
   Python-level iteration per access.

:class:`CacheHierarchy` chains levels: each level's misses, in time
order, are the next level's input, and the last level's misses are
memory accesses. The hierarchy is non-inclusive with allocate-on-miss
at every level, and every :meth:`CacheHierarchy.replay` starts cold.
Accesses arrive as per-event batches of byte addresses; consecutive
same-line accesses within a batch are collapsed first (they are
guaranteed L1 hits), and lines are renumbered densely so that sort keys
are small integers. Miss counts are kept per event as integers, and
weighted totals are integer count x weight, so they are exact and
independent of summation order for the integer-valued weights a
sampling tracer produces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.uarch.config import CacheParams

__all__ = ["Cache", "CacheStats", "CacheHierarchy", "HierarchyStats", "lru_hits"]

# Stream positions are int32 (a stream holds fewer than 2**31 accesses),
# half the memory of numpy's default index type.

#: Element budget of one forward-scan block (rows x columns).
_SCAN_BUDGET = 1 << 16

#: Undecided accesses left when the scan switches to one query at a time.
_STRAGGLERS = 32

#: Batches concatenated, and accesses given ids, at a time when building
#: the line stream.
_EVENT_SLICE = 512
_ID_SLICE = 1 << 15


@dataclass
class CacheStats:
    """Access/miss counters for one cache level (weighted)."""

    accesses: float = 0.0
    misses: float = 0.0

    @property
    def hits(self) -> float:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: float) -> float:
        """Misses per kilo instructions."""
        if instructions <= 0:
            return 0.0
        return self.misses * 1000.0 / instructions


def _small_int(bound: int) -> type:
    """Narrowest index type for values below ``bound``; uint16 keys make
    numpy's stable argsort a radix sort."""
    return np.uint16 if bound <= 1 << 16 else np.int32


def _previous_use(ids: np.ndarray) -> np.ndarray:
    """Position of each element's previous equal element, or -1."""
    order = np.argsort(ids, kind="stable").astype(np.int32)
    ordered = ids[order]
    same = ordered[1:] == ordered[:-1]
    del ordered
    prev = np.full(ids.size, -1, dtype=np.int32)
    prev[order[1:]] = np.where(same, order[:-1], -1)
    return prev


def _window_max(values: np.ndarray, width: int) -> np.ndarray:
    """``out[k] = max(values[k:k + width])`` wherever the window fits."""
    out = values.copy()
    span = 1
    while span < width:
        step = min(span, width - span)
        out[:-step] = np.maximum(out[:-step], out[step:])
        span += step
    return out


def _resolve(prev: np.ndarray, assoc: int) -> np.ndarray:
    """Hit mask of a set-sorted access stream, given previous uses.

    A reuse window never crosses a set boundary, because the previous
    use of a line lies in the same set; so sets can sit back to back.
    """
    n = prev.size
    at = np.arange(n, dtype=np.int32)
    reused = prev >= 0
    far = at - prev > assoc  # at least assoc accesses in between
    hit = reused & ~far
    end = at[reused & far]
    del at, reused, far
    start = prev[end]
    # A miss is certain when the assoc accesses right after the previous
    # use are all first uses inside the window.
    undecided = _window_max(prev, assoc)[start + 1] > start
    end, start = end[undecided], start[undecided]
    # Forward scan: pos is the next position to look at, seen the number
    # of distinct lines found in (start, pos).
    pos = start + 1
    seen = np.zeros(end.size, dtype=np.int32)
    width = assoc
    while end.size > _STRAGGLERS:
        cols = np.arange(width, dtype=np.int32)
        rows = max(1, _SCAN_BUDGET // width)
        for lo in range(0, end.size, rows):
            sl = slice(lo, lo + rows)
            look = pos[sl, None] + cols
            inside = look < end[sl, None]
            np.minimum(look, n - 1, out=look)
            fresh = (prev[look] <= start[sl, None]) & inside
            seen[sl] += np.count_nonzero(fresh, axis=1).astype(np.int32)
        pos += width
        undecided = seen < assoc
        hit[end[undecided & (pos >= end)]] = True
        undecided &= pos < end
        end, start, pos, seen = (
            end[undecided], start[undecided], pos[undecided], seen[undecided]
        )
        if end.size:
            width = min(2 * width, int((end - pos).max()))
    for i, p, q, s in zip(end.tolist(), start.tolist(), pos.tolist(),
                          seen.tolist()):
        if s + np.count_nonzero(prev[q:i] <= p) < assoc:
            hit[i] = True
    return hit


def _dense_hits(
    table: np.ndarray, ids: np.ndarray, n_sets: int, assoc: int
) -> np.ndarray:
    """:func:`lru_hits` over accesses given as indices into ``table``."""
    if ids.size == 0:
        return np.zeros(0, dtype=bool)
    if n_sets == 1:
        return _resolve(_previous_use(ids), assoc)
    sets = (table % n_sets).astype(_small_int(n_sets))[ids]
    order = np.argsort(sets, kind="stable").astype(np.int32)
    del sets
    hit = np.empty(ids.size, dtype=bool)
    hit[order] = _resolve(_previous_use(ids[order]), assoc)
    return hit


def lru_hits(lines: np.ndarray, n_sets: int, assoc: int) -> np.ndarray:
    """Hit mask of a cold ``n_sets`` x ``assoc`` LRU cache over ``lines``.

    ``lines`` are line addresses in access order; line ``x`` maps to set
    ``x % n_sets``. The result is exactly what replaying the stream
    through per-set LRU stacks would report, access by access.
    """
    table, ids = np.unique(np.asarray(lines, dtype=np.int64), return_inverse=True)
    return _dense_hits(table, ids.reshape(-1).astype(_small_int(table.size)),
                       n_sets, assoc)


class Cache:
    """Geometry of one set-associative LRU cache level."""

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.params = params
        self.name = name
        self.n_sets = params.n_sets
        self.assoc = params.assoc
        self._line_shift = int(params.line_bytes).bit_length() - 1
        if params.line_bytes != (1 << self._line_shift):
            raise ValueError("line_bytes must be a power of two")

    def hits(self, lines: np.ndarray) -> np.ndarray:
        """Hit mask of this level, starting cold, over a line stream."""
        return lru_hits(lines, self.n_sets, self.assoc)


@dataclass
class HierarchyStats:
    """Stats for every level plus memory-access totals.

    ``event_misses[k, e]`` is the (unweighted) number of misses of event
    ``e`` at level ``k``; the last row is also the event's memory
    accesses.
    """

    levels: dict[str, CacheStats]
    mem_accesses: float
    event_misses: np.ndarray


class CacheHierarchy:
    """A chain of cache levels backed by memory.

    ``levels`` order is nearest-first (e.g. [L1d, L2, L3]). A miss at
    level *i* probes level *i+1*; a miss at the last level counts as a
    memory access. Each level allocates on miss (non-inclusive victim
    behaviour is not modeled).
    """

    def __init__(self, levels: list[Cache]) -> None:
        if not levels:
            raise ValueError("hierarchy requires at least one level")
        self.levels = levels

    def replay(
        self,
        batches: Sequence[np.ndarray],
        weights: Sequence[float] | None = None,
    ) -> HierarchyStats:
        """Run per-event batches of byte addresses through a cold
        hierarchy; ``weights`` (default 1.0) scales each event's counts."""
        n_events = len(batches)
        w = (np.ones(n_events) if weights is None
             else np.asarray(weights, dtype=np.float64))
        sizes = np.fromiter((b.size for b in batches), dtype=np.int64,
                            count=n_events)
        event_misses = np.zeros((len(self.levels), n_events), dtype=np.int64)
        table, ids, event = _line_stream(
            batches, sizes, self.levels[0]._line_shift
        )
        for k, level in enumerate(self.levels):
            miss = ~_dense_hits(table, ids, level.n_sets, level.assoc)
            ids, event = ids[miss], event[miss]
            event_misses[k] = np.bincount(event, minlength=n_events)
        weighted = event_misses * w
        missed = weighted.sum(axis=1).tolist()
        reached = [float(sizes @ w)] + missed[:-1]
        return HierarchyStats(
            levels={
                c.name: CacheStats(accesses=a, misses=m)
                for c, a, m in zip(self.levels, reached, missed)
            },
            mem_accesses=missed[-1],
            event_misses=event_misses,
        )


def _line_stream(
    batches: Sequence[np.ndarray], sizes: np.ndarray, line_shift: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The accesses of all batches as one line stream, with consecutive
    same-line accesses inside a batch collapsed.

    Returns the distinct lines (ascending), each access's index into
    them, and each access's batch index. Batches are concatenated a slice
    at a time, so the raw addresses never exist for the whole trace.
    """
    n_events = len(batches)
    # Filled front to back; pages past the collapsed length stay untouched.
    lines = np.empty(int(sizes.sum()), dtype=np.int64)
    kept = np.zeros(n_events, dtype=np.int64)
    distinct = [np.zeros(0, dtype=np.int64)]
    shift = np.uint64(line_shift)
    end = 0
    for lo in range(0, n_events, _EVENT_SLICE):
        size = sizes[lo:lo + _EVENT_SLICE]
        nonempty = size > 0
        if not nonempty.any():
            continue
        raw = np.concatenate(batches[lo:lo + _EVENT_SLICE]).astype(
            np.uint64, copy=False
        ) >> shift
        first = np.cumsum(size[nonempty]) - size[nonempty]
        keep = np.empty(raw.size, dtype=bool)
        np.not_equal(raw[1:], raw[:-1], out=keep[1:])
        keep[first] = True
        piece = raw[keep].view(np.int64)
        lines[end:end + piece.size] = piece
        end += piece.size
        kept[lo:lo + _EVENT_SLICE][nonempty] = np.add.reduceat(
            keep, first, dtype=np.int64
        )
        distinct.append(np.unique(piece))
    lines = lines[:end]
    table = np.unique(np.concatenate(distinct))
    ids = np.empty(end, dtype=_small_int(table.size))
    for lo in range(0, end, _ID_SLICE):
        ids[lo:lo + _ID_SLICE] = np.searchsorted(table, lines[lo:lo + _ID_SLICE])
    event = np.repeat(np.arange(n_events, dtype=_small_int(n_events)), kept)
    return table, ids, event

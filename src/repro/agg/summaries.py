"""A site's aggregation summaries, its one scalar answer cache: an LRU
of rolled-up :class:`~repro.agg.partial.Partial` values under their
summary keys, each stamped with the time its data was all current and
evicted by region when an update or an ownership change lands over it.
Thread-safe."""

from repro.core.idable import id_paths_overlap
from repro.core.lru import LRUCache

#: The summary cache's LRU budget.
SUMMARY_MAX_ENTRIES = 256


class Summary:
    """One cached value: computed at ``computed_at`` over ``region``
    (an id path, or ``None``: never region-evicted), its data all
    current at ``as_of`` (``-inf``: of unknown age; ``None``: unstamped)."""

    __slots__ = ("value", "computed_at", "region", "as_of", "hits")

    def __init__(self, value, computed_at, region, as_of):
        self.value = value
        self.computed_at = computed_at
        self.region = region
        self.as_of = as_of
        self.hits = 0

    def age(self, now):
        return now - self.computed_at


class SummaryStore(LRUCache):
    """The summaries, least-recently-used first."""

    def __init__(self):
        super().__init__(SUMMARY_MAX_ENTRIES)
        self.stats.update(stale_rejects=0, stores=0, predicate_evictions=0)

    def lookup(self, key, now, bound=None, max_age=None):
        """The summary under *key* iff it is fresh enough for the caller.

        A caller with a freshness *bound* (seconds) is served one whose
        data was current after ``now - bound``, give or take the
        precision slack *max_age*: ``now - as_of < bound + max_age``,
        the rule of the ``timestamp() > current-time() - bound``
        predicate itself, so a bound of 0 is never served.  A caller
        without one is served any summary (Section 4: cached data of any
        age), or one no older than its *max_age* when it gives one.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats["misses"] += 1
                return None
            if bound is not None:
                fresh = entry.as_of is not None and \
                    now - entry.as_of < bound + (max_age or 0)
            else:
                fresh = max_age is None or entry.age(now) <= max_age
            if not fresh:
                self.stats["misses"] += 1
                self.stats["stale_rejects"] += 1
                return None
            entry.hits += 1
            self.stats["hits"] += 1
            self._entries.move_to_end(key)
            return entry

    def store(self, key, value, now, region=None, as_of=None):
        """Cache *value*, computed at *now* over *region*, under *key*
        (replacing what was there), evicting the least recently used
        summary past the budget."""
        self.put(key, Summary(value, now, region, as_of))
        with self._lock:
            self.stats["stores"] += 1

    def peek(self, key):
        """The summary under *key*, touching no counter or LRU order
        (EXPLAIN never distorts what it reports)."""
        with self._lock:
            return self._entries.get(key)

    def evict_paths(self, id_paths):
        """Drop every summary whose region overlaps one of *id_paths*
        (one at or below a path was computed from it, one above folded
        it in); counted under ``predicate_evictions``.  Returns how many
        were dropped."""
        targets = [tuple(tuple(pair) for pair in path) for path in id_paths]
        with self._lock:
            doomed = [key for key, entry in self._entries.items()
                      if entry.region is not None and any(
                          id_paths_overlap(entry.region, target)
                          for target in targets)]
            for key in doomed:
                del self._entries[key]
            self.stats["predicate_evictions"] += len(doomed)
            return len(doomed)

    def metrics(self):
        """The counters and the ``entries`` gauge."""
        with self._lock:
            return dict(self.stats, entries=len(self._entries))

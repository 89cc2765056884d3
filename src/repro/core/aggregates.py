"""Aggregate queries with freshness/precision tolerance (Section 4).

The paper extends query-based consistency to "acceptable precision,
based on certain aggregate attributes of the data": e.g. a query for
the number of available parking spots in a city may accept a 10%
tolerance rather than an exact, fully fresh count.

Implementation: scalar answers (count/sum/boolean over a region) are
cached per query with the clock reading at which they were computed.
A tolerant query supplies a ``max_age``; a cached value no older than
that is returned without touching the network.  The mapping from the
paper's value-based tolerance to this time-based bound is the standard
drift argument: if the aggregate changes at most ``r`` fraction per
second (a property of the sensor process), a ``p`` precision tolerance
is honoured by ``max_age = p / r``.  :class:`AggregateCache` exposes
exactly that conversion.
"""

from repro.core.semcache import SemanticCache, SemanticCacheConfig


class AggregateCache:
    """Freshness-bounded cache of scalar query answers for one site.

    Since the semantic-cache work this is a thin clock-aware veneer
    over :class:`~repro.core.semcache.SemanticCache`: size-aware LRU
    with measured admission/eviction instead of unbounded growth.  Keys
    are whatever the caller supplies -- the gather driver passes
    (bucketed) canonical keys plus the exact spelling for coalesce
    accounting; raw strings keep working for direct users.
    """

    def __init__(self, clock, drift_rate=None, config=None):
        """*drift_rate*: maximum fractional change of aggregates per
        second, used to convert precision tolerances into ages; without
        it only explicit ``max_age`` bounds are accepted.  *config* is
        a :class:`~repro.core.semcache.SemanticCacheConfig` governing
        budget and admission."""
        self.clock = clock
        self.drift_rate = drift_rate
        self.cache = SemanticCache(config or SemanticCacheConfig())
        self.stats = self.cache.stats

    # ------------------------------------------------------------------
    def max_age_for_precision(self, precision):
        """The staleness bound honouring a fractional *precision*."""
        if self.drift_rate is None or self.drift_rate <= 0:
            raise ValueError(
                "precision tolerances need a configured drift_rate"
            )
        return precision / self.drift_rate

    # ------------------------------------------------------------------
    def lookup(self, query, max_age=None, precision=None, exact_key=None,
               tolerance=None):
        """A cached value fresh enough for the given tolerance, or None.

        *exact_key* and *tolerance* feed the semantic cache's
        subsumption check when *query* is a bucket-shared key: a hit
        under a different exact key counts as bucket-coalesced, and the
        allowed age shrinks by any tolerance slack the stored entry
        carries over this query (see ``SemanticCache.lookup``).
        """
        if max_age is None and precision is not None:
            max_age = self.max_age_for_precision(precision)
        return self.cache.lookup(query, self.clock(), max_age=max_age,
                                 exact_key=exact_key, tolerance=tolerance)

    def store(self, query, value, exact_key=None, tolerance=None):
        return self.cache.store(query, value, self.clock(),
                                exact_key=exact_key, tolerance=tolerance)

    def invalidate(self, query=None):
        self.cache.invalidate(query)

    def evict_paths(self, id_paths):
        """Evict every cached aggregate overlapping one of *id_paths*.

        Keys are canonical query strings; an entry overlaps when its
        anchor id path is at/below one of the given paths (it was
        computed from the migrated region) or strictly above one
        (its value folded the migrated region in).  Unparseable or
        anchorless keys are left alone.  Returns the eviction count.
        """
        from repro.xpath.analysis import anchor_id_path

        targets = [tuple(tuple(entry) for entry in path)
                   for path in id_paths]

        def overlaps(key):
            anchor = anchor_id_path(key)
            if anchor is None:
                return False
            return any(anchor[:len(path)] == path
                       or path[:len(anchor)] == anchor
                       for path in targets)

        return self.cache.evict_matching(overlaps)

    def metrics(self):
        """Registry-facing snapshot (counters + byte/entry gauges)."""
        return self.cache.metrics()

    def __len__(self):
        return len(self.cache)

"""Per-id-path served-query load counters.

Every organizing agent carries a :class:`PathLoadTracker` and records
the anchor id path of each query it serves.  The counters are
cumulative and strictly local -- no wire traffic, no clock reads -- so
an always-on tracker cannot perturb wire parity; the balancer derives
per-tick *rates* by diffing successive snapshots, which also survives
the test suites' frozen ``lambda: 0.0`` clocks.

Anchor extraction parses the query string, which is not free; a
bounded memo keyed by the raw query string amortizes it to a dict hit
for the repeated queries that constitute any real hot spot.
"""

import threading
from collections import OrderedDict

from repro.xpath.analysis import anchor_id_path

__all__ = ["PathLoadTracker"]


class PathLoadTracker:
    """Thread-safe cumulative per-anchor query counters for one site."""

    def __init__(self, memo_limit=4096):
        self._lock = threading.Lock()
        self._counts = {}
        self._total = 0
        self._unattributed = 0
        self._memo = OrderedDict()  # query string -> anchor (or None)
        self._memo_limit = memo_limit

    def record_path(self, id_path):
        """Count one served query anchored at *id_path*."""
        path = tuple(tuple(entry) for entry in id_path)
        with self._lock:
            self._counts[path] = self._counts.get(path, 0) + 1
            self._total += 1

    def record_query(self, query):
        """Count one served query, extracting its anchor (memoized)."""
        anchor = None
        if isinstance(query, str):
            with self._lock:
                if query in self._memo:
                    anchor = self._memo[query]
                    self._memo.move_to_end(query)
                    if anchor is None:
                        self._unattributed += 1
                        self._total += 1
                    else:
                        self._counts[anchor] = self._counts.get(anchor, 0) + 1
                        self._total += 1
                    return anchor
        anchor = anchor_id_path(query)
        with self._lock:
            if isinstance(query, str):
                self._memo[query] = anchor
                while len(self._memo) > self._memo_limit:
                    self._memo.popitem(last=False)
            if anchor is None:
                self._unattributed += 1
            else:
                self._counts[anchor] = self._counts.get(anchor, 0) + 1
            self._total += 1
        return anchor

    def snapshot(self):
        """A point-in-time copy of the cumulative per-anchor counts."""
        with self._lock:
            return dict(self._counts)

    @property
    def total(self):
        with self._lock:
            return self._total

    def counters(self):
        """Metrics-registry view: totals only, never the path map."""
        with self._lock:
            return {
                "queries": self._total,
                "anchors": len(self._counts),
                "unattributed": self._unattributed,
            }

"""Per-id-path served-query load counters.

Every organizing agent carries a :class:`PathLoadTracker` and records
the anchor id path of each query it serves.  The counters are
cumulative and strictly local -- no wire traffic, no clock reads -- so
an always-on tracker cannot perturb wire parity; the balancer derives
per-tick *rates* by diffing successive snapshots, which also survives
the test suites' frozen ``lambda: 0.0`` clocks.

The agent hands the tracker each query's anchor, read off its compiled
pattern (:func:`repro.core.qeg.query_anchor`), so counting parses
nothing.
"""

import threading

__all__ = ["PathLoadTracker"]


class PathLoadTracker:
    """Thread-safe cumulative per-anchor query counters for one site."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts = {}
        self._total = 0
        self._unattributed = 0

    def record_path(self, id_path):
        """Count one served query anchored at *id_path* (``None``: a
        query with no usable anchor)."""
        with self._lock:
            self._total += 1
            if id_path is None:
                self._unattributed += 1
                return
            path = tuple(tuple(entry) for entry in id_path)
            self._counts[path] = self._counts.get(path, 0) + 1

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

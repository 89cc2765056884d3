"""Throughput and latency accounting for simulated experiments."""


class WorkloadMetrics:
    """Throughput and latency accounting over a measurement window."""

    def __init__(self):
        self.window_start = 0.0
        self.window_end = 0.0
        self.completed = 0
        self.completed_by_type = {}
        self.latencies = []
        self.latencies_by_type = {}
        self.timeline = []  # (time, cumulative completed) samples

    def begin_window(self, now):
        """Start measuring (end of warm-up)."""
        self.window_start = now
        self.completed = 0
        self.completed_by_type = {}
        self.latencies = []
        self.latencies_by_type = {}
        self.timeline = []

    def record(self, now, latency, query_type=None):
        self.completed += 1
        self.latencies.append(latency)
        if query_type is not None:
            self.completed_by_type[query_type] = \
                self.completed_by_type.get(query_type, 0) + 1
            self.latencies_by_type.setdefault(query_type, []).append(latency)
        self.timeline.append((now, self.completed))

    def close_window(self, now):
        self.window_end = now

    # ------------------------------------------------------------------
    @property
    def duration(self):
        return max(self.window_end - self.window_start, 0.0)

    @property
    def throughput(self):
        """Completed queries per simulated second."""
        if self.duration <= 0:
            return 0.0
        return self.completed / self.duration

    @property
    def mean_latency(self):
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def mean_latency_of(self, query_type):
        values = self.latencies_by_type.get(query_type, [])
        if not values:
            return 0.0
        return sum(values) / len(values)

    def percentile_latency(self, fraction):
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    def throughput_trace(self, bin_seconds=5.0):
        """(bin end time, completions in bin) pairs, as in Figure 9."""
        if not self.timeline:
            return []
        bins = {}
        for when, _cum in self.timeline:
            key = int((when - self.window_start) // bin_seconds)
            bins[key] = bins.get(key, 0) + 1
        horizon = int(self.duration // bin_seconds) + 1
        return [
            (self.window_start + (k + 1) * bin_seconds, bins.get(k, 0))
            for k in range(horizon)
        ]

    def summary(self):
        return {
            "throughput": round(self.throughput, 2),
            "completed": self.completed,
            "mean_latency_ms": round(self.mean_latency * 1000, 2),
            "p95_latency_ms": round(self.percentile_latency(0.95) * 1000, 2),
            "by_type": dict(sorted(self.completed_by_type.items())),
        }

    def __repr__(self):
        return f"WorkloadMetrics({self.summary()})"

"""The per-agent half of rebalancing: migration counters and EXPLAIN.

The migration protocol itself (delegate / adopt / release, the paper's
Section 4) is the organizing agent's; this part only reads what the
agent already records -- its migration-safety stats, its always-on
:class:`~repro.net.load.PathLoadTracker`, its ``migration_log`` -- and
applies the config's ``adopt_attempts``.
"""

from repro.core.idable import format_id_path, id_paths_overlap

#: The agent stats that describe migrations (in ``agent.stats``).
MIGRATION_STATS = (
    "migrations_in", "migrations_out", "migrations_aborted",
    "migrations_released", "held_updates_forwarded", "held_updates_lost",
    "migration_cache_evictions",
)


def migration_counters(agent):
    """One agent's migration-safety stats plus its load-tracker totals."""
    counters = {key: agent.stats.get(key, 0) for key in MIGRATION_STATS}
    tracked = agent.load.counters()
    counters["tracked_queries"] = tracked["queries"]
    counters["tracked_anchors"] = tracked["anchors"]
    return counters


class SiteRebalance:
    """Site hooks for rebalancing (see :mod:`repro.net.subsystem`)."""

    name = "rebalance"

    def __init__(self, agent, config):
        self.agent = agent
        agent.adopt_attempts = config.adopt_attempts

    def metrics(self):
        return migration_counters(self.agent)

    def explain(self, context):
        """Recent ownership migrations at this site.

        Each entry of the agent's ``migration_log`` is reported with
        its direction and peer; entries whose paths overlap the query's
        LCA are flagged ``covers_query`` -- the "ownership moved"
        annotation that explains why a fragment this site used to
        answer now routes elsewhere (or vice versa).
        """
        log = list(self.agent.migration_log)
        if not log:
            return
        lca = context.lca_path
        entries = []
        lines = ["rebalance:"]
        for entry in log:
            covers = any(id_paths_overlap(path, lca)
                         for path in entry["paths"])
            entries.append({
                "direction": entry["direction"],
                "peer": entry["peer"],
                "paths": [[list(e) for e in path]
                          for path in entry["paths"]],
                "covers_query": covers,
            })
            arrow = "<-" if entry["direction"] == "in" else "->"
            paths = ", ".join(format_id_path(path)
                              for path in entry["paths"])
            lines.append(f"  {arrow} {entry['peer']}: {paths}"
                         + (" [ownership moved]" if covers else ""))
        context.add_section(self.name, entries, lines)

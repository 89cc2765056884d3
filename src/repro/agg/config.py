"""Configuration for hierarchical aggregation, and its cluster half."""

from repro.agg.manager import AggregationManager
from repro.core.errors import QueryRoutingError
from repro.net.messages import as_id_path
from repro.obs.registry import sum_numeric


class AggregationConfig:
    """Hierarchical aggregation, switched on.

    It has no tunables.  Pass it in ``Cluster(subsystems=[...])`` (or
    ``OAConfig(subsystems=[...])``) to switch the subsystem on; not
    passing it keeps the wire byte-identical to a build without it.
    """

    name = "aggregation"

    def site_subsystem(self, agent):
        return AggregationManager(agent)

    def cluster_subsystem(self, cluster):
        return ClusterAggregation(cluster)

    def __repr__(self):
        return "AggregationConfig()"


class ClusterAggregation:
    """Cluster hooks for aggregation (see :mod:`repro.net.subsystem`):
    derived-sensor registration and the cluster-wide metrics rollup."""

    name = "aggregation"

    def __init__(self, cluster):
        self.cluster = cluster

    def register_derived_sensor(self, parent_path, identifier, formula,
                                tag="derived", attributes=None):
        """Register a formula-defined virtual sensor.

        Creates an IDable ``<derived>`` node under *parent_path* via the
        ordinary schema-evolution path (DNS entry included), then
        registers the formula with the owner's aggregation manager,
        subscribing each dependency region through
        :meth:`Cluster.subscribe` / :mod:`repro.net.continuous` so the
        sensor re-evaluates when its inputs change.  Returns the
        :class:`~repro.agg.derived.DerivedSensor`.
        """
        cluster = self.cluster
        parent_path = as_id_path(parent_path)
        owner = cluster.owner_map.get(parent_path)
        if owner is None:
            raise QueryRoutingError(f"unknown parent {parent_path}")
        merged = {"formula": formula}
        if attributes:
            merged.update(attributes)
        cluster.add_node(parent_path, tag, identifier,
                         attributes=merged, values={"value": "NaN"})
        node_path = parent_path + ((tag, identifier),)
        return cluster.agents[owner].subsystem(self.name).register_derived(
            identifier, node_path, formula,
            subscribe=lambda query, callback: cluster.subscribe(
                query, callback, fire_immediately=False),
        )

    def rollup(self, totals):
        """Sum the nested summary-cache counters too, and recompute the
        hit ratio cluster-wide (a ratio of sums, not a sum of ratios)."""
        summary = sum_numeric(site["summary"]
                              for site in totals["sites"].values())
        asked = summary.get("hits", 0) + summary.get("misses", 0)
        totals["summary"] = summary
        totals["summary_hit_ratio"] = (
            round(summary["hits"] / asked, 6) if asked else 0.0)
        return totals

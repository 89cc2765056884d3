"""Hierarchical aggregation and derived sensors.

Aggregate queries (``count``/``sum``/``avg``/``min``/``max`` around
any path the QEG walk takes) are answered from **summaries**: mergeable
partial aggregates cached per region at every organizing agent, merged
deterministically up the hierarchy, each of the walk's asks a fold item
of an ordinary ``query`` answered with a merge-state tuple instead of a
subtree -- a county-level ``avg`` over a million sensors
never fans out to the leaves.  Derived sensors define virtual readings
as formulas over those aggregates, re-evaluated through
continuous-query subscriptions on their input regions.

Built into every agent and cluster, as continuous queries are: the
per-agent manager is ``agent.aggregation`` (also
``agent.subsystem("aggregation")``), derived-sensor registration is
``cluster.subsystem("aggregation")``, and its summaries are the site's
one scalar answer cache.
"""

# Every agent builds a manager: the agent's world loads first, so
# importing this package on its own never meets a half-built one.
import repro.net  # noqa: F401
from repro.agg.derived import DerivedSensor, FormulaError, compile_formula
from repro.agg.manager import (
    AggregationManager,
    AggregationUnavailable,
    ClusterAggregation,
    summary_key,
)
from repro.agg.partial import (
    SHAPES,
    Partial,
    collapse,
    state_of,
)

__all__ = [
    "AggregationManager",
    "AggregationUnavailable",
    "ClusterAggregation",
    "DerivedSensor",
    "FormulaError",
    "Partial",
    "SHAPES",
    "collapse",
    "compile_formula",
    "state_of",
    "summary_key",
]

"""Hierarchical aggregation and derived sensors.

Aggregate queries (``count``/``sum``/``avg``/``min``/``max`` around
any path the QEG walk takes) are answered from **summaries**: mergeable
partial aggregates cached per region at every organizing agent, merged
deterministically up the hierarchy, each of the walk's asks a
partial-aggregate wire message answered with a merge-state tuple
instead of a subtree -- a county-level ``avg`` over a million sensors
never fans out to the leaves.  Derived sensors define virtual readings
as formulas over those aggregates, re-evaluated through
continuous-query subscriptions on their input regions.

Switched on by listing an :class:`AggregationConfig` in
``Cluster(subsystems=[...])``; everything it does -- its two wire
kinds, the per-agent manager, derived-sensor registration, its metrics
and EXPLAIN sections -- lives in this package and reaches the agents
through :mod:`repro.net.subsystem`.  Not listed (the default), it adds
no wire messages and no envelope bytes: traffic is byte-identical to a
build without it.
"""

from repro.agg.derived import DerivedSensor, FormulaError, compile_formula
from repro.agg.config import AggregationConfig, ClusterAggregation
from repro.agg.manager import (
    AggregationManager,
    AggregationUnavailable,
    summary_key,
)
from repro.agg.messages import (
    PartialAggregateAnswer,
    PartialAggregateRequest,
)
from repro.agg.partial import (
    SHAPES,
    Partial,
    collapse,
    state_of,
)

__all__ = [
    "AggregationConfig",
    "AggregationManager",
    "AggregationUnavailable",
    "ClusterAggregation",
    "DerivedSensor",
    "FormulaError",
    "Partial",
    "PartialAggregateAnswer",
    "PartialAggregateRequest",
    "SHAPES",
    "collapse",
    "compile_formula",
    "state_of",
    "summary_key",
]

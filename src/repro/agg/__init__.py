"""Hierarchical aggregation and derived sensors.

Aggregate queries (``count``/``sum``/``avg``/``min``/``max`` over an
anchored path) are answered from **summaries**: mergeable partial
aggregates cached per IDable subtree at every organizing agent, merged
deterministically up the hierarchy via partial-aggregate wire messages
that carry merge-state tuples instead of subtrees -- a county-level
``avg`` over a million sensors never fans out to the leaves.  Derived
sensors define virtual readings as formulas over those aggregates,
re-evaluated through continuous-query subscriptions on their input
regions.

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
    AggregationUnsupported,
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
    merge_states,
    state_of,
)

__all__ = [
    "AggregationConfig",
    "AggregationManager",
    "AggregationUnavailable",
    "AggregationUnsupported",
    "ClusterAggregation",
    "DerivedSensor",
    "FormulaError",
    "Partial",
    "PartialAggregateAnswer",
    "PartialAggregateRequest",
    "SHAPES",
    "collapse",
    "compile_formula",
    "merge_states",
    "state_of",
    "summary_key",
]

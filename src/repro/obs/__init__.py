"""Live observability: distributed tracing, unified metrics, EXPLAIN.

The three pillars, each usable on its own:

* :mod:`repro.obs.tracing` -- spans with a wire-portable
  ``trace_id``/``span_id`` context, assembled into per-query trees
  that span sites (and convert into the simulator's
  :class:`~repro.sim.trace.TraceNode` shape);
* :mod:`repro.obs.registry` -- one nested-dict snapshot per site and
  per cluster over the stats dicts every layer already keeps;
* :mod:`repro.obs.explain` -- ``EXPLAIN``/``EXPLAIN ANALYZE`` for
  distributed queries: routing, per-node QEG decisions, and the
  subquery plan;
* :mod:`repro.obs.runtime` -- the cyclic garbage collector's
  collections and pause time per generation (``runtime`` in
  ``Cluster.metrics()``).

:mod:`repro.obs.explain` imports query-engine modules, so it is
re-exported lazily to keep :mod:`repro.net.messages` (which imports
the tracing context) cycle-free.
"""

from repro.obs.registry import (
    cluster_metrics,
    engine_counters,
    fault_counters,
    site_metrics,
    sum_numeric,
    sum_per_site,
)
from repro.obs.tracing import (
    TRACER,
    Span,
    TraceContext,
    Tracer,
    TraceTreeNode,
    assemble_trace,
    attach_context,
    disable_tracing,
    enable_tracing,
    propagate,
    to_trace_node,
)

__all__ = [
    "TRACER",
    "Tracer",
    "Span",
    "TraceContext",
    "TraceTreeNode",
    "assemble_trace",
    "attach_context",
    "enable_tracing",
    "disable_tracing",
    "propagate",
    "to_trace_node",
    "site_metrics",
    "cluster_metrics",
    "engine_counters",
    "fault_counters",
    "sum_numeric",
    "sum_per_site",
    "ExplainReport",
    "ExplainObserver",
    "build_explain",
]


def __getattr__(name):
    if name in ("ExplainReport", "ExplainObserver", "build_explain"):
        from repro.obs import explain

        return getattr(explain, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

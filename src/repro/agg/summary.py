"""Summary keys: merge-states cached by (region, path).

The aggregation manager's ``summaries`` -- a plain
:class:`~repro.core.semcache.SemanticCache` -- stores the merged
merge-state of one rollup, ``{region: (Partial, data_ts)}``, under a
key combining the region's id path with the *freshness-stripped*
canonical text of the inner location path.  The entry's ``region``
field is that same id path; it, not the key, is what migration-time
eviction compares.

Stripping the consistency predicates from the key is the semcache
bucketing reuse: ``sensor[timestamp() > current-time() - 28]`` and
``... - 30`` canonicalize (bucketed) to the same loosened bound,
compute the same rollup, and share one summary entry; serving is still
subsumption-checked against each caller's **original** bound by the
cache (entry tolerance slack charged against the allowed age, PR 7
discipline).

All shapes over the same inner path share one entry too: the stored
value is the full ``(count, sum, min, max)`` merge-state, so a
``count`` rollup prewarms the ``avg`` that follows it.
"""

from repro.core.idable import format_id_path
from repro.xpath.analysis import REF_CONSISTENCY, classify_predicate
from repro.xpath.ast import LocationPath, Step


def strip_consistency(path):
    """*path* with every pure consistency predicate removed.

    The returned :class:`LocationPath` is the *summary identity* of the
    ask: what data it rolls up, independent of how fresh the caller
    needs it.  Id pins and any other predicates stay.
    """
    steps = []
    for step in path.steps:
        predicates = [
            predicate for predicate in step.predicates
            if classify_predicate(predicate) != frozenset({REF_CONSISTENCY})
        ]
        steps.append(Step(step.axis, step.node_test, predicates))
    return LocationPath(path.absolute, steps)


def summary_key(region, inner_path):
    """The cache key for *inner_path* rolled up under *region*."""
    stripped = strip_consistency(inner_path)
    return f"{format_id_path(region)}::{stripped.unparse()}"

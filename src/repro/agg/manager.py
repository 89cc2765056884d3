"""The per-site aggregation manager: summaries, rollups, derived input.

One :class:`AggregationManager` registers with each organizing agent
whose ``OAConfig.subsystems`` lists an :class:`AggregationConfig` (see
:mod:`repro.net.subsystem` for the hooks).  Aggregate queries still
arrive through the ordinary scalar entry point
(:meth:`OrganizingAgent.answer_scalar` offers them to the manager's
``try_scalar`` hook first); the manager answers the shapes it supports
hierarchically:

* **summary first**: the rollup's merge-state may already be cached in
  ``summaries`` (a :class:`~repro.core.semcache.SemanticCache`), keyed
  by (region, freshness-stripped inner path) and served when the time
  its stalest part was current satisfies the caller's bound;
* **local rollup**: matches of the freshness-stripped inner path whose
  whole IDable chain from the region down is owned here fold into one
  exact :class:`~repro.agg.partial.Partial`, current now -- an owner
  answers from the freshest data;
* **partial-aggregate subqueries**: every IDable *frontier* (an
  unowned IDable node the inner path can reach) is asked for its
  collapsed merge-state with one
  :class:`~repro.agg.messages.PartialAggregateRequest` carrying the
  caller's own bound -- tuples on the wire, never subtrees -- and child
  sites recurse, so interior OAs cache intermediate rollups and the
  hierarchy amortizes.

Any failure (dead child, disabled peer, a query shape outside the
algebra) degrades to the naive gather fan-out for ``count``/``sum``
(the evaluator's own shapes); ``avg``/``min``/``max`` exist only here
and surface the error instead.

Without the config (the default) nothing here exists: no wire messages,
no envelope bytes, traffic byte-identical to a build without it.
"""

import threading
from collections import namedtuple

from repro.core.consistency import strip_consistency_predicates
from repro.core.errors import CoreError, UnsupportedDistributedQueryError
from repro.core.idable import format_id_path, idable_children, node_id
from repro.core.semcache import SemanticCache, canonicalize
from repro.core.status import Status, get_status
from repro.net.errors import NetError
from repro.net.messages import ErrorMessage, as_id_path
from repro.xpath import parser as xpath_parser
from repro.xpath.analysis import (
    REF_CONSISTENCY,
    REF_ID,
    classify_predicate,
    extract_id_path,
    iter_conjuncts,
    single_id_value,
)
from repro.xpath.ast import FunctionCall, LocationPath, NameTest
from repro.xpath.evaluator import Evaluator
from repro.xpath.types import AttributeRef, node_string_value, to_number

from repro.agg.derived import DerivedSensor
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

_EVALUATOR = Evaluator()

#: The summary cache's LRU budget.
SUMMARY_MAX_ENTRIES = 256
SUMMARY_MAX_BYTES = 4 * 1024 * 1024


class AggregationUnsupported(UnsupportedDistributedQueryError):
    """The query is aggregate-shaped but outside the rollup algebra."""


class AggregationUnavailable(CoreError):
    """A rollup could not complete (dead child, disabled peer, ...)."""


#: One supported aggregate ask, decomposed.
_Plan = namedtuple("_Plan", "shape inner inner_source anchor tolerance")


def summary_key(region, inner_path):
    """The cache key for *inner_path* rolled up under *region*: all
    shapes and freshness bounds over the same data share one entry."""
    stripped = strip_consistency_predicates(inner_path).unparse()
    return f"{format_id_path(region)}::{stripped}"


class AggregationManager:
    """One site's hierarchical-aggregation state (see module docstring)."""

    name = "aggregation"

    def __init__(self, agent):
        self.agent = agent
        self.summaries = SemanticCache(max_entries=SUMMARY_MAX_ENTRIES,
                                       max_bytes=SUMMARY_MAX_BYTES)
        self.derived = {}
        self._lock = threading.Lock()
        self.stats = {
            "answers": 0,
            "rollups": 0,
            "rollup_matches": 0,
            "partials_fetched": 0,
            "partials_served": 0,
            "partial_failures": 0,
            "fallbacks": 0,
            "unsupported_queries": 0,
            "derived_refreshes": 0,
            "derived_refresh_errors": 0,
            "migration_summary_evictions": 0,
        }

    # ------------------------------------------------------------------
    # The seam (repro.net.subsystem)
    # ------------------------------------------------------------------
    def handlers(self):
        return {PartialAggregateRequest: self.answer_partial}

    def on_ownership_change(self, paths, gained, peer):
        """Summaries over a region handed away were rolled up along the
        old ownership: evict them."""
        if not gained:
            with self._lock:
                self.stats["migration_summary_evictions"] += \
                    self.summaries.evict_paths(paths)

    # ------------------------------------------------------------------
    # The query-side entry point
    # ------------------------------------------------------------------
    def try_scalar(self, query, now=None, max_age=None):
        """Answer an aggregate query from summaries, or decline.

        Returns ``(handled, value)``.  ``handled`` is ``False`` when
        the query is not aggregate-shaped, or when a ``count``/``sum``
        rollup cannot complete -- the caller then takes the ordinary
        gather path untouched.  ``avg``/``min``/``max`` have no naive
        fallback: an unsupported or failed rollup raises.
        """
        plan = self._plan(query)
        if plan is None:
            return False, None
        now = float(now) if now is not None \
            else float(self.agent.clock())
        try:
            state = self._state_for(plan, now, max_age)
        except AggregationUnsupported:
            # Discovered dynamically (e.g. a matched element with
            # delegated descendants): same dichotomy as the static
            # check -- naive path where one exists.
            with self._lock:
                self.stats["unsupported_queries"] += 1
            if plan.shape in ("count", "sum"):
                return False, None
            raise
        except AggregationUnavailable as exc:
            with self._lock:
                self.stats["fallbacks"] += 1
            if plan.shape in ("count", "sum"):
                return False, None
            raise NetError(
                f"aggregate rollup unavailable for {plan.shape}(): {exc}"
            ) from exc
        partial, _as_of = collapse(state, now)
        with self._lock:
            self.stats["answers"] += 1
        return True, partial.finalize(plan.shape)

    def _analyze(self, query):
        """``(shape, inner, anchor, problem, canon)`` for an aggregate-
        shaped *query*, or ``None`` for anything else.  Side-effect
        free: planning and EXPLAIN share it."""
        try:
            canon = canonicalize(query)
        except Exception:
            return None
        ast = canon.ast
        if not isinstance(ast, FunctionCall) or ast.name not in SHAPES:
            return None
        if len(ast.arguments) != 1 or \
                not isinstance(ast.arguments[0], LocationPath) or \
                not ast.arguments[0].absolute:
            return (ast.name, None, (),
                    "argument is not an absolute path", canon)
        inner = ast.arguments[0]
        anchor = as_id_path(extract_id_path(inner))
        return (ast.name, inner, anchor,
                self._support_problem(inner, anchor), canon)

    def _plan(self, query):
        analysis = self._analyze(query)
        if analysis is None:
            return None
        shape, inner, anchor, problem, canon = analysis
        if problem is not None:
            with self._lock:
                self.stats["unsupported_queries"] += 1
            if shape in ("count", "sum"):
                return None  # the evaluator's own shapes: naive path
            raise AggregationUnsupported(
                f"{shape}() not answerable hierarchically: {problem}")
        return _Plan(shape, inner, inner.unparse(), anchor,
                     canon.min_tolerance)

    def _support_problem(self, inner, anchor):
        """Why *inner* is outside the rollup algebra, or ``None``.

        The algebra needs every step to be statically routable through
        IDable frontiers: child axes with name tests, id pins anywhere,
        and freshness predicates **only on the final step** -- an
        intermediate consistency predicate would have to be evaluated
        on a delegated subtree's stub, where timestamps are not
        maintained.  A final attribute step is allowed (values live on
        the owning element's site).
        """
        if not anchor:
            return "no IDable anchor (pin at least the root id)"
        steps = inner.steps
        last = len(steps) - 1
        for index, step in enumerate(steps):
            if step.axis == "attribute":
                if index != last:
                    return "attribute step before the end of the path"
            elif step.axis != "child":
                return f"unsupported axis {step.axis!r}"
            if not isinstance(step.node_test, NameTest):
                return "unsupported node test"
            for predicate in step.predicates:
                for conjunct in iter_conjuncts(predicate):
                    refs = classify_predicate(conjunct)
                    if refs <= frozenset({REF_ID}):
                        continue
                    if index == last and \
                            refs == frozenset({REF_CONSISTENCY}):
                        continue
                    return "unsupported predicate"
        return None

    # ------------------------------------------------------------------
    # Merge-state acquisition (summary -> rollup -> wire)
    # ------------------------------------------------------------------
    def _state_for(self, plan, now, max_age):
        key = summary_key(plan.anchor, plan.inner)
        entry = self.summaries.lookup(key, now, bound=plan.tolerance,
                                      max_age=max_age)
        if entry is not None:
            return entry.value
        state = self._compute_state(plan.anchor, plan.inner,
                                    plan.inner_source, plan.tolerance, now)
        self._store_summary(key, plan.anchor, state, now)
        return state

    def _store_summary(self, key, region, state, now):
        """Cache *state*, rolled up over *region* at *now*, as of the
        time its stalest part was current."""
        self.summaries.store(key, state, now, region=region,
                             nbytes=96 + 160 * len(state),
                             as_of=collapse(state, now)[1])

    def _compute_state(self, region, inner, inner_source, bound, now):
        database = self.agent.database
        element = database.find(region)
        if element is not None and get_status(element) is Status.OWNED:
            return self._local_rollup(region, element, inner,
                                      inner_source, bound, now)
        return self._remote_partial(region, inner_source, bound, now)

    def _local_rollup(self, region, region_el, inner, inner_source,
                      bound, now):
        """Roll up *region* here: owned matches + frontier partials.

        Owned data is current, whatever its stamp: the freshness bound
        only travels on to the frontiers' owners."""
        database = self.agent.database
        matches = _EVALUATOR.evaluate(strip_consistency_predicates(inner),
                                      database.root, now=now)
        partial = Partial()
        counted = 0
        for node in matches:
            element = node.owner if isinstance(node, AttributeRef) else node
            anchor_el = self._idable_anchor(element)
            if anchor_el is None or \
                    not self._owned_chain(region_el, anchor_el):
                continue
            if not self._value_complete(element):
                raise AggregationUnsupported(
                    "a matched element has delegated IDable descendants; "
                    "its string-value is not local")
            partial.add(to_number(node_string_value(node)))
            counted += 1
        state = state_of(region, partial, now)
        with self._lock:
            self.stats["rollups"] += 1
            self.stats["rollup_matches"] += counted
        for frontier in self._frontiers(region, region_el, inner):
            child_state = self._remote_partial(frontier, inner_source,
                                               bound, now)
            state = merge_states(state, child_state)
        return state

    def _idable_anchor(self, element):
        """The nearest IDable ancestor-or-self (id-bearing element)."""
        node = element
        while node is not None and "id" not in node.attrib:
            node = node.parent
        return node

    def _owned_chain(self, region_el, anchor_el):
        """Whether every IDable node from *anchor_el* up to *region_el*
        is owned here -- the guard that keeps a locally cached copy of
        a delegated subtree out of the local partial (its owner will be
        asked as a frontier; counting both would double-count)."""
        node = anchor_el
        while node is not None:
            if "id" in node.attrib and \
                    get_status(node) is not Status.OWNED:
                return False
            if node is region_el:
                return True
            node = node.parent
        return False

    def _value_complete(self, element):
        """Whether *element*'s string-value is entirely local: no
        IDable descendant (at any depth) is delegated elsewhere."""
        stack = list(idable_children(element))
        while stack:
            node = stack.pop()
            if get_status(node) is not Status.OWNED:
                return False
            stack.extend(idable_children(node))
        return True

    def _frontiers(self, region, region_el, inner):
        """The unowned IDable nodes under *region* the inner path can
        reach -- each becomes one partial-aggregate subquery."""
        steps = inner.steps
        elem_depth = len(steps)
        if steps and steps[-1].axis == "attribute":
            elem_depth -= 1
        frontiers = []

        def visit(element, path):
            for child in idable_children(element):
                child_path = path + (node_id(child),)
                depth = len(child_path)
                if depth > elem_depth:
                    continue
                if get_status(child) is Status.OWNED:
                    if depth < elem_depth:
                        visit(child, child_path)
                    continue
                if self._reaches(steps, child_path, len(region)):
                    frontiers.append(child_path)

        visit(region_el, as_id_path(region))
        return frontiers

    def _reaches(self, steps, child_path, anchor_len):
        for depth in range(anchor_len, len(child_path)):
            step = steps[depth]
            tag, identifier = child_path[depth]
            name = step.node_test.name
            if name != "*" and name != tag:
                return False
            pinned = single_id_value(step)
            if pinned is not None and pinned != identifier:
                return False
        return True

    # ------------------------------------------------------------------
    # The wire: ask a frontier's owner, serve a parent's ask
    # ------------------------------------------------------------------
    def _remote_partial(self, region, inner_source, bound, now):
        """One frontier's collapsed merge-state, fetched from its owner.

        Asked through ``agent.request``, gated.  A DNS-retired region
        contributes an empty state (the node no longer exists -- the
        transient inconsistency Section 4 accepts); every refusal and
        failure raises :class:`AggregationUnavailable` and the whole
        ask degrades to the naive path.
        """
        target = self.agent.resolve_owner(region)
        if target is None:
            return {}
        if target == self.agent.site_id:
            raise AggregationUnavailable(
                f"DNS says {self.agent.site_id!r} owns {region} but the "
                "region is not stored as owned here")
        message = PartialAggregateRequest(
            region, inner_source, bound=bound, now=now,
            sender=self.agent.site_id)
        try:
            reply = self.agent.request(target, message,
                                       expect=PartialAggregateAnswer)
        except (OSError, NetError) as exc:
            with self._lock:
                self.stats["partial_failures"] += 1
            raise AggregationUnavailable(
                f"no partial from site {target!r}: {exc}") from exc
        with self._lock:
            self.stats["partials_fetched"] += 1
        return reply.state

    def answer_partial(self, message):
        """Serve one :class:`PartialAggregateRequest` (the OA handler).

        Summary first (served under the parent's bound; an unbounded
        ask always recomputes), rollup on miss -- recursing into this
        site's own frontiers -- and the reply carries the state
        collapsed to one entry keyed by the asked region and stamped
        with its as-of time, so state maps stay fan-out-sized all the
        way up and a parent never holds a part longer than its bound.
        """
        now = float(message.now) if message.now is not None \
            else float(self.agent.clock())
        bound = message.bound
        region = as_id_path(message.region)
        try:
            inner = xpath_parser.parse(message.query)
        except Exception as exc:
            return ErrorMessage(message.message_id, code="agg-bad-query",
                                detail=str(exc), retryable=False,
                                sender=self.agent.site_id)
        key = summary_key(region, inner)
        entry = self.summaries.lookup(key, now, bound=bound)
        if entry is not None:
            state = entry.value
        else:
            element = self.agent.database.find(region)
            if element is None or get_status(element) is not Status.OWNED:
                return ErrorMessage(
                    message.message_id, code="agg-not-owned",
                    detail=f"{self.agent.site_id} does not own the region",
                    retryable=False, sender=self.agent.site_id)
            try:
                state = self._local_rollup(region, element, inner,
                                           message.query, bound, now)
            except AggregationUnsupported as exc:
                return ErrorMessage(
                    message.message_id, code="agg-unsupported",
                    detail=str(exc), retryable=False,
                    sender=self.agent.site_id)
            except AggregationUnavailable as exc:
                return ErrorMessage(
                    message.message_id, code="agg-unavailable",
                    detail=str(exc), retryable=True,
                    sender=self.agent.site_id)
            self._store_summary(key, region, state, now)
        partial, as_of = collapse(state, now)
        with self._lock:
            self.stats["partials_served"] += 1
        return PartialAggregateAnswer(
            message.message_id, state_of(region, partial, as_of),
            sender=self.agent.site_id)

    # ------------------------------------------------------------------
    # Derived sensors
    # ------------------------------------------------------------------
    def register_derived(self, identifier, node_path, formula,
                         subscribe=None):
        """Register a formula-defined sensor living at *node_path*.

        The node must already exist in the document (owned here).
        *subscribe* is a ``(query, callback) -> token`` callable --
        typically ``cluster.subscribe`` -- used to watch each dependency
        region through :mod:`repro.net.continuous`; the sensor
        re-evaluates whenever covered data changes.  Returns the
        :class:`~repro.agg.derived.DerivedSensor` after its first
        evaluation.
        """
        sensor = DerivedSensor(identifier, node_path, formula)
        element = self.agent.database.find(sensor.node_path)
        if element is None or get_status(element) is not Status.OWNED:
            raise CoreError(
                f"derived sensor node {sensor.node_path} is not owned "
                f"at site {self.agent.site_id!r}")
        self.derived[identifier] = sensor
        if subscribe is not None:
            for query in sensor.dependency_queries():
                def _on_change(_results, _identifier=identifier):
                    self.refresh_derived(_identifier)

                sensor.subscriptions.append(subscribe(query, _on_change))
        self.refresh_derived(identifier)
        return sensor

    def refresh_derived(self, identifier):
        """Re-evaluate one derived sensor and write its value back.

        The write-back mirrors the update handler: apply to the owned
        node, then tell every subsystem (continuous queries wake,
        replicas refresh).  Reentrant calls
        (the write-back itself fires a covering subscription) are
        absorbed by the per-sensor guard.
        """
        sensor = self.derived[identifier]
        if not sensor.begin_refresh():
            return None
        try:
            now = float(self.agent.clock())
            value = sensor.evaluate(
                lambda query: self.agent.answer_scalar(query, now=now))
            self.agent.database.apply_update(
                sensor.node_path, values={"value": sensor.render(value)})
            sensor.last_value = value
            with self._lock:
                self.stats["derived_refreshes"] += 1
            self.agent.notify_update(sensor.node_path)
            return value
        except Exception:
            with self._lock:
                self.stats["derived_refresh_errors"] += 1
            raise
        finally:
            sensor.end_refresh()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self):
        """Aggregation counters for the metrics registry / EXPLAIN."""
        with self._lock:
            counters = dict(self.stats)
        summary = self.summaries.metrics()
        asked = summary["hits"] + summary["misses"]
        counters["summary"] = summary
        counters["summary_hit_ratio"] = (
            round(summary["hits"] / asked, 6) if asked else 0.0)
        counters["derived_sensors"] = sorted(self.derived)
        return counters

    def explain(self, context):
        """The hierarchical-aggregation view of an EXPLAIN run.

        Rebuilds the plan side-effect-free and ``peek``s the summary
        cache, so an EXPLAIN never distorts the hit/miss counters it
        reports.
        """
        info = self._explain_info(context.source, context.now)
        if info["shape"] is None:
            lines = ["aggregation: (not an aggregate query)"]
        elif not info["supported"]:
            lines = [f"aggregation: {info['shape']}() via naive gather"
                     f" ({info['problem']})"]
        else:
            lines = [f"aggregation: {info['shape']}() via summary rollup",
                     f"  summary:   {info['summary_key']}"]
            entry = info.get("summary")
            if entry is None:
                lines.append("  summary-cache miss (rollup would compute)")
            else:
                lines.append(
                    f"  summary-cache hit candidate (age {entry['age']:g}s,"
                    f" as of {entry['as_of']:g}, hits {entry['hits']})")
        context.add_section(self.name, info, lines)

    def _explain_info(self, source, now):
        info = {"enabled": True, "shape": None,
                "summaries_held": len(self.summaries),
                "derived_sensors": sorted(self.derived)}
        analysis = self._analyze(source)
        if analysis is None:
            return info
        info["shape"], inner, anchor, problem, _canon = analysis
        info["supported"] = problem is None
        if problem is not None:
            info["problem"] = problem
            return info
        key = summary_key(anchor, inner)
        info["summary_key"] = key
        entry = self.summaries.peek(key)
        if entry is not None:
            info["summary"] = {
                "age": round(entry.age(now), 3),
                "hits": entry.hits,
                "as_of": entry.as_of,
            }
        return info

"""Aggregation: how a site answers every ``count``/``sum``/... query.

Every organizing agent builds one :class:`AggregationManager`, as it
builds its continuous-query manager, and its scalar entry point
(:meth:`~repro.net.oa.OrganizingAgent.answer_scalar`) asks it first.
A decomposable wrapper (``count``/``sum``/``avg``/``min``/``max``)
around any path the QEG walk takes is answered by the site's own
gather of that path:

* **summary first**: a cached :class:`~repro.agg.partial.Partial` in
  ``summaries`` -- the site's one scalar answer cache -- keyed by
  (region, inner path less its relative bounds).  A bounded caller
  is served one whose data was current within its bound; an unbounded
  caller any, or one within its ``max_age`` (Section 4: a query without a
  consistency predicate takes cached data of any age);
* **the walk's own asks**: every ask for the rest of the path below a
  region is marked for a fold (``Subquery.fold``) and goes out with the
  round through the agent's one dispatcher, as a ``query`` item that
  also carries the fold's last step and bound -- tuples on the wire,
  never subtrees; an ask for a result's subtree fetches and merges as
  for a path query;
* **the fold**: the last walk's matches fold into one exact
  ``Partial`` with the owners' replies, as of its stalest part.  An
  owner answers a fold item with the same fold
  (:meth:`AggregationManager.answer_fold`), so the hierarchy recurses
  and interior sites cache intermediate rollups.

A path ending in a named attribute or ``text()`` is walked to its
elements, and the fold reads that step off each; an owner's ask carries
the step too.  Any other last step stays in the walk, and the fold reads
its matches.  A rollup counts what its bound admits, cached copies
included, as the path query does; a cached copy counted without a bound
is of unknown age, so its summary never serves a bound.  Owned data
stays current: an update evicts every summary over it, and so does an
ownership change.  A derived sensor puts a zero bound on each of its
aggregates (:data:`CURRENT`), which no summary satisfies.  A fold item
is an ask like any other: grouped per destination, retried on fresh
DNS, gated by the breaker, and failed over by replication to a ring
peer as its path ask.  A site that does not own the region answers it
as its path ask too.  Either way the fold reads the matches the reply
merges.  A region nothing answers raises
:class:`AggregationUnavailable`, for every shape alike; an owner whose
rollup raised answers the fold item with the regions it could not
reach, which the asker records as its own failures.
"""

import math
import threading

from repro.core.consistency import consistency_tolerances
from repro.core.errors import (
    CoreError,
    QueryRoutingError,
    UnsupportedDistributedQueryError,
)
from repro.core.idable import format_id_path, id_paths_overlap, node_id
from repro.core.semcache import canonicalize
from repro.core.status import STATUS_ATTRIBUTE, Status, get_status
from repro.net.errors import NetError
from repro.net.messages import as_id_path
from repro.obs.registry import sum_numeric
from repro.obs.tracing import TRACER
from repro.xmlkit.nodes import Element
from repro.xpath import parser as xpath_parser
from repro.xpath.ast import FunctionCall, LocationPath, NameTest
from repro.xpath.errors import XPathError
from repro.xpath.types import node_string_value, to_number

from repro.agg.derived import DerivedSensor
from repro.agg.partial import SHAPES, Partial, collapse, state_of
from repro.agg.summaries import SummaryStore

#: The bound a derived sensor puts on an aggregate's last element
#: step: data current now, which no summary is.
CURRENT = "[timestamp() > current-time() - 0]"


class AggregationUnavailable(NetError):
    """A rollup could not complete: a region answered neither a partial
    nor, through failover, a path ask.  ``failures`` holds the gather's
    :class:`~repro.core.gather.SubqueryFailure` of each."""

    def __init__(self, message, failures=()):
        super().__init__(message)
        self.failures = list(failures)


def summary_key(region, inner_path):
    """The cache key for *inner_path* rolled up under *region*: all
    shapes and relative freshness bounds over the same data share one
    entry.  Any other consistency predicate (an absolute one such as
    ``timestamp() > 500``) stays in the key: no lookup bound checks it."""
    stripped = consistency_tolerances(inner_path)[0].unparse()
    return f"{format_id_path(region)}::{stripped}"


def _decompose(query):
    """``(shape, inner, bound)`` of an aggregate-shaped *query* -- its
    tightest freshness bound, ``None`` for none -- or ``None``."""
    try:
        canon = canonicalize(query)
    except XPathError:
        return None
    ast = canon.ast
    if not isinstance(ast, FunctionCall) or ast.name not in SHAPES or \
            len(ast.arguments) != 1:
        return None
    return ast.name, ast.arguments[0], canon.min_tolerance


def _split_final(inner):
    """``(path, final)``: *inner* less a predicate-free last step that
    selects a named attribute or ``text()``, which the fold reads off
    each element *path* matches, and that step; ``(inner, None)`` for
    any other path, whose matches the fold reads themselves."""
    steps = getattr(inner, "steps", ())
    final = steps[-1] if steps else None
    if final is None or final.predicates:
        return inner, None
    test = final.node_test
    named = final.axis == "attribute" and getattr(test, "name", "*") != "*"
    text = final.axis == "child" and getattr(test, "node_type", "") == "text"
    if not (named or text):
        return inner, None
    return LocationPath(inner.absolute, steps[:-1]), final


def _suffix(final):
    return "" if final is None else "/" + final.unparse()


def _step(fold):
    """A fold item's ``fold`` as a path suffix: ``"."`` reads the match
    itself."""
    return "" if fold == "." else "/" + fold


def _current(call):
    """The text of the aggregate *call* counting current data only:
    :data:`CURRENT` on its last element step, since a text node or an
    attribute below it has no stamp of its own."""
    inner = call.arguments[0]
    last = max(index for index, step in enumerate(inner.steps)
               if step.axis == "child" and type(step.node_test) is NameTest)
    head = LocationPath(inner.absolute, inner.steps[:last + 1]).unparse()
    tail = "".join("/" + step.unparse() for step in inner.steps[last + 1:])
    return f"{call.name}({head}{CURRENT}{tail})"


def _strings(element, final):
    """The string values *final* selects on a matched *element*."""
    if final is None:
        return (node_string_value(element),)
    if final.axis == "attribute":
        value = element.attrib.get(final.node_test.name)
        return () if value is None else (value,)
    return () if element.text is None else (element.text,)


def _uncovered(pattern, outcome, asks):
    """The last walk's matches no partial asked for by *asks* counts.
    A match inside an asked region (a fresh copy beside the stale one
    the ask climbed for, a copy below a ``//`` ask) is the partial's
    when the ask's path reaches it; with at most one ``//`` step each
    step matches at one depth, so that is a depth test.  ``None``: a
    node may count twice (one asked region inside another, or a match
    inside one under two ``//`` steps)."""
    items = pattern.items
    scans = [index for index, item in enumerate(items) if item.descendant]
    regions = [ask.anchor_path for ask in asks]
    if any(id_paths_overlap(a, b) and (a != b or len(scans) > 1)
           for index, a in enumerate(regions) for b in regions[:index]):
        return None
    held = {}  # a bare ID stub holds no match: only anchors with content
    for ask in asks:
        anchor = outcome.view.find(ask.anchor_path)
        if anchor is not None and anchor.children:
            held.setdefault(anchor, []).append(ask)
    if not held:
        return outcome.matches
    last, gap = len(items) - 1, scans[0] if scans else len(items)
    kept = []
    for match in outcome.matches:
        anchor, below = match, 0
        while anchor is not None and anchor not in held:
            anchor, below = anchor.parent, below + 1
        if anchor is None:
            kept.append(match)
            continue
        if len(scans) > 1:
            return None
        depth = len(held[anchor][0].anchor_path) - 1
        for ask in held[anchor]:
            # The depth of the ask's first step on match's path.
            step = ask.consumed if ask.consumed < gap else \
                depth + below - last + ask.consumed
            if step > depth if _scans(ask, items) else step == depth + 1:
                break
        else:
            kept.append(match)
    return kept


def _scans(ask, items):
    """Whether *ask*'s first step is a ``//`` step."""
    return ask.descendant_gap or ask.consumed < len(items) and \
        items[ask.consumed].descendant


def _scans_over(earlier, later, items):
    """Whether the ``//`` ask *earlier*, from a region above, reaches
    all *later* does."""
    region = earlier.anchor_path
    return earlier.consumed == later.consumed and \
        _scans(earlier, items) and _scans(later, items) and \
        len(later.anchor_path) > len(region) and \
        later.anchor_path[:len(region)] == region


def _owned(match):
    """Whether this site owns the IDable node whose data *match* is."""
    element = match if isinstance(match, Element) else match.parent
    while element.get(STATUS_ATTRIBUTE) is None and element.parent is not None:
        element = element.parent
    return get_status(element) is Status.OWNED


class AggregationManager:
    """One site's hierarchical-aggregation state (see module docstring)."""

    name = "aggregation"

    def __init__(self, agent):
        self.agent = agent
        self.summaries = SummaryStore()
        self.derived = {}
        self._lock = threading.Lock()
        self.stats = {
            "answers": 0,
            "rollups": 0,
            "rollup_matches": 0,
            "overlap_drops": 0,
            "overlap_regathers": 0,
            "partials_fetched": 0,
            "partials_served": 0,
            "partial_failures": 0,
            "unsupported_queries": 0,
            "derived_refreshes": 0,
            "derived_refresh_errors": 0,
            "migration_summary_evictions": 0,
        }

    # ------------------------------------------------------------------
    # The seam (repro.net.subsystem)
    # ------------------------------------------------------------------
    def on_update(self, id_path):
        """Owned data stays current: an update evicts every summary over
        it (one emptiness check while the site holds none)."""
        if len(self.summaries):
            self.summaries.evict_paths([id_path])

    def on_ownership_change(self, paths, gained, peer):
        """Summaries over a region that moved either way were rolled up
        along the old ownership: evict them."""
        with self._lock:
            self.stats["migration_summary_evictions"] += \
                self.summaries.evict_paths(paths)

    # ------------------------------------------------------------------
    # The query-side entry point
    # ------------------------------------------------------------------
    def answer_scalar(self, query, now=None, max_age=None):
        """``(handled, value)``: the rollup's answer, or ``handled``
        false for a query that is not aggregate-shaped.  A region no
        ask reaches, even through failover, raises
        :class:`AggregationUnavailable` for every shape: a scalar
        carries no completeness report."""
        decomposed = _decompose(query)
        if decomposed is None:
            return False, None
        shape, inner, bound = decomposed
        now = float(now) if now is not None \
            else float(self.agent.clock())
        try:
            partial, _as_of = self._rollup(inner, bound, now, max_age)
        except UnsupportedDistributedQueryError:
            with self._lock:
                self.stats["unsupported_queries"] += 1
            raise
        with self._lock:
            self.stats["answers"] += 1
        return True, partial.finalize(shape)

    # ------------------------------------------------------------------
    # The rollup: summary, else the fold of this site's gather
    # ------------------------------------------------------------------
    def _compile(self, inner):
        """``(pattern, final, key)`` of the location path *inner*: its
        element path compiled, the last step the fold reads
        (:func:`_split_final`) and its summary key."""
        path, final = _split_final(inner)
        pattern = self.agent.driver.compile(path)
        key = summary_key(pattern.anchor or (), pattern.ast) + _suffix(final)
        return pattern, final, key

    def _rollup(self, inner, bound, now, max_age=None):
        """``(partial, as_of)`` of the location path *inner* at *now*
        under the freshness *bound* (``None``: data of any age)."""
        driver = self.agent.driver
        pattern, final, key = self._compile(inner)
        region = pattern.anchor or ()
        with TRACER.span("cache-lookup", site=self.agent.site_id) as span:
            entry = self.summaries.lookup(key, now, bound=bound,
                                          max_age=max_age)
            span.set_tag("hit", entry is not None)
        if entry is not None:
            return entry.value, entry.as_of
        fold = ("." if final is None else final.unparse(), bound)
        replies = []  # (ask, partial, as_of) of each partial received

        def reaches(asks, subquery):
            # Whether a ``//`` ask among *asks* reaches all *subquery*
            # does: a partial for it would count *subquery*'s matches.
            return any(_scans_over(ask, subquery, pattern.items)
                       for ask in asks)

        def send(pending):
            """The round through the agent's dispatcher, each ask but a
            subtree one marked for a fold: partials are recorded, and
            fragments go back to the walk.  An ask a partial already
            counts is not sent; one an ask sent beside it may count
            waits for that ask's answer."""
            answers = [None] * len(pending)
            waiting = range(len(pending))
            while waiting:
                asked, held = [], []
                for index in waiting:
                    subquery = pending[index]
                    if not subquery.subtree:
                        if reaches([ask for ask, _, _ in replies], subquery):
                            continue
                        if reaches([pending[other] for other in asked
                                    if pending[other].fold], subquery):
                            held.append(index)
                            continue
                        subquery.fold = fold
                    asked.append(index)
                for index, reply in zip(asked, driver.send(
                        [pending[index] for index in asked])):
                    subquery = pending[index]
                    folded = isinstance(reply, dict)  # a merge-state
                    if folded:
                        replies.append((subquery, *collapse(reply, now)))
                        reply = None
                    if subquery.fold is not None:
                        with self._lock:
                            self.stats["partials_fetched" if folded
                                       else "partial_failures"] += 1
                    answers[index] = reply
                waiting = held
            return answers

        outcome = driver.gather(pattern, now=now, ships=False, send=send)
        matches = _uncovered(pattern, outcome,
                             [ask for ask, _, _ in replies])
        if matches is None:
            # Only a path query's merge makes overlapping asks harmless:
            # gather the path itself, and fold its matches alone.
            with self._lock:
                self.stats["overlap_regathers"] += 1
            replies = []
            outcome = driver.gather(pattern, now=now, ships=False)
            matches = outcome.matches
        if outcome.failures:
            failure = outcome.failures[0]
            raise AggregationUnavailable(
                f"no answer to {failure.subquery.query!r}: {failure.cause}",
                outcome.failures)
        with self._lock:
            self.stats["overlap_drops"] += \
                len(outcome.matches) - len(matches)
        partial, as_of = self._fold(matches, final, replies, bound, now)
        self.summaries.store(key, partial, now, region=region, as_of=as_of)
        return partial, as_of

    def _fold(self, matches, final, replies, bound, now):
        """The walk's *matches*, read through *final*, and the owners'
        *replies* (``(ask, partial, as_of)``) as one ``(partial,
        as_of)``.  A cached copy was current within the *bound*; without
        one its age is unknown (``-inf``), and no bound is served it."""
        partial, as_of = Partial(), now
        for _ask, part, part_as_of in replies:
            partial = partial.merge(part)
            as_of = min(as_of, part_as_of)
        copied = now - bound if bound is not None else -math.inf
        values = []
        for match in matches:
            if as_of > copied and not _owned(match):
                as_of = copied
            values.extend(map(to_number, _strings(match, final)))
        with self._lock:
            self.stats["rollups"] += 1
            self.stats["rollup_matches"] += len(values)
        return partial.merge(Partial.of_values(values)), as_of

    # ------------------------------------------------------------------
    # The owner's side: a parent's fold item
    # ------------------------------------------------------------------
    def answer_fold(self, query, fold, bound, now):
        """This site's rollup of a parent's fold item -- the ask *query*,
        read through its last step *fold* under *bound* -- as a
        merge-state of one entry keyed by the region and stamped with
        its as-of time, so a parent never holds a part longer than its
        bound.  ``None`` when this site does not own the region: the
        agent then answers the item as the path ask it also is.  A
        region below that answered nothing raises
        :class:`AggregationUnavailable`."""
        now = float(now) if now is not None else float(self.agent.clock())
        inner = xpath_parser.parse(query + _step(fold))
        region = self._compile(inner)[0].anchor or ()
        if not self._serves(region):
            return None
        partial, as_of = self._rollup(inner, bound, now)
        with self._lock:
            self.stats["partials_served"] += 1
        return state_of(region, partial, as_of)

    def _serves(self, region):
        """Whether this site owns a node on *region*'s path down to the
        deepest one it stores: an ask's pins may name a region below the
        one it was sent for."""
        node = self.agent.database.root
        if not region or node_id(node) != tuple(region[0]):
            return False
        owned = get_status(node) is Status.OWNED
        for tag, identifier in region[1:]:
            node = node.child(tag, id=identifier)
            if node is None:
                break
            owned = owned or get_status(node) is Status.OWNED
        return owned

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
        folded = {}  # summary key -> this refresh's one Partial

        def answer(call):
            shape, inner, bound = _decompose(_current(call))
            key = self._compile(inner)[2]
            if key not in folded:
                folded[key] = self._rollup(inner, bound, now)[0]
            return folded[key].finalize(shape)

        try:
            now = float(self.agent.clock())
            with self.agent.guard:
                value = sensor.evaluate(answer)
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
        """The hierarchical-aggregation view of an EXPLAIN run: it
        ``peek``s the summary cache, so an EXPLAIN never distorts the
        hit/miss counters it reports."""
        info = {"shape": None,
                "summaries_held": len(self.summaries),
                "derived_sensors": sorted(self.derived)}
        lines = ["aggregation: (not an aggregate query)"]
        decomposed = _decompose(context.source)
        if decomposed is not None:
            info["shape"], inner, _bound = decomposed
            try:
                key = self._compile(inner)[2]
            except UnsupportedDistributedQueryError as exc:
                info.update(supported=False, problem=str(exc))
                lines = [f"aggregation: {info['shape']}() unsupported"
                         f" ({exc})"]
                context.add_section(self.name, info, lines)
                return
            info.update(supported=True, summary_key=key)
            lines = [f"aggregation: {info['shape']}() via summary rollup",
                     f"  summary:   {key}"]
            entry = self.summaries.peek(key)
            if entry is None:
                lines.append("  summary-cache miss (rollup would compute)")
            else:
                info["summary"] = {"age": round(entry.age(context.now), 3),
                                   "hits": entry.hits, "as_of": entry.as_of}
                lines.append(
                    f"  summary-cache hit candidate (age "
                    f"{info['summary']['age']:g}s, as of {entry.as_of:g},"
                    f" hits {entry.hits})")
        context.add_section(self.name, info, lines)


class ClusterAggregation:
    """The cluster half of aggregation (see :mod:`repro.net.subsystem`):
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
        return cluster.agents[owner].aggregation.register_derived(
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

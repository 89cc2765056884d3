"""The per-site aggregation manager: summaries, rollups, derived input.

One :class:`AggregationManager` registers with each organizing agent
whose ``OAConfig.subsystems`` lists an :class:`AggregationConfig` (see
:mod:`repro.net.subsystem` for the hooks).  Aggregate queries arrive
through the ordinary scalar entry point, whose ``try_scalar`` hook
offers them here first.  A decomposable wrapper
(``count``/``sum``/``avg``/``min``/``max``) around any path the QEG walk
takes is answered by the site's own gather of that path:

* **summary first**: a cached :class:`~repro.agg.partial.Partial` in
  ``summaries``, keyed by (region, freshness-stripped inner path), is
  served when its as-of time satisfies the caller's bound;
* **the walk's own asks**: every ask for the rest of the path below a
  region goes to the region's owner as a
  :class:`~repro.agg.messages.PartialAggregateRequest` carrying the
  ask's text -- tuples on the wire, never subtrees; an ask for a
  result's subtree fetches and merges as for a path query;
* **the fold**: the last walk's matches fold into one exact
  ``Partial`` with the owners' replies, as of its stalest part.  An
  owner serves a request with the same fold, so the hierarchy recurses
  and interior sites cache intermediate rollups.

A path ending in a named attribute or ``text()`` is walked to its
elements, and the fold reads that step off each; an owner's ask carries
the step too.  A bounded rollup counts what its bound admits, cached
copies included, as the path query does; an unbounded one puts a zero
tolerance on the last element step, so it counts current data only.
A failure (dead child, disabled peer, a path the walk does not take)
sends ``count``/``sum`` down the ordinary scalar path;
``avg``/``min``/``max`` exist only here and raise.  Without the config
nothing here exists and the wire is byte-identical to a build without
it.
"""

import threading

from repro.core.consistency import strip_consistency_predicates
from repro.core.errors import CoreError, UnsupportedDistributedQueryError
from repro.core.idable import format_id_path, id_paths_overlap, node_id
from repro.core.semcache import SemanticCache, canonicalize
from repro.core.status import STATUS_ATTRIBUTE, Status, get_status
from repro.net.errors import NetError
from repro.net.messages import ErrorMessage
from repro.xmlkit.nodes import Text
from repro.xpath import parser as xpath_parser
from repro.xpath.ast import FunctionCall, LocationPath, NameTest
from repro.xpath.errors import XPathError
from repro.xpath.types import node_string_value, to_number

from repro.agg.derived import DerivedSensor
from repro.agg.messages import (
    PartialAggregateAnswer,
    PartialAggregateRequest,
)
from repro.agg.partial import SHAPES, Partial, collapse, state_of

#: The summary cache's LRU budget.
SUMMARY_MAX_ENTRIES = 256
SUMMARY_MAX_BYTES = 4 * 1024 * 1024

#: The last element step of an unbounded rollup: only current data
#: counts.
CURRENT = "[timestamp() > current-time() - 0]"


class AggregationUnavailable(CoreError):
    """A rollup could not complete (dead child, disabled peer, ...)."""


def summary_key(region, inner_path):
    """The cache key for *inner_path* rolled up under *region*: all
    shapes and freshness bounds over the same data share one entry."""
    stripped = strip_consistency_predicates(inner_path).unparse()
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
    """``(path, final)``: *inner* less a last step that selects a named
    attribute or ``text()``, which the fold reads off each element
    *path* matches, and that step (``None``: the elements' own)."""
    steps = getattr(inner, "steps", ())
    final = steps[-1] if steps else None
    if final is None or final.axis == "child" and \
            isinstance(final.node_test, NameTest):
        return inner, None
    test = final.node_test
    named = final.axis == "attribute" and getattr(test, "name", "*") != "*"
    text = final.axis == "child" and getattr(test, "node_type", "") == "text"
    if final.predicates or not (named or text):
        raise UnsupportedDistributedQueryError(
            f"a rollup reads elements, named attributes and text(), "
            f"not {final.unparse()!r}")
    return LocationPath(inner.absolute, steps[:-1]), final


def _suffix(final):
    return "" if final is None else "/" + final.unparse()


def _strings(element, final):
    """The string values *final* selects on a matched *element*."""
    if final is None:
        return (node_string_value(element),)
    if final.axis == "attribute":
        value = element.attrib.get(final.node_test.name)
        return () if value is None else (value,)
    return [child.value for child in element.children
            if isinstance(child, Text)]


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


def _owned(element):
    """Whether this site owns the IDable node whose data *element* is."""
    while element.get(STATUS_ATTRIBUTE) is None and element.parent is not None:
        element = element.parent
    return get_status(element) is Status.OWNED


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
            "overlap_drops": 0,
            "overlap_regathers": 0,
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
        """``(handled, value)``: the rollup's answer, or ``handled``
        false for a query that is not aggregate-shaped and for a
        ``count``/``sum`` rollup that cannot complete (the caller takes
        the ordinary scalar path); ``avg``/``min``/``max`` raise."""
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
            if shape in ("count", "sum"):
                return False, None
            raise
        except AggregationUnavailable as exc:
            with self._lock:
                self.stats["fallbacks"] += 1
            if shape in ("count", "sum"):
                return False, None
            raise NetError(
                f"aggregate rollup unavailable for {shape}(): {exc}"
            ) from exc
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
        under the freshness *bound* (``None``: current data)."""
        driver = self.agent.driver
        pattern, final, key = self._compile(inner)
        region = pattern.anchor or ()
        entry = self.summaries.lookup(key, now, bound=bound,
                                      max_age=max_age)
        if entry is not None:
            return entry.value, entry.as_of
        if bound is None:
            pattern = driver.compile(pattern.source + CURRENT)
        replies = []

        def send_one(subquery):
            if subquery.subtree:
                return driver.send([subquery])[0]
            if any(_scans_over(ask, subquery, pattern.items)
                   for ask, _, _ in replies):
                return None  # a partial asked for already counts it
            reply = self._ask_partial(subquery, final, bound, now)
            if reply is not None:
                replies.append((subquery,) + reply)
            return None

        outcome = driver.gather(pattern, now=now, ships=False,
                                send=lambda pending: [send_one(subquery)
                                                      for subquery in pending])
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
                f"no answer to {failure.subquery.query!r}: {failure.cause}")
        with self._lock:
            self.stats["overlap_drops"] += \
                len(outcome.matches) - len(matches)
        partial, as_of = self._fold(matches, final, replies, bound, now)
        self.summaries.store(key, partial, now, region=region, nbytes=256,
                             as_of=as_of)
        return partial, as_of

    def _fold(self, matches, final, replies, bound, now):
        """The walk's *matches*, read through *final*, and the owners'
        *replies* (``(ask, partial, as_of)``) as one ``(partial,
        as_of)``."""
        partial, as_of = Partial(), now
        for _ask, part, part_as_of in replies:
            partial = partial.merge(part)
            as_of = min(as_of, part_as_of)
        values = []
        for match in matches:
            if bound is not None and not _owned(match):
                as_of = min(as_of, now - bound)  # a cached copy
            values.extend(map(to_number, _strings(match, final)))
        with self._lock:
            self.stats["rollups"] += 1
            self.stats["rollup_matches"] += len(values)
        return partial.merge(Partial.of_values(values)), as_of

    # ------------------------------------------------------------------
    # The wire: ask a region's owner, serve a parent's ask
    # ------------------------------------------------------------------
    def _ask_partial(self, subquery, final, bound, now):
        """``(partial, as_of)`` of one of the walk's asks, read through
        *final*, asked of its region's owner through ``agent.request``,
        gated; ``None`` for a region DNS retired (Section 4's transient
        inconsistency).  Every refusal and failure raises
        :class:`AggregationUnavailable`."""
        target = self.agent.resolve_owner(subquery.anchor_path)
        if target is None:
            return None
        if target == self.agent.site_id:
            raise AggregationUnavailable(
                f"DNS says {self.agent.site_id!r} owns "
                f"{format_id_path(subquery.anchor_path)} but the walk "
                "asked for it")
        query = subquery.query
        if bound is None:  # the owner puts back the zero tolerance
            query = strip_consistency_predicates(
                xpath_parser.parse(query)).unparse()
        message = PartialAggregateRequest(
            None, query + _suffix(final), bound=bound, now=now,
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
        return collapse(reply.state, now)

    def answer_partial(self, message):
        """Serve one :class:`PartialAggregateRequest` (the OA handler)
        with this site's rollup of its query: one entry keyed by the
        region (the request's, else the one its id pins name) and
        stamped with its as-of time, so a parent never holds a part
        longer than its bound."""
        now = float(message.now) if message.now is not None \
            else float(self.agent.clock())

        def refuse(code, detail, retryable=False):
            return ErrorMessage(message.message_id, code=code, detail=detail,
                                retryable=retryable,
                                sender=self.agent.site_id)

        try:
            inner = xpath_parser.parse(message.query)
            pattern = self._compile(inner)[0]
        except XPathError as exc:
            return refuse("agg-bad-query", str(exc))
        except UnsupportedDistributedQueryError as exc:
            return refuse("agg-unsupported", str(exc))
        region = message.region if message.region is not None \
            else pattern.anchor or ()
        if not self._serves(region):
            return refuse("agg-not-owned",
                          f"{self.agent.site_id} does not own the region")
        try:
            partial, as_of = self._rollup(inner, message.bound, now)
        except AggregationUnavailable as exc:
            return refuse("agg-unavailable", str(exc), retryable=True)
        with self._lock:
            self.stats["partials_served"] += 1
        return PartialAggregateAnswer(
            message.message_id, state_of(region, partial, as_of),
            sender=self.agent.site_id)

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
        """The hierarchical-aggregation view of an EXPLAIN run: it
        ``peek``s the summary cache, so an EXPLAIN never distorts the
        hit/miss counters it reports."""
        info = {"enabled": True, "shape": None,
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
                lines = [f"aggregation: {info['shape']}() via naive gather"
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

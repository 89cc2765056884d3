"""Query-Evaluate-Gather (QEG), the paper's core algorithm (Section 3.5).

Given an XPATH query and a site's document fragment, QEG determines

1. which data in the local fragment is part of the query result, and
2. how to gather the missing parts,

in a single pass over the fragment, driven entirely by the per-node
``status`` tags.  The output is the matches (the user's result once
nothing is asked), a generalized, cacheable answer fragment (recorded,
built when read: :mod:`repro.core.answer`) and the
:class:`~repro.core.answer.Subquery` records -- the paper's
``asksubquery`` placeholders.

The walker treats the query's main path as a pattern of child steps
with optional ``//`` gaps and simulates it NFA-style: each stored node
carries the set of pattern positions it has matched, so a node can
simultaneously be an intermediate match and sit inside a ``//`` scan.

Per-node behaviour matches the four status cases of Section 3.5:

``incomplete``
    evaluate the id-only predicates P_id if separable; on success the
    rest of the query becomes a subquery (we cannot even enumerate the
    node's children);
``id-complete``
    P_id can be checked and recursion can continue through IDable
    children; a subquery is needed when the node's local information is
    required (result region, non-id predicates, or non-IDable content);
``owned``
    everything is evaluated locally; consistency predicates are ignored
    because the owner is freshest;
``complete``
    like owned, but freshness comes first: a copy failing its bound,
    unless this gather vouched for it, is asked for again.

Nesting depth > 0 (Section 4) is handled the way the paper implements
it: the walk stops at the earliest tag a nested predicate references,
fetches the whole subtree below it, then evaluates the remainder
locally.  Subqueries fetch the smallest cacheable superset of their
answer (Section 3.3).
"""

import functools

from repro.core.answer import AnswerBuilder, Subquery
from repro.core.lru import LRUCache
from repro.core.consistency import strip_consistency_predicates
from repro.core.errors import UnsupportedDistributedQueryError
from repro.core.semcache import canonicalize_expression
from repro.core.idable import (
    id_path_of,
    idable_children,
    iter_idable,
    lowest_idable_ancestor_or_self,
    subtree_materialized,
)
from repro.core.status import Status, get_status
from repro.core.subquery import render_id_path_query, render_residual_query
from repro.xmlkit.nodes import Element, Text
from repro.xpath import parser as xpath_parser
from repro.xpath.analysis import (
    REF_ID,
    classify_predicate,
    iter_conjuncts,
    pinned_ids,
    split_predicates,
)
from repro.xpath.ast import (
    LocationPath,
    NameTest,
    NodeTypeTest,
    Step,
    iter_location_paths,
)
from repro.xpath.errors import XPathError
from repro.xpath.evaluator import Evaluator
from repro.xpath.types import to_boolean

_EVALUATOR = Evaluator()


def _path_is_nested(path, is_idable_tag):
    """Whether a location path inside a predicate crosses IDable nodes."""
    if path.absolute:
        return True
    for step in path.steps:
        if step.axis == "attribute":
            continue
        if step.axis in ("parent", "ancestor", "ancestor-or-self"):
            return True
        if isinstance(step.node_test, NameTest):
            if step.node_test.name == "*" or is_idable_tag(step.node_test.name):
                return True
        elif step.node_test.node_type == "node" and \
                step.axis in ("descendant", "descendant-or-self"):
            return True
    return False


def _predicate_is_nested(predicate, is_idable_tag):
    return any(
        _path_is_nested(path, is_idable_tag)
        for path in iter_location_paths(predicate)
    )


def _max_upward_levels(predicate):
    deepest = 0
    for path in iter_location_paths(predicate):
        if path.absolute:
            return 999
        levels = 0
        for step in path.steps:
            if step.axis == "parent":
                levels += 1
            elif step.axis in ("ancestor", "ancestor-or-self"):
                levels = 999
                break
            else:
                break
        deepest = max(deepest, levels)
    return deepest


class PatternItem:
    """One named child step of the query's main path."""

    __slots__ = ("step", "descendant", "plain_predicates", "nested_predicates",
                 "split", "pinned_ids", "residual_predicates")

    def __init__(self, step, descendant, is_idable_tag):
        self.step = step
        self.descendant = descendant
        self.nested_predicates = [
            p for p in step.predicates if _predicate_is_nested(p, is_idable_tag)
        ]
        self.plain_predicates = [
            p for p in step.predicates
            if not _predicate_is_nested(p, is_idable_tag)
        ]
        self.split = split_predicates(self.plain_predicates)
        #: Where P_id is decided first: the ids a node must carry to
        #: pass ``split.id_predicates`` (``None``: they pin nothing).
        self.pinned_ids = pinned_ids(self.split.id_predicates)
        # Predicates to re-attach when the step turns into a subquery:
        # everything except pure id pins (the id is pinned by the path).
        residual = []
        for predicate in step.predicates:
            conjuncts = [
                c for c in iter_conjuncts(predicate)
                if classify_predicate(c) != frozenset({REF_ID})
            ]
            if len(conjuncts) == len(list(iter_conjuncts(predicate))):
                residual.append(predicate)
            else:
                for conjunct in conjuncts:
                    residual.append(conjunct)
        self.residual_predicates = residual

    @property
    def has_nested(self):
        return bool(self.nested_predicates)

    def test_matches(self, node):
        test = self.step.node_test
        if isinstance(node, Text):
            return isinstance(test, NodeTypeTest) and \
                test.node_type in ("text", "node")
        if isinstance(test, NameTest):
            return test.matches(node.tag)
        return test.node_type == "node"

    def unparse(self):
        return self.step.unparse()


class CompiledPattern:
    """A query compiled for distributed (QEG) evaluation."""

    def __init__(self, source, ast, items, collect_index, is_idable_tag):
        self.source = source
        self.ast = ast
        self.items = items
        self.collect_index = collect_index
        self.is_idable_tag = is_idable_tag

    @property
    def has_nesting(self):
        return self.collect_index is not None

    def __repr__(self):
        return f"CompiledPattern({self.source!r})"


#: Compiled patterns for schema-less compilation, shared process-wide.
#: Schema-aware compilations are cached on the schema object instead
#: (see :class:`~repro.core.schema.HierarchySchema`), which both keeps
#: keys collision-free across schemas and lets schema evolution
#: invalidate exactly the affected entries.
PATTERN_CACHE = LRUCache(max_entries=256)


def _pattern_cache_for(schema):
    if schema is None:
        return PATTERN_CACHE
    # Duck-typed schemas without a cache simply compile every time.
    return getattr(schema, "compiled_patterns", None)


#: Process-wide counters for the two-level (raw spelling -> canonical)
#: compile-cache keying.  ``canonical_aliases`` counts spellings that
#: were answered by an existing canonical entry without recompiling --
#: each one is a compilation the raw-string key would have repeated.
PATTERN_KEY_STATS = {"canonical_aliases": 0, "canonical_compiles": 0}


def pattern_key_stats():
    """Snapshot of the canonical compile-cache keying counters."""
    return dict(PATTERN_KEY_STATS)


def compile_pattern(query, schema=None, rewrite_sugar=True, use_cache=True):
    """Compile *query* (a string or AST) for distributed evaluation.

    *schema* (a :class:`~repro.core.schema.HierarchySchema`) sharpens
    the IDable-tag knowledge used by the nesting analysis; without it,
    every element name is conservatively treated as IDable.

    String queries are served from a bounded LRU compile cache (the
    global :data:`PATTERN_CACHE`, or the schema's own cache when a
    schema is given) so repeated queries skip the parse/unparse/codegen
    path; compiled patterns are immutable and safe to share.  Pass
    ``use_cache=False`` to force a fresh compilation.

    Cache keys are **two-level**: the exact source string is the fast
    path (no parse at all on a repeat), and on a raw miss the query is
    canonicalized (``repro.core.semcache``) and checked again under its
    canonical spelling -- whitespace, predicate-order, and sugar
    variants of one query therefore share a single CompiledPattern (the
    raw spelling is aliased to it for next time) and emit byte-identical
    subqueries.  With ``rewrite_sugar=False`` the raw AST semantics are
    wanted verbatim, so no canonicalization is applied.
    """
    cache = None
    cache_key = None
    if use_cache and isinstance(query, str):
        cache = _pattern_cache_for(schema)
        if cache is not None:
            cache_key = (query, rewrite_sugar)
            cached = cache.get(cache_key)
            if cached is not None:
                return cached
    if isinstance(query, str):
        source = query
        ast = xpath_parser.parse_cached(query)
    else:
        ast = query
        source = ast.unparse()
    if rewrite_sugar:
        ast = canonicalize_expression(ast)  # includes the sugar rewrite
        source = ast.unparse()
        if cache is not None and cache_key is not None:
            canonical_key = (source, rewrite_sugar)
            if canonical_key != cache_key:
                cached = cache.get(canonical_key)
                if cached is not None:
                    # Alias this spelling so its next use is a raw hit.
                    cache.put(cache_key, cached)
                    PATTERN_KEY_STATS["canonical_aliases"] += 1
                    return cached
    if not isinstance(ast, LocationPath) or not ast.absolute:
        raise UnsupportedDistributedQueryError(
            "distributed queries must be absolute location paths; wrap "
            "scalar expressions in boolean()/count() at the agent level"
        )
    if schema is not None:
        is_idable_tag = schema.is_idable_tag
    else:
        is_idable_tag = lambda tag: True  # noqa: E731 - conservative default

    items = []
    pending_descendant = False
    for step in ast.steps:
        if (
            step.axis == "descendant-or-self"
            and isinstance(step.node_test, NodeTypeTest)
            and step.node_test.node_type == "node"
        ):
            if step.predicates:
                raise UnsupportedDistributedQueryError(
                    "predicates on a bare // step are not supported in "
                    "distributed queries"
                )
            pending_descendant = True
            continue
        if step.axis == "self" and isinstance(step.node_test, NodeTypeTest) \
                and step.node_test.node_type == "node" and not step.predicates:
            continue
        if step.axis != "child":
            raise UnsupportedDistributedQueryError(
                f"axis {step.axis!r} is not supported on the main path of a "
                "distributed query (it is supported inside predicates)"
            )
        items.append(PatternItem(step, pending_descendant, is_idable_tag))
        pending_descendant = False
    if pending_descendant:
        raise UnsupportedDistributedQueryError(
            "a distributed query cannot end with //"
        )

    collect_index = None
    for index, item in enumerate(items):
        if item.has_nested:
            up = max(_max_upward_levels(p) for p in item.nested_predicates)
            target = max(0, index - up)
            if collect_index is None or target < collect_index:
                collect_index = target

    pattern = CompiledPattern(source, ast, items, collect_index,
                              is_idable_tag)
    if cache is not None:
        cache.put(cache_key, pattern)
        if rewrite_sugar:
            # Also register the canonical spelling, so every future
            # equivalent spelling aliases to this one compilation.
            canonical_key = (source, rewrite_sugar)
            if canonical_key != cache_key:
                cache.put(canonical_key, pattern)
            PATTERN_KEY_STATS["canonical_compiles"] += 1
    return pattern


class QEGResult:
    """Output of one QEG pass over a site database.

    The walk only records what the answer fragment includes; ``answer``
    builds it on first read, which only a site that ships it does.
    ``matches``, the gap-free final-step matches in document order, are
    the user's result on a round that asks for nothing.
    """

    def __init__(self, builder, subqueries, stats, matches):
        self._builder = builder
        self.subqueries = subqueries
        self.stats = stats
        self.matches = matches

    @functools.cached_property
    def answer(self):
        return self._builder.build()

    @property
    def is_complete(self):
        """True when nothing remote is needed."""
        return not self.subqueries

    def __repr__(self):
        return (
            f"QEGResult(answer={'no' if self._builder.is_empty else 'yes'}, "
            f"subqueries={len(self.subqueries)})"
        )


# Match outcomes.
_MATCH = "match"
_NO = "no"
_ASK = "ask"


class _Walker:
    def __init__(self, db, pattern, now, observer=None, vouched=()):
        self.db = db
        self.pattern = pattern
        self.items = pattern.items
        self.now = now
        self.vouched = vouched
        self.builder = AnswerBuilder(db)
        self.subqueries = []
        self.matches = []
        #: Optional decision observer (EXPLAIN): notified of every
        #: emitted subquery and every IDable-node match verdict.
        self.observer = observer
        self._seen_subqueries = set()
        #: ``id(parent) -> {id(child)}`` of its IDable children, one pass
        #: per parent (the site lock holds the fragment still meanwhile).
        self._idable_kids = {}
        self._owners = {}  # id(element) -> whether it or a descendant is owned
        self.stats = {
            "nodes_visited": 0,
            "results_local": 0,
            "asks": 0,
            "prunes": 0,
        }

    # ------------------------------------------------------------------
    def ask(self, subquery):
        if subquery.query not in self._seen_subqueries:
            self._seen_subqueries.add(subquery.query)
            self.subqueries.append(subquery)
            self.stats["asks"] += 1
        if self.observer is not None:
            self.observer.note_ask(subquery)

    def _locally_idable(self, node):
        """:func:`repro.core.idable._locally_idable` off the per-parent set."""
        parent = node.parent
        if parent is None:
            return not isinstance(node, Text) and node.id is not None
        kids = self._idable_kids.get(id(parent))
        if kids is None:
            kids = self._idable_kids[id(parent)] = set(
                map(id, idable_children(parent)))
        return id(node) in kids

    def evaluate(self, predicates, node):
        try:
            return all(
                to_boolean(_EVALUATOR.evaluate(p, node, now=self.now))
                for p in predicates
            )
        except XPathError:
            # A predicate that cannot be evaluated on partial data is
            # treated as unsatisfied locally; the conservative paths
            # (ASK) have already been taken for nodes lacking data.
            return False

    # ------------------------------------------------------------------
    def run(self):
        root = self.db.root
        n_items = len(self.items)
        if n_items == 0:
            self._include_result(root)
            return self._finish()

        root_states = set()
        first = self.items[0]
        if first.descendant:
            root_states.add(0)
        if first.test_matches(root):
            outcome = self._match_item(root, 0)
            if outcome == _MATCH:
                root_states.add(1)
        if root_states:
            self._process(root, root_states)
        return self._finish()

    def _finish(self):
        return QEGResult(self.builder, self.subqueries, self.stats,
                         self.matches)

    # ------------------------------------------------------------------
    def _process(self, element, states):
        """Continue matching below *element*, which holds *states* threads."""
        self.stats["nodes_visited"] += 1
        n_items = len(self.items)

        if n_items in states:
            self._include_result(element)
            states = {j for j in states if j < n_items}
            if not states:
                return

        # Collect-point handling for nesting depth > 0.
        if (
            self.pattern.collect_index is not None
            and (self.pattern.collect_index + 1) in states
        ):
            self._collect_and_evaluate(element)
            states = {
                j for j in states if j != self.pattern.collect_index + 1
            }
            if not states:
                return

        if isinstance(element, Text):
            return

        status = get_status(element) if self._locally_idable(element) else None
        if status is Status.ID_COMPLETE:
            states = self._filter_states_for_id_complete(element, states)
            if not states:
                return

        threads = [(j, self.items[j]) for j in sorted(states)]
        for child in element.children:
            child_states = set()
            for j, item in threads:
                if item.descendant:
                    self._handle_descendant_scan(child, j, child_states)
                if item.test_matches(child):
                    outcome = self._match_item(child, j)
                    if outcome == _MATCH:
                        child_states.add(j + 1)
                        if j + 1 < n_items:
                            self._include_pass_through(child, item)
                    elif outcome == _NO:
                        self.stats["prunes"] += 1
            if child_states:
                self._process(child, child_states)

    def _include_pass_through(self, child, item):
        """Ship a matched intermediate node's information.

        At minimum the local ID information travels: that is what lets
        the asker cache *negative* knowledge ("this node has no further
        children of interest") and enables the subsumption effect of
        Section 3.3.

        When the item carried non-id predicates, the node's full local
        information travels instead -- the receiver's next walk decides
        the item again at the merged node, so every attribute and value
        field a predicate touched is part of the smallest correct
        superset (Section 2's numberOfFreeSpots example).
        """
        if isinstance(child, Text) or not self._locally_idable(child):
            return
        status = get_status(child)
        predicates_touch_content = (
            not item.split.separable
            or item.split.rest_predicates
            or item.split.consistency_predicates
            or item.nested_predicates
        )
        if status.has_local_information and predicates_touch_content:
            self.builder.include_local_information(child)
        elif status.has_id_information:
            self.builder.include_id_information(child)

    def _handle_descendant_scan(self, child, j, child_states):
        """A // scan passes through *child*: keep the thread alive.

        If *child* is an ID-only stub, its subtree may hide matches the
        site cannot see, so the scan becomes a subquery.
        """
        if isinstance(child, Text):
            return
        if self._locally_idable(child) and \
                get_status(child) is Status.INCOMPLETE:
            self._ask_below(child, j, Subquery.INCOMPLETE, gap=True)
            return
        child_states.add(j)

    def _filter_states_for_id_complete(self, element, states):
        """At an id-complete node, threads needing local content must ask.

        The node's non-IDable children are not stored, so any next item
        that could match non-IDable content turns into a subquery; next
        items naming IDable tags continue through the child ID stubs.
        A ``//`` scan both asks and continues: data an answered ask
        merged below the stubs must still match.
        """
        keep = set()
        stub_tags = {child.tag for child in idable_children(element)}
        for j in states:
            if j >= len(self.items):
                keep.add(j)
                continue
            item = self.items[j]
            test = item.step.node_test
            needs_content = True
            if isinstance(test, NameTest) and test.name != "*":
                if test.name in stub_tags or \
                        self.pattern.is_idable_tag(test.name):
                    needs_content = False
            if needs_content:
                self._ask_below(element, j, Subquery.ID_COMPLETE)
            if not needs_content or item.descendant:
                keep.add(j)
        return keep

    # ------------------------------------------------------------------
    def _match_item(self, node, j):
        """Decide whether *node* satisfies item *j*, notifying the
        EXPLAIN observer (if any) of the verdict on IDable nodes.  P_id
        goes first (Section 3.5): a set test prunes a node the item's
        pins exclude before anything is evaluated or asked."""
        pinned = self.items[j].pinned_ids
        if pinned is not None and (isinstance(node, Text)
                                   or node.attrib.get("id") not in pinned):
            outcome = _NO
        else:
            outcome = self._match_item_inner(node, j)
        if self.observer is not None and self._locally_idable(node):
            self.observer.note_decision(node, get_status(node), outcome, j)
        return outcome

    def _match_item_inner(self, node, j):
        """Decide whether *node* satisfies item *j* (the four status cases)."""
        item = self.items[j]
        if isinstance(node, Text):
            return _MATCH if not item.step.predicates else (
                _MATCH if self.evaluate(item.step.predicates, node) else _NO
            )

        split = item.split
        if not self.evaluate(split.id_predicates, node):
            return _NO  # P_id first, also for what the pins cannot express
        # Nested predicates wait for the collect point (_process).
        is_result_item = (j + 1) == len(self.items)

        if not self._locally_idable(node):
            # Non-IDable content: physically present, so everything is
            # evaluable; consistency follows the enclosing IDable node.
            anchor = lowest_idable_ancestor_or_self(node)
            if get_status(anchor) is Status.COMPLETE and \
                    self._stale(split, node, anchor):
                return self._ask_below(anchor, j, Subquery.STALE, gap=True)
            return _MATCH if self.evaluate(split.rest_predicates, node) \
                else _NO

        status = get_status(node)

        if status is Status.OWNED:
            return _MATCH if self.evaluate(split.rest_predicates, node) \
                else _NO

        if not split.separable:
            return self._ask_residual(node, item, j, Subquery.UNSEPARABLE)

        if status is Status.COMPLETE:
            if self._stale(split, node, node):
                return self._ask_stale(node, item, j)
            return _MATCH if self.evaluate(split.rest_predicates, node) \
                else _NO

        if status is Status.ID_COMPLETE:
            if split.rest_predicates or split.consistency_predicates or \
                    is_result_item:
                return self._ask_residual(node, item, j, Subquery.ID_COMPLETE)
            return _MATCH

        # status INCOMPLETE: only the ID is known.
        return self._ask_residual(node, item, j, Subquery.INCOMPLETE)

    def _ask_residual(self, node, item, j, reason):
        anchor_path = id_path_of(node)
        self.ask(Subquery(
            render_residual_query(anchor_path, item.residual_predicates,
                                  self.items[j + 1:]),
            anchor_path,
            reason,
            consumed=j + 1,
        ))
        return _ASK

    def _ask_below(self, anchor, j, reason, gap=False):
        """Ask for items ``j:`` below *anchor* (``//`` below it: *gap*)."""
        anchor_path = id_path_of(anchor)
        self.ask(Subquery(
            render_residual_query(anchor_path, [], self.items[j:],
                                  descendant_gap=gap),
            anchor_path, reason, consumed=j, descendant_gap=gap))
        return _ASK

    def _stale(self, split, node, anchor):
        """Whether the cached copy *node* (data of the IDable *anchor*)
        fails its step's freshness bound; a vouched-for copy is as fresh
        as its owner makes it, so never."""
        return bool(split.consistency_predicates) \
            and anchor not in self.vouched \
            and not self.evaluate(split.consistency_predicates, node)

    def _ask_stale(self, node, item, j):
        """Ask again for a stale copy, never pruning it by stale values:
        once per parent for a step with no id pin (its children are one
        cacheable unit, so a block of stale spaces costs one subquery);
        for the node itself under a pin, at the root, or where the
        parent's region holds data owned here."""
        parent = node.parent
        if item.pinned_ids is not None or parent is None or \
                self._owns_below(parent):
            return self._ask_residual(node, item, j, Subquery.STALE)
        return self._ask_below(parent, j, Subquery.STALE)

    def _owns_below(self, element):
        """Whether this site owns *element* or anything under it: an ask
        for the region would then come back here, and subquery chains
        must only descend (each site serves one message at a time)."""
        owns = self._owners.get(id(element))
        if owns is None:
            owns = self._owners[id(element)] = any(
                get_status(node) is Status.OWNED
                for node in iter_idable(element))
        return owns

    # ------------------------------------------------------------------
    # Nesting depth > 0
    # ------------------------------------------------------------------
    def _collect_and_evaluate(self, element):
        """Fetch-subtree strategy at the collect point (Section 4)."""
        if not subtree_materialized(element):
            self._ask_subtree(element, Subquery.NESTED_FETCH)
            return
        # All data below is local: evaluate the rest of the query with
        # the plain evaluator, relative to this node.
        k = self.pattern.collect_index
        residual_steps = []
        item_k = self.items[k]
        if item_k.nested_predicates:
            residual_steps.append(
                Step("self", NodeTypeTest("node"),
                     list(item_k.nested_predicates))
            )
        for item in self.items[k + 1:]:
            if item.descendant:
                residual_steps.append(Step("descendant-or-self",
                                           NodeTypeTest("node")))
            residual_steps.append(Step("child", item.step.node_test,
                                       list(item.step.predicates)))
        # Freshness below a collect point is the fetch's business: the
        # subtree is materialized, and an owner's data is never too old.
        residual = strip_consistency_predicates(
            LocationPath(absolute=False, steps=residual_steps))
        try:
            matches = _EVALUATOR.evaluate(residual, element, now=self.now)
        except XPathError:
            matches = []
        for match in matches if isinstance(matches, list) else []:
            if isinstance(match, (Element, Text)):
                self._include_result(match)
                self.stats["results_local"] += 1

    # ------------------------------------------------------------------
    def _include_result(self, match):
        """Include a final-step *match*'s answer region; record the match
        as a result unless part of its data is still missing here."""
        element = match.parent if isinstance(match, Text) else match
        anchor = lowest_idable_ancestor_or_self(element)
        self.builder.include_ancestors(anchor)
        missing = []
        if anchor is element:
            self.builder.include_subtree(element, on_missing=missing.append)
        elif get_status(anchor).has_local_information:
            # Generalized answer: the smallest cacheable superset of a
            # non-IDable result is its enclosing node's local information.
            self.builder.include_local_information(anchor)
        else:
            missing.append(anchor)
        for node in missing:
            self._ask_subtree(node)
        # A text node is all there, whatever its parent's subtree lacks.
        if not missing or isinstance(match, Text):
            self.matches.append(match)
        self.stats["results_local"] += 1

    def _ask_subtree(self, element, reason=Subquery.MISSING_SUBTREE):
        anchor_path = id_path_of(element)
        self.ask(Subquery(render_id_path_query(anchor_path), anchor_path,
                          reason, subtree=True))


def run_qeg(db, pattern, now=None, observer=None, vouched=()):
    """Run one QEG pass of *pattern* over the site database *db*.

    *now* is the query's clock reading for consistency predicates;
    *observer* (see :class:`repro.obs.explain.ExplainObserver`)
    receives every emitted subquery and per-IDable-node verdict --
    the EXPLAIN hook, ``None`` (free) outside explain runs;
    *vouched* holds the IDable elements whose cached data this gather
    got from a reply to an exact ask, or served under
    ``stale_on_error``: no freshness bound makes them stale.
    """
    if isinstance(pattern, str):
        pattern = compile_pattern(pattern)
    return _Walker(db, pattern, now, observer=observer,
                   vouched=vouched).run()

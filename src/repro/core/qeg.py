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
A ``text()`` or ``node()`` step meets an element's text as a view after
its child elements (:meth:`_Walker._process_text`).

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

Each such ask -- a stale copy's non-IDable content's too -- and a
``//`` scan's at an ID stub, is anchored where the cold plan asks
(:meth:`_Walker._climb`): a refresh costs no more than a first posing.

Nesting depth > 0 (Section 4) is handled the way the paper implements
it: the walk stops at the earliest tag a nested predicate references,
fetches the whole subtree below it, then evaluates the remainder
locally.  Subqueries fetch the smallest cacheable superset of their
answer (Section 3.3).
"""

import functools
import re
import threading

from repro.core.answer import AnswerBuilder, GapFinder, Subquery
from repro.core.lru import LRUCache
from repro.core.consistency import strip_consistency_predicates
from repro.core.errors import UnsupportedDistributedQueryError
from repro.core.semcache import canonicalize_expression
from repro.core.idable import (
    id_path_of,
    idable_children,
    iter_idable,
    locally_idable,
    lowest_idable_ancestor_or_self,
    subtree_materialized,
)
from repro.core.status import Status, get_status
from repro.core.subquery import render_id_path_query, render_residual_tail
from repro.xmlkit.nodes import Element, Text, child_index
from repro.xpath import parser as xpath_parser
from repro.xpath.analysis import (
    REF_ID,
    PredicateSplit,
    anchor_id_path,
    classify_predicate,
    collect_point,
    extract_id_path,
    id_path_of_pins,
    id_path_pins,
    id_pin_sets,
    intersect_pins,
    iter_conjuncts,
    pinned_ids,
    predicate_is_nested,
    split_predicates,
)
from repro.xpath.ast import (
    Expression,
    Literal,
    LocationPath,
    NameTest,
    NodeTypeTest,
    Step,
)
from repro.xpath.errors import XPathError
from repro.xpath.evaluator import (
    Environment,
    compile_expression,
    compile_predicates,
)


class PatternItem:
    """One named child step of the query's main path.

    The walk reads an item's structure -- ``node_test``, the flags,
    ``pinned_ids`` -- and its compiled checks; only an ask's rendering
    and the checks read the predicate ASTs.  An item bound from a
    template (:meth:`bind`) therefore holds its structure and pins, and
    clones a predicate AST from the template on its first read
    (:data:`_BOUND`)."""

    __slots__ = ("step", "descendant", "plain_predicates", "nested_predicates",
                 "split", "pinned_ids", "pins_exact", "residual_predicates",
                 "text_check", "id_check", "rest_check", "consistency_check",
                 "node_test", "separable", "has_id_predicates",
                 "reads_content", "touches_content", "lookup_tag", "_bound")

    def __init__(self, step, descendant, is_idable_tag):
        self.step = step
        self.node_test = step.node_test
        self.descendant = descendant
        self.nested_predicates = [
            p for p in step.predicates if predicate_is_nested(p, is_idable_tag)
        ]
        self.plain_predicates = [
            p for p in step.predicates
            if not predicate_is_nested(p, is_idable_tag)
        ]
        split = self.split = split_predicates(self.plain_predicates)
        self.separable = split.separable
        self.has_id_predicates = bool(split.id_predicates)
        #: Whether a node passes only with its local information at hand.
        self.reads_content = bool(split.rest_predicates
                                  or split.consistency_predicates)
        #: Whether a matched node ships its local information, not just
        #: its ids (:meth:`_Walker._include_pass_through`).
        self.touches_content = not split.separable or self.reads_content \
            or bool(self.nested_predicates)
        #: Where P_id is decided first: the ids a node must carry to
        #: pass ``split.id_predicates`` (``None``: they pin nothing).
        self.pinned_ids = pinned_ids(split.id_predicates)
        #: Whether the pins are P_id's whole meaning, so that passing
        #: them decides it -- a property of the query shape, kept by
        #: :meth:`bind` (a slot holds a literal either way).
        self.pins_exact = pinned_ids(split.id_predicates,
                                     exact=True) is not None
        #: The tag a pinned child carries where the walk may look the
        #: pins up in the parent's child index instead of testing every
        #: child: a child step, a name test, exact pins; else ``None``.
        self.lookup_tag = step.node_test.name \
            if self.pins_exact and not descendant \
            and isinstance(step.node_test, NameTest) \
            and step.node_test.name != "*" else None
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
        self._bound = None

    def __getattr__(self, name):
        """A check (:data:`_CHECKS`) compiles on its first read, and a
        bound item's predicate AST (:data:`_BOUND`) is cloned on its
        first read; either stays in its slot.  An item compiles the
        checks its walks run, once (exact pins, for one, never run
        P_id's), and a bound one shares its template's check wherever
        no slot reaches the predicates."""
        rebind, predicates_of = _BOUND.get(name), _CHECKS.get(name)
        if rebind is None and predicates_of is None:
            raise AttributeError(name)
        template, binding = self._bound or (None, None)
        if rebind is not None:  # only a bound item leaves these unset
            value = rebind(getattr(template, name), binding.clone)
        elif template is not None and not any(
                map(binding.holds, predicates_of(template))):
            value = getattr(template, name)
        else:
            value = compile_predicates(predicates_of(self))
        setattr(self, name, value)
        return value

    def test_matches(self, element):
        test = self.node_test
        if isinstance(test, NameTest):
            return test.matches(element.tag)
        return test.node_type == "node"

    def unparse(self):
        return self.step.unparse()

    def bind(self, binding, pin_slots):
        """This item with *binding*'s literals in its slots: the
        structure is the template's, the pins are *pin_slots* (the slot
        indices of P_id's pinning conjuncts) filled, and every predicate
        AST waits for its first read."""
        item = PatternItem.__new__(PatternItem)
        item.descendant = self.descendant
        item.pins_exact = self.pins_exact
        item.node_test = self.node_test
        item.separable = self.separable
        item.has_id_predicates = self.has_id_predicates
        item.reads_content = self.reads_content
        item.touches_content = self.touches_content
        item.lookup_tag = self.lookup_tag
        item.pinned_ids = intersect_pins(binding.fill(pin_slots))
        item._bound = (self, binding)
        return item


def _clone_all(nodes, clone):
    return list(map(clone, nodes))


#: The predicate ASTs of a bound item, by how one is cloned from its
#: template's value (*clone* maps a template node to its bound copy).
_BOUND = {
    "step": lambda step, clone: clone(step),
    "plain_predicates": _clone_all,
    "nested_predicates": _clone_all,
    "residual_predicates": _clone_all,
    "split": lambda split, clone: PredicateSplit(
        _clone_all(split.id_predicates, clone),
        _clone_all(split.consistency_predicates, clone),
        _clone_all(split.rest_predicates, clone), split.separable),
}


#: The predicate lists the walk decides, by the slot of their compiled
#: check (:func:`~repro.xpath.evaluator.compile_predicates`, ``None``
#: for none).  ``text_check`` is the step's predicates at a text node,
#: which only a node-type test matches.
_CHECKS = {
    "text_check": lambda item: item.step.predicates
    if isinstance(item.node_test, NodeTypeTest) else (),
    "id_check": lambda item: item.split.id_predicates,
    "rest_check": lambda item: item.split.rest_predicates,
    "consistency_check": lambda item: item.split.consistency_predicates,
}


class _Binding:
    """A template's slots filled with *values*: the pin sets map through
    them, and a template node holding a slot is cloned -- once, on the
    first read that needs it -- with its literals in place."""

    __slots__ = ("values", "holders", "clones")

    def __init__(self, values, holders):
        self.values = values
        #: The ``id()`` of every template node that holds a slot.
        self.holders = holders
        self.clones = {}

    def holds(self, node):
        return id(node) in self.holders

    def clone(self, node):
        if id(node) not in self.holders:
            return node
        copy = self.clones.get(id(node))
        if copy is None:
            copy = self.clones[id(node)] = _rebuild(node, self.clone,
                                                    self.values)
        return copy

    def fill(self, pin_slots):
        """The pin sets *pin_slots*, each a tuple of slot indices, with
        the literals in place."""
        values = self.values
        return [frozenset([values[slot] for slot in slots])
                for slots in pin_slots]


class CompiledPattern:
    """A query compiled for distributed (QEG) evaluation.

    A pattern bound from its shape's template (:meth:`bind`) holds its
    items, pins and anchor; its ``ast`` -- hence ``source`` and
    ``residual`` -- is cloned from the template on the first read."""

    def __init__(self, ast, items, collect_index, is_idable_tag):
        self.ast = ast
        self.items = items
        self.collect_index = collect_index
        self.is_idable_tag = is_idable_tag
        #: ``(kind, j, gap) -> text`` of each ask tail a walk rendered:
        #: what an ask adds after its anchor's id path, the same at
        #: every anchor (:meth:`_Walker._render`).
        self.tails = {}

    @functools.cached_property
    def ast(self):
        template, binding = self._bound
        return binding.clone(template.ast)

    @functools.cached_property
    def source(self):
        return self.ast.unparse()

    @functools.cached_property
    def anchor(self):
        """The LCA id path, a tuple of ``(tag, id)`` pairs, or ``None``."""
        return tuple(extract_id_path(self.ast)) or None

    @property
    def has_nesting(self):
        return self.collect_index is not None

    @functools.cached_property
    def residual(self):
        """The rest of the query below the collect point, relative to
        it and compiled once per pattern (``None`` without nesting)."""
        k = self.collect_index
        if k is None:
            return None
        steps = []
        item_k = self.items[k]
        if item_k.nested_predicates:
            steps.append(Step("self", NodeTypeTest("node"),
                              list(item_k.nested_predicates)))
        for item in self.items[k + 1:]:
            if item.descendant:
                steps.append(Step("descendant-or-self", NodeTypeTest("node")))
            steps.append(Step("child", item.node_test,
                              list(item.step.predicates)))
        # Freshness below a collect point is the fetch's business: the
        # subtree is materialized, and an owner's data is never too old.
        return compile_expression(strip_consistency_predicates(
            LocationPath(absolute=False, steps=steps)))

    def bind(self, values):
        """This template with ``values[i]`` in slot *i*, in O(slots):
        the items' pins and the anchor map through *values*; no AST
        node is cloned until something reads it."""
        if not values:
            return self
        holders, item_pins, anchor_pins = self._bind_plan
        binding = _Binding(values, holders)
        pattern = CompiledPattern.__new__(CompiledPattern)
        pattern.items = [item if slots is None else item.bind(binding, slots)
                         for item, slots in zip(self.items, item_pins)]
        pattern.collect_index = self.collect_index
        pattern.is_idable_tag = self.is_idable_tag
        pattern.tails = {}
        pattern._bound = (self, binding)
        pattern.anchor = tuple(id_path_of_pins(
            [(tag, binding.fill(slots)) for tag, slots in anchor_pins])) \
            or None
        return pattern

    @functools.cached_property
    def _bind_plan(self):
        """``(holders, item_pins, anchor_pins)`` of a template, worked
        out on its first bind: the ``id()`` of every AST node holding a
        slot; per item, ``None`` when its step holds none, else the slot
        indices of its P_id's pin sets; and the anchor's steps, each a
        tag and the slot indices of its pin sets."""
        holders = set()
        _mark_slot_holders(self.ast, holders)
        item_pins = [
            _pin_slots(id_pin_sets(item.split.id_predicates))
            if id(item.step) in holders else None
            for item in self.items]
        anchor_pins = [(tag, _pin_slots(sets))
                       for tag, sets in id_path_pins(self.ast)]
        return holders, item_pins, anchor_pins

    def __repr__(self):
        return f"CompiledPattern({self.source!r})"


def _slot_index(sentinel):
    """The slot a template literal's sentinel value names."""
    return int(sentinel[1:])


def _pin_slots(sets):
    """Pin *sets* of sentinel values as tuples of slot indices."""
    return [tuple(map(_slot_index, ids)) for ids in sets]


def _mark_slot_holders(node, holders):
    """Add the ``id()`` of every node under *node* that holds a slot."""
    held = isinstance(node, Literal)
    for child in node.children():
        if _mark_slot_holders(child, holders):
            held = True
    if held:
        holders.add(id(node))
    return held


def _rebuild(node, clone, values):
    """A copy of *node* over its cloned children; a slot takes its value."""
    if isinstance(node, Literal):
        return Literal(values[_slot_index(node.value)])
    copy = object.__new__(type(node))
    for name in type(node).__slots__:
        value = getattr(node, name)
        if isinstance(value, list):
            value = list(map(clone, value))
        elif isinstance(value, Expression):
            value = clone(value)
        setattr(copy, name, value)
    return copy


#: The compile memo for schema-less compilation, shared process-wide.
#: Schema-aware compilations are memoized on the schema object instead
#: (see :class:`~repro.core.schema.HierarchySchema`), which both keeps
#: keys collision-free across schemas and lets schema evolution
#: invalidate exactly the affected entries.
PATTERN_CACHE = LRUCache(max_entries=256)

#: ``canonical_compiles`` counts template builds: one per query shape
#: the memo did not hold.
PATTERN_KEY_STATS = {"canonical_compiles": 0}
#: Held while a template is built, so sites meeting a new shape at
#: once build it once.
_TEMPLATE_BUILD = threading.RLock()

#: A string literal as the lexer reads one (XPath 1.0 has no escapes).
_LITERAL = re.compile(r"""('[^']*'|"[^"]*")""")
#: A slot sentinel is this private-use character and a zero-padded
#: index, so operands that differ only in a literal keep their
#: spelling order through canonicalization.
_SLOT = "\ue000"


def pattern_key_stats():
    """Snapshot of the compile memo's template-build counter."""
    return dict(PATTERN_KEY_STATS)


def compile_pattern(query, schema=None):
    """Compile *query* (a string or AST) for distributed evaluation.

    *schema* (a :class:`~repro.core.schema.HierarchySchema`) sharpens
    the IDable-tag knowledge used by the nesting analysis; without it,
    every element name is conservatively treated as IDable.

    One memo serves every compile: the schema's ``compiled_patterns``,
    or :data:`PATTERN_CACHE` without a schema; an AST is keyed by its
    text.  The exact text gives its bound pattern.  Failing that, the
    text's *shape* -- the text with each string literal lifted into a
    slot -- gives a template, built once per shape (parse, canonicalize,
    pattern items) with a sentinel in each slot, into which the text's
    literals are bound: a new text of a known shape is neither parsed
    nor canonicalized (Section 4's fast creation, on the live path).
    Compiled patterns are safe to share: what a walk adds to one, its
    ask tails, is the same text whichever walk renders it first.
    """
    text = query if isinstance(query, str) else query.unparse()
    cache = PATTERN_CACHE if schema is None else schema.compiled_patterns
    pattern = cache.get(text)
    if pattern is None:
        pattern = _bind_shape(text, cache, schema)
        cache.put(text, pattern)
    return pattern


def _bind_shape(text, cache, schema):
    """What a text the memo does not hold costs: its shape's template
    from *cache* (built on the shape's first text) with the text's
    literals bound into its slots."""
    parts = _LITERAL.split(text)
    shape = tuple(parts[0::2])
    template = cache.get(shape)
    if template is None:
        with _TEMPLATE_BUILD:
            # Another thread may have built it while this one waited.
            template = cache.get(shape) if shape in cache else None
            if template is None:
                template = _build_template(parts, text, schema)
                cache.put(shape, template)
    return template.bind([literal[1:-1] for literal in parts[1::2]])


def _build_template(parts, text, schema):
    """The template of the shape *parts* (text and literals alternating)."""
    sentinel_text = "".join(
        part if index % 2 == 0 else f"'{_SLOT}{index // 2:04d}'"
        for index, part in enumerate(parts))
    try:
        template = _compile(sentinel_text, schema)
    except XPathError:
        xpath_parser.parse(text)  # the error at its offset in *text*
        raise
    PATTERN_KEY_STATS["canonical_compiles"] += 1
    return template


def query_anchor(query, schema=None):
    """The LCA id path of *query* -- a path, or a scalar wrapper around
    one -- or ``None`` when it has none or does not parse."""
    try:
        return compile_pattern(query, schema).anchor
    except UnsupportedDistributedQueryError:
        return anchor_id_path(query)
    except XPathError:
        return None


def _compile(query, schema=None):
    """Compile *query* (a string or AST) afresh, bypassing every memo:
    parse, canonicalize, pattern items (Section 4's naive creation)."""
    if isinstance(query, str):
        query = xpath_parser.parse(query)
    if not isinstance(query, LocationPath) or not query.absolute:
        raise UnsupportedDistributedQueryError(
            "distributed queries must be absolute location paths; wrap "
            "scalar expressions in boolean()/count() at the agent level"
        )
    ast = canonicalize_expression(query)  # includes the sugar rewrite
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

    collect_index = collect_point([item.nested_predicates for item in items])
    return CompiledPattern(ast, items, collect_index, is_idable_tag)


class QEGResult:
    """Output of one QEG pass over a site database.

    The walk only records what the answer fragment includes; ``answer``
    builds it on first read.  A walk whose answer never ships records
    nothing (``answer`` is ``None``).
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

# Ask kinds: item j's residual at the node, items j: below it, its subtree.
_RESIDUAL = "residual"
_BELOW = "below"
_SUBTREE = "subtree"


class _Walker:
    def __init__(self, db, pattern, now, observer=None, vouched=(),
                 ships=True):
        self.db = db
        self.pattern = pattern
        self.items = pattern.items
        self.now = now
        self.env = Environment(now=now)
        self.vouched = vouched
        self.ships = ships
        self.builder = AnswerBuilder(db) if ships else GapFinder(db)
        self.subqueries = []
        self.matches = []
        #: Optional decision observer (EXPLAIN): notified of every
        #: emitted subquery and every IDable-node match verdict.
        self.observer = observer
        self._seen_subqueries = set()
        #: The items whose test accepts a text view: text() and node().
        self._text_items = {
            j for j, item in enumerate(self.items)
            if getattr(item.node_test, "node_type", None) in ("text", "node")}
        self._owners = {}  # id(element) -> whether it or a descendant is owned
        #: The states of each element on the path to the node being
        #: decided, root first: where a ``//`` thread started.
        self._held = []
        #: ``(id(anchor), kind, j, gap) -> (text, anchor_path)`` of every
        #: ask rendered so far: each region and walk renders once.
        self._rendered = {}
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

    def evaluate(self, check, node):
        """Whether *node* passes the compiled *check* (``None``: no
        predicates) at this walk's clock."""
        if check is None:
            return True
        try:
            return check(node, self.env)
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
    def _settle(self, node, states):
        """Decide the collect point and the results among the *states*
        *node* holds; returns the threads to continue below it."""
        self.stats["nodes_visited"] += 1
        n_items = len(self.items)
        # Collect-point handling for nesting depth > 0, before results:
        # a final step's own nested predicates are decided there.
        collected = self.pattern.collect_index
        if collected is not None and collected + 1 in states:
            self._collect_and_evaluate(node)
            states = {j for j in states if j != collected + 1}
        if n_items in states:
            self._include_result(node)
            states = {j for j in states if j < n_items}
        return states

    def _process(self, element, states):
        """Continue matching below *element*, which holds *states* threads."""
        states = self._settle(element, states)
        if not states:
            return
        n_items, collected = len(self.items), self.pattern.collect_index
        status = get_status(element) if locally_idable(element) else None
        if status is Status.ID_COMPLETE:
            states = self._filter_states_for_id_complete(element, states)
            if not states:
                return

        threads = [(j, self.items[j]) for j in sorted(states)]
        # A child in the final state alone is a result, unless the final
        # step is the collect point, whose nested predicates decide it.
        final = None if collected == n_items - 1 else {n_items}
        self._held.append(states)
        for child in self._candidates(element, threads):
            child_states = set()
            for j, item in threads:
                if item.descendant:
                    self._handle_descendant_scan(child, j, child_states)
                if item.test_matches(child):
                    outcome = self._match_item(child, j)
                    if outcome == _MATCH:
                        child_states.add(j + 1)
                        if j + 1 < n_items and self.ships:
                            self._include_pass_through(child, item)
                    elif outcome == _NO:
                        self.stats["prunes"] += 1
            if child_states == final:  # _process would only include it
                self.stats["nodes_visited"] += 1
                self._include_result(child)
            elif child_states:
                self._process(child, child_states)
        if element.text is not None and self._text_items:
            self._process_text(element, threads)
        self._held.pop()

    def _candidates(self, element, threads):
        """The children of *element* that *threads* may match, in
        document order: when every thread is a pinned child name test
        (:attr:`PatternItem.lookup_tag`), the IDable children its pins
        name, read off *element*'s child index; else all of them.  A pin
        two siblings share, and an EXPLAIN run, which reports the
        verdict on every sibling, keep the scan."""
        if self.observer is not None:
            return element.children
        for _j, item in threads:
            if item.lookup_tag is None or item.pinned_ids is None:
                return element.children
        index = child_index(element)
        if index is None:  # no child carries an id a pin could name
            return ()
        wanted = {(item.lookup_tag, pin)
                  for _j, item in threads for pin in item.pinned_ids}
        if index.dups and not wanted.isdisjoint(index.dups):
            return element.children
        return [child for child in index.idable
                if (child.tag, child.attrib["id"]) in wanted]

    def _process_text(self, element, threads):
        """Match the view of *element*'s text, after its child elements,
        against *threads*: it has no id and no children, so a pinned item
        never selects it, and it ends every thread it meets."""
        view = Text(element.text, element)
        tried = [(j, item) for j, item in threads if j in self._text_items]
        states = {j + 1 for j, item in tried if item.pinned_ids is None
                  and self.evaluate(item.text_check, view)}
        self.stats["prunes"] += len(tried) - len(states)
        if states:
            self._settle(view, states)

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
        if not locally_idable(child):
            return
        status = get_status(child)
        if status.has_local_information and item.touches_content:
            self.builder.include_local_information(child)
        elif status.has_id_information:
            self.builder.include_id_information(child)

    def _handle_descendant_scan(self, child, j, child_states):
        """A // scan passes through *child*: keep the thread alive.

        If *child* is an ID-only stub, its subtree may hide matches the
        site cannot see, so the scan becomes a subquery.
        """
        if locally_idable(child) and \
                get_status(child) is Status.INCOMPLETE:
            self._ask_at(child, j, Subquery.INCOMPLETE, scan=True)
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
        for j in states:
            if j >= len(self.items):
                keep.add(j)
                continue
            item = self.items[j]
            test = item.node_test
            needs_content = True
            if isinstance(test, NameTest) and test.name != "*":
                if self.pattern.is_idable_tag(test.name) or any(
                        child.tag == test.name
                        for child in idable_children(element)):
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
        if pinned is not None and node.attrib.get("id") not in pinned:
            outcome = _NO
        else:
            outcome = self._match_item_inner(node, j)
        if self.observer is not None and locally_idable(node):
            self.observer.note_decision(node, get_status(node), outcome, j)
        return outcome

    def _match_item_inner(self, node, j):
        """Decide whether *node* satisfies item *j* (the four status cases)."""
        item = self.items[j]
        # P_id first: _match_item's pin test decided it when the pins
        # are exact; otherwise evaluate what the pins cannot express.
        if not (item.pins_exact and item.pinned_ids is not None) \
                and not self.evaluate(item.id_check, node):
            return _NO
        # Nested predicates wait for the collect point (_process).
        is_result_item = (j + 1) == len(self.items)

        if not locally_idable(node):
            # Non-IDable content: physically present, so everything is
            # evaluable; consistency follows the enclosing IDable node.
            anchor = lowest_idable_ancestor_or_self(node)
            if get_status(anchor) is Status.COMPLETE and \
                    self._stale(item, node, anchor):
                top, k, gap = self._climb(node, j)
                if top is not anchor and locally_idable(top):
                    return self._ask_below(top, k, Subquery.STALE, gap)
                # The climb did not leave the IDable anchor: ask below it.
                return self._ask_below(anchor, j, Subquery.STALE, gap=True)
            return _MATCH if self.evaluate(item.rest_check, node) \
                else _NO

        status = get_status(node)

        if status is Status.OWNED:
            return _MATCH if self.evaluate(item.rest_check, node) \
                else _NO

        if not item.separable:
            return self._ask_at(node, j, Subquery.UNSEPARABLE)

        if status is Status.COMPLETE:
            if self._stale(item, node, node):
                return self._ask_at(node, j, Subquery.STALE)
            return _MATCH if self.evaluate(item.rest_check, node) \
                else _NO

        if status is Status.ID_COMPLETE:
            if item.reads_content or is_result_item:
                return self._ask_at(node, j, Subquery.ID_COMPLETE)
            return _MATCH

        # status INCOMPLETE: only the ID is known.
        return self._ask_at(node, j, Subquery.INCOMPLETE)

    def _ask_at(self, node, j, reason, scan=False):
        """Ask for what *node* lacks under item *j* (*scan*: an ID stub a
        ``//`` scan for item *j* meets) where the cold plan asks
        (:meth:`_climb`)."""
        anchor, k, gap = self._climb(node, j)
        if anchor is not node:
            return self._ask_below(anchor, k, reason, gap)
        if scan:
            return self._ask_below(node, j, reason, gap=True)
        return self._ask_residual(node, j, reason)

    def _climb(self, node, j):
        """``(anchor, k, gap)``: ask for items ``k:`` below *anchor*
        (``//`` below it: *gap*) for what *node*, the child being decided
        under item *j*, lacks.  The anchor climbs to its parent over each
        step with no id predicate while the parent's region holds nothing
        owned here (subquery chains must only descend), over a ``//``
        step with a gap, up to the node the scan started from; *anchor*
        is *node* when it does not climb."""
        anchor, i, k, gap = node, j, j, False  # climbing over item i next
        level = len(self._held)  # self._held[level - 1]: anchor.parent's
        while anchor.parent is not None:
            item = self.items[i]
            if item.has_id_predicates or self._owns_below(anchor.parent):
                break
            anchor, k, gap = anchor.parent, i, item.descendant
            level -= 1
            if not (gap and level and i in self._held[level - 1]):
                i -= 1
        return anchor, k, gap

    def _ask_residual(self, node, j, reason):
        """Ask for *node* under item *j*'s residual predicates, and for
        the items after *j* below it: the ask of a node no climb left."""
        text, anchor_path = self._render(node, _RESIDUAL, j)
        self.ask(Subquery(text, anchor_path, reason, consumed=j + 1))
        return _ASK

    def _ask_below(self, anchor, j, reason, gap=False):
        """Ask for items ``j:`` below *anchor* (``//`` below it: *gap*)."""
        text, anchor_path = self._render(anchor, _BELOW, j, gap)
        self.ask(Subquery(text, anchor_path, reason, consumed=j,
                          descendant_gap=gap))
        return _ASK

    def _render(self, anchor, kind, j=None, gap=False):
        """``(text, anchor_path)`` of the *kind* of ask at *anchor*,
        rendered once per walk: the site guard holds the fragment still
        meanwhile, so ``id(anchor)`` names one node throughout.  The
        text is the anchor's id path joined to the ask's tail, which
        the pattern keeps (:attr:`CompiledPattern.tails`)."""
        key = (id(anchor), kind, j, gap)
        rendered = self._rendered.get(key)
        if rendered is None:
            anchor_path = id_path_of(anchor)
            tails = self.pattern.tails
            tail = tails.get(key[1:])
            if tail is None:
                tail = tails[key[1:]] = self._tail(kind, j, gap)
            rendered = self._rendered[key] = (
                render_id_path_query(anchor_path) + tail, anchor_path)
        return rendered

    def _tail(self, kind, j, gap):
        """What the *kind* of ask for item *j* adds after its anchor's
        id path: item *j*'s residual predicates and the items after it
        (a residual ask), items ``j:`` (an ask below), or nothing."""
        if kind is _SUBTREE:
            return ""
        if kind is _BELOW:
            return render_residual_tail((), self.items[j:], gap)
        return render_residual_tail(self.items[j].residual_predicates,
                                    self.items[j + 1:])

    def _stale(self, item, node, anchor):
        """Whether the cached copy *node* (data of the IDable *anchor*)
        fails its step's freshness bound; a vouched-for copy is as fresh
        as its owner makes it, so never."""
        return item.consistency_check is not None \
            and anchor not in self.vouched \
            and not self.evaluate(item.consistency_check, node)

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
    def _collect_and_evaluate(self, node):
        """Fetch-subtree strategy at the collect point (Section 4): the
        data below *node* is judged, and fetched, at its element's lowest
        IDable ancestor-or-self, the smallest region an id path can name."""
        anchor = lowest_idable_ancestor_or_self(_element_of(node))
        if not subtree_materialized(anchor):
            self._ask_subtree(anchor, Subquery.NESTED_FETCH)
            return
        # All data below is local: the rest of the query, compiled once
        # per pattern, decides the results relative to this node.  Its
        # steps are child steps: it selects elements and text views.
        try:
            matches = self.pattern.residual(node, self.env)
        except XPathError:
            matches = []
        for match in matches if isinstance(matches, list) else []:
            self._include_result(match)
            self.stats["results_local"] += 1

    # ------------------------------------------------------------------
    def _include_result(self, match):
        """Include a final-step *match*'s answer region; record the match
        as a result unless part of its data is still missing here."""
        element = _element_of(match)
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
        if not missing or match is not element:
            self.matches.append(match)
        self.stats["results_local"] += 1

    def _ask_subtree(self, element, reason=Subquery.MISSING_SUBTREE):
        text, anchor_path = self._render(element, _SUBTREE)
        self.ask(Subquery(text, anchor_path, reason, subtree=True))


def _element_of(node):
    """*node*, or the element whose text the view *node* is."""
    return node if isinstance(node, Element) else node.parent


def run_qeg(db, pattern, now=None, observer=None, vouched=(), ships=True):
    """Run one QEG pass of *pattern* over the site database *db*.

    *now* is the query's clock reading for consistency predicates;
    *observer* (see :class:`repro.obs.explain.ExplainObserver`)
    receives every emitted subquery and per-IDable-node verdict --
    the EXPLAIN hook, ``None`` (free) outside explain runs;
    *vouched* holds the IDable elements whose cached data this gather
    got from a reply to an exact ask: no freshness bound makes them
    stale;
    *ships* false: the answer is never read, so the walk records none
    (``answer`` is ``None``) and only asks for what its matches lack.
    """
    if isinstance(pattern, str):
        pattern = compile_pattern(pattern)
    return _Walker(db, pattern, now, observer=observer,
                   vouched=vouched, ships=ships).run()

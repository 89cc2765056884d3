"""Canonical query keys.

Exact-string keys fragment a cache: two spellings of the same XPATH
miss each other entirely.  :func:`canonicalize` rewrites equivalent
queries to one normal form, the key of the compile memo
(:mod:`repro.core.qeg`): whitespace and quoting normalize in the
unparser, ``timestamp``/``now`` sugar becomes the canonical function
calls, redundant ``.`` steps are dropped, predicates within a step (pure
conjunctive filters in this dialect -- ``position()``/``last()`` are
rejected at parse time) sort deterministically, commutative operator
chains (``or``/``and``/``|``) flatten, dedupe and sort, and
comparisons are mirrored so only ``>``/``>=`` remain with the
context-reference operand on the left.  Every rewrite is
semantics-preserving (hypothesis-verified: the canonical query
evaluates identically to the original over random documents).  The
tightest freshness bound (``min_tolerance``) rides along: a rollup
serves its summaries against it (:mod:`repro.agg`).

The memo's counters (:func:`canonicalization_stats`) report through
the metrics registry's ``engine`` section.
"""

from repro.core.consistency import (
    consistency_tolerances,
    reads_as_sugar,
    rewrite_consistency_sugar,
    transform_expression,
)
from repro.core.lru import LRUCache
from repro.xpath import parser as xpath_parser
from repro.xpath.ast import (
    BinaryOperation,
    FilterExpression,
    Literal,
    LocationPath,
    NodeTypeTest,
    NumberLiteral,
    Step,
)

# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
#: Operators whose operand order does not affect the result in this
#: dialect (no side effects, unordered node-sets).
_COMMUTATIVE_CHAINS = ("or", "and", "|")
_MIRROR = {"<": ">", "<=": ">="}
_SYMMETRIC = ("=", "!=")


def _is_redundant_self(step):
    return (
        step.axis == "self"
        and isinstance(step.node_test, NodeTypeTest)
        and step.node_test.node_type == "node"
        and not step.predicates
    )


def _flatten_chain(expression, operator):
    if isinstance(expression, BinaryOperation) and \
            expression.operator == operator:
        yield from _flatten_chain(expression.left, operator)
        yield from _flatten_chain(expression.right, operator)
    else:
        yield expression


def _is_literal(expression):
    return isinstance(expression, (Literal, NumberLiteral))


def _ordered_predicates(predicates):
    """Deduplicate and deterministically order a step's predicates.

    Predicates in this dialect are pure conjunctive filters (each node
    is kept iff every predicate is truthy; ``position()``/``last()``
    are rejected at parse time), so reordering is semantics-preserving.
    The sort key is the canonical text, so any spelling of the same
    predicate set keys identically.
    """
    if len(predicates) < 2:
        return predicates
    seen = {}
    for predicate in predicates:
        seen.setdefault(predicate.unparse(), predicate)
    return [seen[text] for text in sorted(seen)]


def canonicalize_expression(expression):
    """Rewrite *expression* bottom-up into its canonical form.

    Semantics-preserving by construction; see the module docstring for
    the rewrite list.  The input tree is never mutated.
    """
    return transform_expression(rewrite_consistency_sugar(expression),
                                _canon)


def _canon(node):
    """The canonical form of *node*, whose children already are one."""
    if isinstance(node, LocationPath):
        steps = [Step(step.axis, step.node_test,
                      _ordered_predicates(step.predicates))
                 for step in node.steps]
        kept = [step for step in steps if not _is_redundant_self(step)]
        path = LocationPath(node.absolute, kept)
        if len(kept) < len(steps) and reads_as_sugar(path):
            # ``./timestamp`` is a child element; bare, it would re-read
            # as the consistency sugar's ``timestamp()``.
            return LocationPath(node.absolute,
                                [Step("self", NodeTypeTest("node")), *kept])
        return path
    if isinstance(node, FilterExpression):
        return FilterExpression(node.primary,
                                _ordered_predicates(node.predicates),
                                node.path)
    if isinstance(node, BinaryOperation):
        operator, left, right = node.operator, node.left, node.right
        if operator in _MIRROR:
            operator = _MIRROR[operator]
            left, right = right, left
        if operator in _SYMMETRIC:
            left, right = _order_symmetric(left, right)
        if operator in _COMMUTATIVE_CHAINS:
            operands = _ordered_predicates(list(_flatten_chain(
                BinaryOperation(operator, left, right), operator)))
            result = operands[0]
            for operand in operands[1:]:
                result = BinaryOperation(operator, result, operand)
            return result
        return BinaryOperation(operator, left, right)
    return node


def _order_symmetric(left, right):
    """Canonical operand order for ``=`` / ``!=``.

    The context-reference side goes left, the literal right (so
    ``'yes' = available`` normalizes to the conventional
    ``available = 'yes'``); two operands of the same kind order by
    canonical text.
    """
    left_literal = _is_literal(left)
    right_literal = _is_literal(right)
    if left_literal and not right_literal:
        return right, left
    if right_literal and not left_literal:
        return left, right
    if right.unparse() < left.unparse():
        return right, left
    return left, right


class CanonicalQuery:
    """One query's canonical identity.

    ``key`` is the exact canonical text -- safe wherever the key must
    mean *precisely* this query (the compile cache).  ``min_tolerance``
    is the tightest of its freshness bounds (see
    :func:`~repro.core.consistency.consistency_tolerances`), or ``None``
    without one.
    """

    __slots__ = ("source", "ast", "key", "min_tolerance")

    def __init__(self, source, ast, key, min_tolerance):
        self.source = source
        self.ast = ast
        self.key = key
        self.min_tolerance = min_tolerance

    def __repr__(self):
        return f"CanonicalQuery({self.key!r})"


#: Canonicalizations are pure functions of the source text: memoized
#: process-wide so the hot query path pays the tree rewrite once per
#: distinct spelling.
_CANON_CACHE = LRUCache(max_entries=1024)


def canonicalize(query):
    """Canonicalize *query* (a string or AST) into a :class:`CanonicalQuery`."""
    text = query if isinstance(query, str) else None
    if text is not None:
        cached = _CANON_CACHE.get(text)
        if cached is not None:
            return cached
        source = query
        ast = xpath_parser.parse_cached(query)
    else:
        ast = query
        source = ast.unparse()
    canonical_ast = canonicalize_expression(ast)
    _stripped, tolerances = consistency_tolerances(canonical_ast)
    result = CanonicalQuery(source, canonical_ast, canonical_ast.unparse(),
                            min(tolerances) if tolerances else None)
    if text is not None:
        _CANON_CACHE.put(text, result)
    return result


def canonical_key(query):
    """Shorthand: the exact canonical key of *query*."""
    return canonicalize(query).key


def canonicalization_stats():
    """Process-wide canonicalizer memo counters."""
    return dict(_CANON_CACHE.stats, entries=len(_CANON_CACHE))

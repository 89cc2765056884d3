"""Query-based consistency (Section 4 of the paper).

Queries may bound the staleness of the data used to answer them, per
element, with ordinary predicates over timestamps:

    /.../block[@id='1'][timestamp() > current-time() - 30]/parkingSpace

means "data for this block must be at most 30 seconds old".  The QEG
walker ignores such predicates at *owned* nodes (the owner is always
freshest -- so users always get an answer), honours them at *complete*
(cached) nodes, and falls back to asking the owner when a cached copy
is too stale.

The paper's figures write the sugar form ``[timestamp > now - 30]``;
:func:`rewrite_consistency_sugar` converts it to the canonical
function-call form.
"""

from repro.xpath.analysis import (
    REF_CONSISTENCY,
    classify_predicate,
    iter_conjuncts,
)
from repro.xpath.ast import (
    BinaryOperation,
    FilterExpression,
    FunctionCall,
    LocationPath,
    NameTest,
    NumberLiteral,
    Step,
    UnaryMinus,
)

_SUGAR_NAMES = {"timestamp": "timestamp", "now": "current-time"}


def transform_expression(expression, fn):
    """Rebuild an expression bottom-up, applying *fn* to every node.

    *fn* receives each rebuilt node and returns its replacement (or the
    node itself).  The input tree is never mutated.
    """
    rebuilt = _rebuild(expression, fn)
    return fn(rebuilt)


def _rebuild(expression, fn):
    recurse = lambda child: transform_expression(child, fn)  # noqa: E731
    if isinstance(expression, LocationPath):
        return LocationPath(
            expression.absolute,
            [_rebuild_step(step, fn) for step in expression.steps],
        )
    if isinstance(expression, FilterExpression):
        path = None
        if expression.path is not None:
            path = transform_expression(expression.path, fn)
        return FilterExpression(
            recurse(expression.primary),
            [recurse(p) for p in expression.predicates],
            path,
        )
    if isinstance(expression, BinaryOperation):
        return BinaryOperation(expression.operator,
                               recurse(expression.left),
                               recurse(expression.right))
    if isinstance(expression, UnaryMinus):
        return UnaryMinus(recurse(expression.operand))
    if isinstance(expression, FunctionCall):
        return FunctionCall(expression.name,
                            [recurse(a) for a in expression.arguments])
    # Literals, numbers, variables, name tests: immutable leaves.
    return expression


def _rebuild_step(step, fn):
    return Step(step.axis, step.node_test,
                [transform_expression(p, fn) for p in step.predicates])


# ----------------------------------------------------------------------
# Sugar
# ----------------------------------------------------------------------
def _is_bare_child_path(expression, name):
    return (
        isinstance(expression, LocationPath)
        and not expression.absolute
        and len(expression.steps) == 1
        and expression.steps[0].axis == "child"
        and isinstance(expression.steps[0].node_test, NameTest)
        and expression.steps[0].node_test.name == name
        and not expression.steps[0].predicates
    )


def rewrite_consistency_sugar(expression):
    """Rewrite ``timestamp``/``now`` sugar into canonical function calls.

    ``timestamp`` and ``now`` appearing as bare child paths inside a
    comparison become ``timestamp()`` and ``current-time()``.  Other
    uses (e.g. an element genuinely named ``timestamp`` addressed as
    ``./timestamp``) are untouched because the sugar applies only to
    single-step bare names in comparison operands.
    """

    def fix_operand(operand):
        for name, function in _SUGAR_NAMES.items():
            if _is_bare_child_path(operand, name):
                return FunctionCall(function, [])
        if isinstance(operand, BinaryOperation) and \
                operand.operator in ("+", "-"):
            return BinaryOperation(operand.operator,
                                   fix_operand(operand.left),
                                   fix_operand(operand.right))
        return operand

    def visit(node):
        if isinstance(node, BinaryOperation) and \
                node.operator in ("<", "<=", ">", ">=", "=", "!="):
            return BinaryOperation(node.operator,
                                   fix_operand(node.left),
                                   fix_operand(node.right))
        return node

    return transform_expression(expression, visit)


# ----------------------------------------------------------------------
# Stripping (for a fetched subtree, answer keys and oracles)
# ----------------------------------------------------------------------
def _is_consistency(conjunct):
    return classify_predicate(conjunct) == frozenset({REF_CONSISTENCY})


def _strip_conjuncts(expression, drop):
    """*expression* without the step-predicate conjuncts *drop* accepts."""

    def kept(predicate):
        conjuncts = [c for c in iter_conjuncts(predicate) if not drop(c)]
        if not conjuncts:
            return None
        rebuilt = conjuncts[0]
        for conjunct in conjuncts[1:]:
            rebuilt = BinaryOperation("and", rebuilt, conjunct)
        return rebuilt

    def visit(node):
        if isinstance(node, LocationPath):
            steps = []
            for step in node.steps:
                predicates = [kept(p) for p in step.predicates]
                steps.append(Step(step.axis, step.node_test,
                                  [p for p in predicates if p is not None]))
            return LocationPath(node.absolute, steps)
        return node

    return transform_expression(expression, visit)


def strip_consistency_predicates(expression):
    """Remove consistency predicates from every step of *expression*.

    Used below a fetch-subtree collect point, where the fetch settled
    freshness and owner-fetched data must not be re-filtered (the
    owner's copy is returned even when older than the tolerance, so
    that "users get an answer"), by an aggregation rollup over owned
    data, and by oracles comparing answers.
    """
    return _strip_conjuncts(expression, _is_consistency)


def has_consistency_predicates(expression):
    """Whether any predicate in the query constrains freshness."""
    from repro.xpath.ast import walk

    for node in walk(expression):
        if isinstance(node, (LocationPath, FilterExpression)):
            steps = node.steps if isinstance(node, LocationPath) else ()
            for step in steps:
                for predicate in step.predicates:
                    for conjunct in iter_conjuncts(predicate):
                        if _is_consistency(conjunct):
                            return True
    return False


def consistency_tolerances(expression):
    """Split the freshness bounds off *expression*: ``(rest, tolerances)``.

    Each step conjunct of the canonical shape
    ``timestamp() > current-time() - N`` is left out of *rest* and its
    ``N`` listed in *tolerances*, in document order.  Any other
    consistency conjunct stays in *rest*.
    """
    tolerances = []

    def drop(conjunct):
        seconds = extract_tolerance(conjunct)
        if seconds is None or not _is_consistency(conjunct):
            return False
        tolerances.append(seconds)
        return True

    return _strip_conjuncts(expression, drop), tolerances


def tolerance_predicate(seconds):
    """Build the canonical freshness predicate for *seconds* tolerance."""
    return BinaryOperation(
        ">",
        FunctionCall("timestamp", []),
        BinaryOperation("-", FunctionCall("current-time", []),
                        NumberLiteral(seconds)),
    )


def extract_tolerance(predicate):
    """The tolerance in seconds if *predicate* has the canonical shape.

    Recognizes ``timestamp() > current-time() - N`` (and the mirrored
    form); returns ``None`` otherwise.
    """
    if not isinstance(predicate, BinaryOperation):
        return None
    left, operator, right = predicate.left, predicate.operator, predicate.right
    if operator == "<" :
        left, right = right, left
        operator = ">"
    if operator != ">":
        return None
    if not (isinstance(left, FunctionCall) and left.name == "timestamp"):
        return None
    if (
        isinstance(right, BinaryOperation)
        and right.operator == "-"
        and isinstance(right.left, FunctionCall)
        and right.left.name == "current-time"
        and isinstance(right.right, NumberLiteral)
    ):
        return right.right.value
    return None

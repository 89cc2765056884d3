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
    rebuild = _REBUILD.get(type(expression))
    if rebuild is not None:  # literals, numbers, variables: leaves
        expression = rebuild(expression, fn)
    return fn(expression)


def _rebuild_all(nodes, fn):
    return [transform_expression(node, fn) for node in nodes]


#: How each inner node type is rebuilt over its transformed children
#: (a step is rebuilt with its path, and *fn* does not see it alone).
_REBUILD = {
    LocationPath: lambda node, fn: LocationPath(node.absolute, [
        Step(step.axis, step.node_test, _rebuild_all(step.predicates, fn))
        for step in node.steps]),
    FilterExpression: lambda node, fn: FilterExpression(
        transform_expression(node.primary, fn),
        _rebuild_all(node.predicates, fn),
        None if node.path is None else transform_expression(node.path, fn)),
    BinaryOperation: lambda node, fn: BinaryOperation(
        node.operator, transform_expression(node.left, fn),
        transform_expression(node.right, fn)),
    UnaryMinus: lambda node, fn: UnaryMinus(
        transform_expression(node.operand, fn)),
    FunctionCall: lambda node, fn: FunctionCall(
        node.name, _rebuild_all(node.arguments, fn)),
}


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


def reads_as_sugar(expression):
    """Whether *expression* is spelled as ``timestamp`` or ``now``
    alone, which a comparison reads as the sugar, not as a child."""
    return any(_is_bare_child_path(expression, name) for name in _SUGAR_NAMES)


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
# Stripping (for a fetched subtree, summary keys and oracles)
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
    that "users get an answer"), and by oracles comparing answers.
    """
    return _strip_conjuncts(expression, _is_consistency)


def consistency_tolerances(expression):
    """Split the freshness bounds off *expression*: ``(rest, tolerances)``.

    Each step conjunct of the canonical shape
    ``timestamp() > current-time() - N`` (or ``>=``, see
    :func:`extract_tolerance`) is left out of *rest* and its
    ``N`` listed in *tolerances*, in document order.  Any other
    consistency conjunct stays in *rest*: a summary key is *rest*, and
    no lookup bound checks such a conjunct.
    """
    tolerances = []

    def drop(conjunct):
        seconds = extract_tolerance(conjunct)
        if seconds is None or not _is_consistency(conjunct):
            return False
        tolerances.append(seconds)
        return True

    return _strip_conjuncts(expression, drop), tolerances


def extract_tolerance(predicate):
    """The tolerance in seconds if *predicate* has the canonical shape.

    Recognizes ``timestamp() > current-time() - N`` and
    ``timestamp() >= current-time() - N`` (and their mirrored forms);
    returns ``None`` otherwise.  A summary store serves either bound
    by its strict rule, which is conservative for ``>=``.
    """
    if not isinstance(predicate, BinaryOperation):
        return None
    left, operator, right = predicate.left, predicate.operator, predicate.right
    if operator in ("<", "<="):
        left, right, operator = right, left, operator.replace("<", ">")
    if operator not in (">", ">="):
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

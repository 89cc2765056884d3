"""Evaluation of XPath ASTs against the :mod:`repro.xmlkit` node model.

The evaluator implements the unordered fragment of XPath 1.0.  Node-
sets are returned as Python lists in a deterministic traversal order
(so ``string()`` of a node-set is stable), de-duplicated by node
identity.
"""

from repro.xmlkit.nodes import Document, Element, Text
from repro.xpath.analysis import pinned_ids
from repro.xpath.ast import (
    BinaryOperation,
    FilterExpression,
    FunctionCall,
    Literal,
    LocationPath,
    NameTest,
    NumberLiteral,
    UnaryMinus,
    VariableReference,
)
from repro.xpath.errors import XPathEvaluationError, XPathTypeError
from repro.xpath.functions import CORE_FUNCTIONS
from repro.xpath.types import (
    AttributeRef,
    compare,
    is_node_set,
    to_boolean,
    to_number,
)


class Context:
    """Evaluation context: a node plus variables, functions and a clock."""

    __slots__ = ("node", "variables", "functions", "now", "document")

    def __init__(self, node, variables=None, functions=None, now=None,
                 document=None):
        self.node = node
        self.variables = variables or {}
        self.functions = functions if functions is not None else CORE_FUNCTIONS
        self.now = now
        if document is None:
            document = _find_document(node)
        self.document = document

    def at(self, node):
        """A context positioned at *node* sharing this context's state."""
        return Context(node, self.variables, self.functions, self.now,
                       self.document)


def _find_document(node):
    if isinstance(node, Document):
        return node
    if isinstance(node, Element):
        return Document(node.root())
    if isinstance(node, Text) and node.parent is not None:
        return Document(node.parent.root())
    return None


def _identity(node):
    if isinstance(node, AttributeRef):
        return (id(node.owner), node.name)
    return id(node)


def _dedup(nodes):
    seen = set()
    out = []
    for node in nodes:
        key = _identity(node)
        if key not in seen:
            seen.add(key)
            out.append(node)
    return out


# ----------------------------------------------------------------------
# Axes
# ----------------------------------------------------------------------
def _axis_child(node):
    if isinstance(node, Document):
        return [node.root]
    if isinstance(node, Element):
        return list(node.children)
    return []


def _axis_descendant(node, include_self):
    out = []
    if include_self:
        out.append(node)
    stack = list(reversed(_axis_child(node)))
    while stack:
        current = stack.pop()
        out.append(current)
        if isinstance(current, Element):
            stack.extend(reversed(current.children))
    return out


def _axis_parent(node, document):
    if isinstance(node, Document):
        return []
    if isinstance(node, AttributeRef):
        return [node.owner]
    parent = node.parent
    if parent is not None:
        return [parent]
    if document is not None and isinstance(node, Element) \
            and node is document.root:
        return [document]
    return []


def _axis_ancestor(node, document, include_self):
    out = [node] if include_self else []
    current = node
    while True:
        parents = _axis_parent(current, document)
        if not parents:
            return out
        current = parents[0]
        out.append(current)


def _axis_attribute(node):
    if isinstance(node, Element):
        return [AttributeRef(node, name) for name in node.attrib]
    return []


# ----------------------------------------------------------------------
# Node tests
# ----------------------------------------------------------------------
def _apply_node_test(axis, node_test, candidates):
    if axis == "attribute":
        if isinstance(node_test, NameTest):
            if node_test.name == "*":
                return [c for c in candidates if isinstance(c, AttributeRef)]
            return [
                c for c in candidates
                if isinstance(c, AttributeRef) and c.name == node_test.name
            ]
        if node_test.node_type == "node":
            return [c for c in candidates if isinstance(c, AttributeRef)]
        return []
    if isinstance(node_test, NameTest):
        if node_test.name == "*":
            return [c for c in candidates if isinstance(c, Element)]
        return [
            c for c in candidates
            if isinstance(c, Element) and c.tag == node_test.name
        ]
    if node_test.node_type == "node":
        return list(candidates)
    if node_test.node_type == "text":
        return [c for c in candidates if isinstance(c, Text)]
    return []


class Evaluator:
    """Evaluates parsed XPath expressions.

    A single instance is stateless across calls and safe to share.
    Extension functions can be layered on top of the core library via
    the *functions* argument.
    """

    def __init__(self, functions=None):
        merged = dict(CORE_FUNCTIONS)
        if functions:
            merged.update(functions)
        self.functions = merged

    # -- public API ----------------------------------------------------
    def evaluate(self, expression, node, variables=None, now=None):
        """Evaluate *expression* with *node* as the context node."""
        context = Context(node, variables=variables, functions=self.functions,
                          now=now)
        return self._eval(expression, context)

    # -- dispatch ------------------------------------------------------
    def _eval(self, expression, context):
        if isinstance(expression, LocationPath):
            return self._eval_location_path(expression, context)
        if isinstance(expression, BinaryOperation):
            return self._eval_binary(expression, context)
        if isinstance(expression, FunctionCall):
            return self._eval_function(expression, context)
        if isinstance(expression, FilterExpression):
            return self._eval_filter(expression, context)
        if isinstance(expression, UnaryMinus):
            return -to_number(self._eval(expression.operand, context))
        if isinstance(expression, Literal):
            return expression.value
        if isinstance(expression, NumberLiteral):
            return expression.value
        if isinstance(expression, VariableReference):
            if expression.name not in context.variables:
                raise XPathEvaluationError(
                    f"unbound variable ${expression.name}"
                )
            return context.variables[expression.name]
        raise XPathEvaluationError(f"cannot evaluate {expression!r}")

    # -- location paths ------------------------------------------------
    def _eval_location_path(self, path, context):
        if path.absolute:
            if context.document is None:
                raise XPathEvaluationError(
                    "absolute path evaluated without a document root"
                )
            nodes = [context.document]
        else:
            nodes = [context.node]
        return self._eval_steps(path.steps, nodes, context)

    def _eval_steps(self, steps, nodes, context):
        for step in steps:
            nodes = self._eval_step(step, nodes, context)
        return nodes

    def _eval_step(self, step, nodes, context):
        gathered = []
        for node in nodes:
            gathered.extend(self._step_candidates(step, node, context))
        selected = _apply_node_test(step.axis, step.node_test, gathered)
        selected = _dedup(selected)
        for predicate in step.predicates:
            ids = pinned_ids((predicate,), exact=True)
            if ids is not None:
                # XPath's string ``=`` on the id attribute node, without
                # a context and an evaluation per candidate.
                selected = [node for node in selected
                            if isinstance(node, Element)
                            and node.attrib.get("id") in ids]
            else:
                selected = [
                    node for node in selected
                    if to_boolean(self._eval(predicate, context.at(node)))
                ]
        return selected

    def _step_candidates(self, step, node, context):
        axis = step.axis
        if axis == "child":
            return _axis_child(node)
        if axis == "attribute":
            return _axis_attribute(node)
        if axis == "self":
            return [node]
        if axis == "parent":
            return _axis_parent(node, context.document)
        if axis == "ancestor":
            return _axis_ancestor(node, context.document, include_self=False)
        if axis == "ancestor-or-self":
            return _axis_ancestor(node, context.document, include_self=True)
        if axis == "descendant":
            return _axis_descendant(node, include_self=False)
        if axis == "descendant-or-self":
            return _axis_descendant(node, include_self=True)
        raise XPathEvaluationError(f"unsupported axis {axis!r}")

    # -- other expression kinds -----------------------------------------
    def _eval_binary(self, expression, context):
        operator = expression.operator
        if operator == "or":
            return (
                to_boolean(self._eval(expression.left, context))
                or to_boolean(self._eval(expression.right, context))
            )
        if operator == "and":
            return (
                to_boolean(self._eval(expression.left, context))
                and to_boolean(self._eval(expression.right, context))
            )
        left = self._eval(expression.left, context)
        right = self._eval(expression.right, context)
        if operator in ("=", "!=", "<", "<=", ">", ">="):
            return compare(operator, left, right)
        if operator == "|":
            if not (is_node_set(left) and is_node_set(right)):
                raise XPathTypeError("operands of | must be node-sets")
            return _dedup(left + right)
        left_number = to_number(left)
        right_number = to_number(right)
        if operator == "+":
            return left_number + right_number
        if operator == "-":
            return left_number - right_number
        if operator == "*":
            return left_number * right_number
        if operator == "div":
            if right_number == 0:
                return float("nan") if left_number == 0 else \
                    float("inf") if left_number > 0 else float("-inf")
            return left_number / right_number
        if operator == "mod":
            if right_number == 0:
                return float("nan")
            # XPath mod truncates toward zero (like Java %), unlike
            # Python's floor-division remainder.
            result = abs(left_number) % abs(right_number)
            return result if left_number >= 0 else -result
        raise XPathEvaluationError(f"unknown operator {operator!r}")

    def _eval_function(self, expression, context):
        function = context.functions.get(expression.name)
        if function is None:
            raise XPathEvaluationError(f"unknown function {expression.name}()")
        arguments = [self._eval(a, context) for a in expression.arguments]
        return function(context, arguments)

    def _eval_filter(self, expression, context):
        value = self._eval(expression.primary, context)
        if expression.predicates and not is_node_set(value):
            raise XPathTypeError("predicates require a node-set")
        for predicate in expression.predicates:
            value = [
                node for node in value
                if to_boolean(self._eval(predicate, context.at(node)))
            ]
        if expression.path is not None:
            if not is_node_set(value):
                raise XPathTypeError("a path can only follow a node-set")
            value = self._eval_steps(expression.path.steps, value, context)
        return value


_DEFAULT_EVALUATOR = Evaluator()


def evaluate(expression, node, variables=None, now=None):
    """Module-level convenience wrapper around :class:`Evaluator`."""
    return _DEFAULT_EVALUATOR.evaluate(expression, node, variables=variables,
                                       now=now)

"""Compilation of XPath ASTs to Python closures over :mod:`repro.xmlkit`.

The evaluator implements the unordered fragment of XPath 1.0 as a
compiler: each AST node compiles, once, to a closure ``run(node, env)``
of the context node and an :class:`Environment` (variables, clock and
the document node, found lazily, by an absolute path only).  Type
dispatch, axis and node-test selection, exact id pins
(``pinned_ids(..., exact=True)``) and function lookup are decided at
compile time; running a compiled expression re-reads nothing of its
AST.  :meth:`Evaluator.evaluate` compiles and runs; a caller that
evaluates one expression again and again keeps its compiled form
(:func:`~repro.xpath.compiler.compile_xpath`, the QEG pattern items).

The compiler specialises the shapes the QEG walk decides at every
cached node: a one-step relative child or attribute path compared with
a string literal (``available = 'yes'``) reads the values off the node
without building a node list, ``timestamp()`` is the ancestor walk and
``current-time()`` reads ``now`` (Section 4's consistency predicates).

Node-sets are returned as Python lists in a deterministic traversal
order (so ``string()`` of a node-set is stable), de-duplicated by node
identity.  An element's text is a :class:`Text` view after its child
elements, identified by the element as an attribute is.
"""

import math
import operator
from types import MappingProxyType

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
from repro.xpath.functions import (
    CORE_FUNCTIONS,
    RETURN_KINDS,
    fn_current_time,
    fn_timestamp,
    timestamp_of,
)
from repro.xpath.types import (
    BOOLEAN,
    NODE_SET,
    NUMBER,
    STRING,
    AttributeRef,
    compare,
    node_string_value,
    to_boolean,
    to_number,
)

#: The kind of a value no compile-time reading can tell (a variable,
#: an extension function's result).
_ANY = "any"

_NO_VARIABLES = MappingProxyType({})

_COMPARATORS = {
    "=": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
}
#: ``a op b`` is ``b FLIPPED[op] a``.
_FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class Environment:
    """One evaluation's variables and clock, and the document node an
    absolute path found: one per tree, so ``/ | /`` stays one node."""

    __slots__ = ("variables", "now", "_document")

    def __init__(self, variables=None, now=None, document=None):
        self.variables = variables if variables is not None else _NO_VARIABLES
        self.now = now
        self._document = document

    def document(self, node):
        """The document node of the tree holding *node*."""
        if isinstance(node, Document):
            root = node.root
        elif isinstance(node, Element):
            root = node.root()
        elif isinstance(node, AttributeRef):
            root = node.owner.root()
        elif isinstance(node, Text) and node.parent is not None:
            root = node.parent.root()
        else:
            raise XPathEvaluationError(
                "absolute path evaluated without a document root")
        document = self._document
        if document is None or document.root is not root:
            document = self._document = \
                node if isinstance(node, Document) else Document(root)
        return document


class Context:
    """What a library function sees of its call (``fn(context,
    arguments)``): the context node and the clock."""

    __slots__ = ("node", "now")

    def __init__(self, node, now=None):
        self.node = node
        self.now = now


def _identity(node):
    if isinstance(node, AttributeRef):
        return (id(node.owner), node.name)
    if isinstance(node, Text) and node.parent is not None:
        return (id(node.parent),)
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
# Axes: ``axis(node, env) -> list``
# ----------------------------------------------------------------------
def _children(node):
    """*node*'s children: an element's child elements, then the view of
    its text (without text, its own list, not to be mutated)."""
    if isinstance(node, Element):
        if node.text is None:
            return node.children
        return [*node.children, Text(node.text, node)]
    if isinstance(node, Document):
        return [node.root]
    return []


def _parent(node, env):
    if isinstance(node, Element):
        parent = node.parent
        # The root element's parent is the document node.
        return parent if parent is not None else env.document(node)
    if isinstance(node, AttributeRef):
        return node.owner
    if isinstance(node, Text):
        return node.parent
    return None


def _ancestors(node, env, include_self):
    out = [node] if include_self else []
    node = _parent(node, env)
    while node is not None:
        out.append(node)
        node = _parent(node, env)
    return out


def _descendants(node, include_self):
    out = [node] if include_self else []
    stack = list(reversed(_children(node)))
    while stack:
        current = stack.pop()
        out.append(current)
        if isinstance(current, Element):
            if current.text is not None:
                stack.append(Text(current.text, current))
            stack.extend(reversed(current.children))
    return out


_AXES = {
    "child": lambda node, env: list(_children(node)),
    "self": lambda node, env: [node],
    "parent": lambda node, env:
        [] if (parent := _parent(node, env)) is None else [parent],
    "ancestor": lambda node, env: _ancestors(node, env, False),
    "ancestor-or-self": lambda node, env: _ancestors(node, env, True),
    "descendant": lambda node, env: _descendants(node, False),
    "descendant-or-self": lambda node, env: _descendants(node, True),
    "attribute": lambda node, env:
        [AttributeRef(node, name) for name in node.attrib]
        if isinstance(node, Element) else [],
}


def _node_test(axis, node_test):
    """``accepts(node) -> bool`` for *node_test* on *axis*, or ``None``
    when it accepts every candidate the axis yields."""
    if axis == "attribute":
        if isinstance(node_test, NameTest) and node_test.name != "*":
            name = node_test.name
            return lambda node: node.name == name
        if isinstance(node_test, NameTest) or node_test.node_type == "node":
            return None
        return lambda node: False
    if isinstance(node_test, NameTest):
        if node_test.name == "*":
            return lambda node: isinstance(node, Element)
        name = node_test.name
        return lambda node: isinstance(node, Element) and node.tag == name
    if node_test.node_type == "node":
        return None
    if node_test.node_type == "text":
        return lambda node: isinstance(node, Text)
    return lambda node: False


def _div(left, right):
    if right == 0:
        if left == 0 or math.isnan(left):
            return math.nan
        # IEEE 754: the zero's sign counts, so 1 div -0 is -Infinity.
        return math.copysign(math.inf, left) * math.copysign(1.0, right)
    return left / right


def _mod(left, right):
    if right == 0:
        return math.nan
    # XPath mod truncates toward zero (like Java %), unlike Python's
    # floor-division remainder.
    result = abs(left) % abs(right)
    return result if left >= 0 else -result


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "div": _div, "mod": _mod,
}


def _current_time(node, env):
    now = env.now
    if now is None:
        raise XPathEvaluationError(
            "current-time() used but no clock was supplied to the evaluator"
        )
    return float(now)


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
class _Compiler:
    """Compiles AST nodes to ``(run, kind)`` pairs: ``run(node, env)``
    and the XPath type it returns (``_ANY`` when only a run can tell)."""

    def __init__(self, functions):
        self.functions = functions

    def compile(self, expression):
        compiler = _COMPILERS.get(type(expression))
        if compiler is None:
            raise XPathEvaluationError(f"cannot evaluate {expression!r}")
        return compiler(self, expression)

    # -- conversions ---------------------------------------------------
    def boolean(self, expression):
        return _as_boolean(*self.compile(expression))

    def number(self, expression):
        return _as_number(*self.compile(expression))

    def predicate(self, expression):
        """``keep(node, env) -> bool``; an exact id pin is a set test."""
        ids = pinned_ids((expression,), exact=True)
        if ids is not None:
            return lambda node, env: isinstance(node, Element) \
                and node.attrib.get("id") in ids
        return self.boolean(expression)

    # -- location paths ------------------------------------------------
    def location_path(self, path):
        selects = [self.step(step) for step in path.steps]
        if path.absolute:
            def run(node, env):
                nodes = [env.document(node)]
                for select in selects:
                    nodes = _select_all(select, nodes, env)
                return nodes
        elif len(selects) == 1:
            run = selects[0]
        else:
            def run(node, env):
                nodes = [node]
                for select in selects:
                    nodes = _select_all(select, nodes, env)
                return nodes
        return run, NODE_SET

    def step(self, step):
        """``select(node, env) -> list``: *step* from one context node."""
        axis = _AXES.get(step.axis)
        if axis is None:
            raise XPathEvaluationError(f"unsupported axis {step.axis!r}")
        test = step.node_test
        if step.axis == "attribute" and isinstance(test, NameTest) \
                and test.name != "*":
            name = test.name

            def candidates(node, env):
                if isinstance(node, Element) and name in node.attrib:
                    return [AttributeRef(node, name)]
                return []
        else:
            accepts = _node_test(step.axis, test)
            if accepts is None:
                candidates = axis
            else:
                def candidates(node, env):
                    return [c for c in axis(node, env) if accepts(c)]
        keeps = [self.predicate(p) for p in step.predicates]
        if not keeps:
            return candidates
        if len(keeps) == 1:
            keep = keeps[0]
            return lambda node, env: [c for c in candidates(node, env)
                                      if keep(c, env)]

        def select(node, env):
            nodes = candidates(node, env)
            for keep in keeps:
                nodes = [c for c in nodes if keep(c, env)]
            return nodes
        return select

    # -- operators -----------------------------------------------------
    def binary(self, expression):
        operator_ = expression.operator
        if operator_ in ("or", "and"):
            left = self.boolean(expression.left)
            right = self.boolean(expression.right)
            if operator_ == "or":
                return (lambda node, env: left(node, env)
                        or right(node, env)), BOOLEAN
            return (lambda node, env: left(node, env)
                    and right(node, env)), BOOLEAN
        if operator_ in _COMPARATORS:
            return self.comparison(operator_, expression.left,
                                   expression.right), BOOLEAN
        if operator_ == "|":
            return self.union(expression.left, expression.right), NODE_SET
        apply = _ARITHMETIC.get(operator_)
        if apply is None:
            raise XPathEvaluationError(f"unknown operator {operator_!r}")
        left = self.number(expression.left)
        if isinstance(expression.right, NumberLiteral):
            constant = expression.right.value
            return (lambda node, env: apply(left(node, env), constant)), \
                NUMBER
        right = self.number(expression.right)
        return (lambda node, env: apply(left(node, env),
                                        right(node, env))), NUMBER

    def union(self, left_expression, right_expression):
        left = self.compile(left_expression)[0]
        right = self.compile(right_expression)[0]

        def union(node, env):
            first, second = left(node, env), right(node, env)
            if not (isinstance(first, list) and isinstance(second, list)):
                raise XPathTypeError("operands of | must be node-sets")
            return _dedup(first + second)
        return union

    def comparison(self, op, left_expression, right_expression):
        """``left op right`` per XPath 1.0 section 3.4, specialised on
        the operand kinds the compiler can read."""
        if isinstance(left_expression, Literal):
            op, left_expression, right_expression = \
                _FLIPPED[op], right_expression, left_expression
        if op in ("=", "!=") and isinstance(right_expression, Literal):
            test = _literal_test(left_expression, right_expression.value,
                                 op == "=")
            if test is not None:
                return test
        left, left_kind = self.compile(left_expression)
        right, right_kind = self.compile(right_expression)
        if _ANY in (left_kind, right_kind) or \
                left_kind is right_kind is NODE_SET:
            return lambda node, env: compare(op, left(node, env),
                                             right(node, env))
        if right_kind is NODE_SET:
            return _set_comparison(_FLIPPED[op], right, left, left_kind)
        if left_kind is NODE_SET:
            return _set_comparison(op, left, right, right_kind)
        test = _COMPARATORS[op]
        kinds = (left_kind, right_kind)
        if op in ("=", "!=") and BOOLEAN in kinds:
            left = _as_boolean(left, left_kind)
            right = _as_boolean(right, right_kind)
        elif op not in ("=", "!=") or NUMBER in kinds:
            left = _as_number(left, left_kind)
            right = _as_number(right, right_kind)
        # else: two strings, compared as they are.
        return lambda node, env: test(left(node, env), right(node, env))

    # -- other expression kinds ----------------------------------------
    def function_call(self, expression):
        name = expression.name
        function = self.functions.get(name)
        if function is None:
            def unknown(node, env):
                raise XPathEvaluationError(f"unknown function {name}()")
            return unknown, _ANY
        if not expression.arguments:
            if function is fn_current_time:
                return _current_time, NUMBER
            if function is fn_timestamp:
                return (lambda node, env: timestamp_of(node)), NUMBER
        arguments = [self.compile(a)[0] for a in expression.arguments]

        def call(node, env):
            return function(Context(node, env.now),
                            [argument(node, env) for argument in arguments])
        return call, RETURN_KINDS.get(function, _ANY)

    def filter_expression(self, expression):
        primary, kind = self.compile(expression.primary)
        keeps = [self.predicate(p) for p in expression.predicates]
        path = expression.path
        selects = [self.step(step) for step in path.steps] \
            if path is not None else []
        if not keeps and not selects:
            return primary, kind

        def run(node, env):
            value = primary(node, env)
            if not isinstance(value, list):
                raise XPathTypeError(
                    "predicates require a node-set" if keeps
                    else "a path can only follow a node-set")
            for keep in keeps:
                value = [n for n in value if keep(n, env)]
            for select in selects:
                value = _select_all(select, value, env)
            return value
        return run, NODE_SET

    def unary_minus(self, expression):
        operand = self.number(expression.operand)
        return (lambda node, env: -operand(node, env)), NUMBER

    def constant(self, expression):
        value = expression.value
        kind = STRING if isinstance(expression, Literal) else NUMBER
        return (lambda node, env: value), kind

    def variable(self, expression):
        name = expression.name

        def variable(node, env):
            try:
                return env.variables[name]
            except KeyError:
                raise XPathEvaluationError(
                    f"unbound variable ${name}") from None
        return variable, _ANY


_COMPILERS = {
    LocationPath: _Compiler.location_path,
    BinaryOperation: _Compiler.binary,
    FunctionCall: _Compiler.function_call,
    FilterExpression: _Compiler.filter_expression,
    UnaryMinus: _Compiler.unary_minus,
    Literal: _Compiler.constant,
    NumberLiteral: _Compiler.constant,
    VariableReference: _Compiler.variable,
}


def _as_boolean(run, kind):
    if kind is BOOLEAN:
        return run
    if kind is NODE_SET or kind is STRING:
        return lambda node, env: bool(run(node, env))
    return lambda node, env: to_boolean(run(node, env))


def _as_number(run, kind):
    if kind is NUMBER:
        return run
    return lambda node, env: to_number(run(node, env))


def _set_comparison(op, run, other, other_kind):
    """``node-set op other`` for an *other* of a known atomic kind: true
    when some node's string-value compares true (spec 3.4)."""
    test = _COMPARATORS[op]
    if other_kind is BOOLEAN and op in ("=", "!="):
        # A node-set compared with a boolean is itself converted to a
        # boolean, not compared per-node.
        return lambda node, env: test(bool(run(node, env)),
                                      other(node, env))
    if op in ("=", "!=") and other_kind is STRING:
        def compares(node, env):
            value = other(node, env)
            return any(test(node_string_value(n), value)
                       for n in run(node, env))
        return compares
    other = _as_number(other, other_kind)

    def compares(node, env):
        value = other(node, env)
        return any(test(to_number(node_string_value(n)), value)
                   for n in run(node, env))
    return compares


def _select_all(select, nodes, env):
    """*select* from each of *nodes*, in order, without duplicates."""
    if len(nodes) == 1:
        return select(nodes[0], env)
    gathered = []
    for node in nodes:
        gathered.extend(select(node, env))
    return _dedup(gathered)


def _literal_test(expression, literal, equal):
    """``expression = literal`` (``!=`` unless *equal*) when *expression*
    is a relative path of one named child or attribute step, read off
    the context node directly: the walk's value predicates
    (``available = 'yes'``, ``@zone = 'a'``) loop over the children's
    string-values, no node list, no generator.  ``None`` for any other
    *expression*."""
    if not (isinstance(expression, LocationPath) and not expression.absolute
            and len(expression.steps) == 1):
        return None
    step = expression.steps[0]
    if step.predicates or not isinstance(step.node_test, NameTest) \
            or step.node_test.name == "*":
        return None
    name = step.node_test.name
    if step.axis == "attribute":
        def attribute_test(node, env):
            if isinstance(node, Element):
                value = node.attrib.get(name)
                return value is not None and (value == literal) is equal
            return False
        return attribute_test
    if step.axis != "child":
        return None

    def child_test(node, env):
        children = node.children if isinstance(node, Element) \
            else _children(node)
        for child in children:
            if child.tag == name and \
                    (child.string_value() == literal) is equal:
                return True
        return False
    return child_test


def compile_expression(expression):
    """*expression* compiled to ``run(node, env)`` (*env* an
    :class:`Environment`) over the core function library."""
    return _Compiler(CORE_FUNCTIONS).compile(expression)[0]


def compile_predicates(predicates):
    """``check(node, env) -> bool``: *predicates*, conjoined, as a step
    decides them (``None`` for no predicates).  Like any compiled form,
    a check raises :class:`~repro.xpath.errors.XPathError` where the
    evaluation does."""
    if not predicates:
        return None
    compiler = _Compiler(CORE_FUNCTIONS)
    keeps = [compiler.predicate(p) for p in predicates]
    if len(keeps) == 1:
        return keeps[0]
    return lambda node, env: all(keep(node, env) for keep in keeps)


def run_compiled(run, node, variables=None, now=None):
    """Run a compiled expression with *node* as the context node."""
    document = node if isinstance(node, Document) else None
    return run(node, Environment(variables, now, document))


class Evaluator:
    """Evaluates parsed XPath expressions by compiling them.

    A single instance is stateless across calls and safe to share.
    Extension functions can be layered on top of the core library via
    the *functions* argument.
    """

    def __init__(self, functions=None):
        merged = dict(CORE_FUNCTIONS)
        if functions:
            merged.update(functions)
        self.functions = merged

    def compile(self, expression):
        """*expression* compiled to ``run(node, env)`` over this
        evaluator's function library."""
        return _Compiler(self.functions).compile(expression)[0]

    def evaluate(self, expression, node, variables=None, now=None):
        """Evaluate *expression* with *node* as the context node."""
        return run_compiled(self.compile(expression), node,
                            variables=variables, now=now)


_DEFAULT_EVALUATOR = Evaluator()


def evaluate(expression, node, variables=None, now=None):
    """Module-level convenience wrapper around :class:`Evaluator`."""
    return _DEFAULT_EVALUATOR.evaluate(expression, node, variables=variables,
                                       now=now)

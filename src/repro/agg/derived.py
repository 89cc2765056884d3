"""Derived sensors: formula-defined virtual readings.

A derived sensor is an ordinary IDable node in the document whose
``value`` element is maintained by the aggregation manager instead of
a physical device: its *formula* is an XPath arithmetic expression
over aggregate calls, e.g. ::

    avg(/region[@id='R']/group[@id='g0']/sensor/value) - 2.5

The formula compiles through the ordinary XPath parser; dependency
extraction walks the compiled tree and collects each aggregate's
IDable anchor -- the input regions.  The manager subscribes a
:mod:`repro.net.continuous` query on every region, so whenever covered
data changes the sensor re-evaluates (each aggregate resolved through
:meth:`OrganizingAgent.answer_scalar` with a zero freshness bound, so
over current data) and writes its value back like any physical update -- making derived
sensors queryable, cacheable and replicable exactly like the real
ones.

The allowed grammar is deliberately small and total: number literals,
unary minus, ``+ - * div mod``, and ``count/sum/avg/min/max`` over an
absolute anchored path.  Anything else is rejected at registration,
not at refresh time.
"""

from repro.core.errors import CoreError
from repro.core.subquery import render_id_path_query
from repro.xpath import parser as xpath_parser
from repro.xpath.analysis import extract_id_path
from repro.xpath.ast import (
    BinaryOperation,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    UnaryMinus,
)
from repro.xpath.evaluator import _ARITHMETIC
from repro.xpath.types import format_number

from repro.agg.partial import SHAPES

_OPERATORS = ("+", "-", "*", "div", "mod")


class FormulaError(CoreError):
    """The formula is outside the derived-sensor grammar."""


def compile_formula(formula):
    """Parse and validate *formula*; returns ``(ast, anchors)``.

    *anchors* are the distinct IDable region paths the formula's
    aggregates read -- the sensor's dependency set, in first-seen
    order.
    """
    try:
        ast = xpath_parser.parse(formula)
    except Exception as exc:
        raise FormulaError(f"cannot parse formula {formula!r}: {exc}") \
            from exc
    anchors = []
    _validate(ast, anchors, formula)
    if not anchors:
        raise FormulaError(
            f"formula {formula!r} reads no sensor data (no aggregate "
            "call); a constant is not a derived sensor")
    return ast, anchors


def _validate(node, anchors, formula):
    if isinstance(node, NumberLiteral):
        return
    if isinstance(node, UnaryMinus):
        _validate(node.operand, anchors, formula)
        return
    if isinstance(node, BinaryOperation) and node.operator in _OPERATORS:
        _validate(node.left, anchors, formula)
        _validate(node.right, anchors, formula)
        return
    if isinstance(node, FunctionCall) and node.name in SHAPES:
        if len(node.arguments) != 1 or \
                not isinstance(node.arguments[0], LocationPath) or \
                not node.arguments[0].absolute:
            raise FormulaError(
                f"{node.name}() in {formula!r} needs exactly one "
                "absolute location-path argument")
        anchor = tuple(tuple(entry) for entry
                       in extract_id_path(node.arguments[0]))
        if not anchor:
            raise FormulaError(
                f"{node.name}() in {formula!r} must pin an IDable "
                "anchor (e.g. /region[@id='R']/...)")
        if anchor not in anchors:
            anchors.append(anchor)
        return
    raise FormulaError(
        f"unsupported construct {type(node).__name__} in {formula!r}; "
        f"allowed: literals, - {' '.join(_OPERATORS)}, "
        f"{'/'.join(SHAPES)}(path)")


class DerivedSensor:
    """One registered formula sensor (state lives on its owner's OA)."""

    def __init__(self, identifier, node_path, formula):
        self.identifier = identifier
        self.node_path = tuple(tuple(entry) for entry in node_path)
        self.formula = formula
        self.ast, self.anchors = compile_formula(formula)
        self.subscriptions = []
        self.last_value = None
        self._refreshing = False

    def dependency_queries(self):
        """One region-subtree query per dependency anchor."""
        return [render_id_path_query(anchor) for anchor in self.anchors]

    # -- reentrancy guard ----------------------------------------------
    # The write-back fires continuous subscriptions that may cover the
    # sensor's own region; the nested refresh must be absorbed, not
    # recursed into.
    def begin_refresh(self):
        if self._refreshing:
            return False
        self._refreshing = True
        return True

    def end_refresh(self):
        self._refreshing = False

    # -- evaluation ----------------------------------------------------
    def evaluate(self, answer_scalar):
        """The formula's current value; *answer_scalar* resolves one
        aggregate call (given its :class:`FunctionCall`) to a float."""
        return self._eval(self.ast, answer_scalar)

    def _eval(self, node, answer_scalar):
        if isinstance(node, NumberLiteral):
            return float(node.value)
        if isinstance(node, UnaryMinus):
            return -self._eval(node.operand, answer_scalar)
        if isinstance(node, BinaryOperation):
            return _ARITHMETIC[node.operator](
                self._eval(node.left, answer_scalar),
                self._eval(node.right, answer_scalar))
        return float(answer_scalar(node))

    def render(self, value):
        """The value's document spelling (XPath number formatting)."""
        return format_number(float(value))

    def __repr__(self):
        return (f"DerivedSensor({self.identifier!r}, "
                f"deps={len(self.anchors)}, last={self.last_value!r})")

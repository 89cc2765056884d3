"""The XPath 1.0 value model: node-sets, booleans, numbers, strings.

Implements the type-conversion and comparison rules of XPath 1.0
sections 3.4 and 3.5, including the existential semantics of
comparisons involving node-sets.
"""

import decimal
import math
import re

from repro.xmlkit.nodes import Document, Element, Text
from repro.xpath.errors import XPathTypeError

#: The four XPath value types, as the compiler names them.
NODE_SET = "node-set"
BOOLEAN = "boolean"
NUMBER = "number"
STRING = "string"

#: XPath 1.0's Number production (section 3.7) with an optional minus,
#: between XML whitespace (section 4.4): no exponent, no sign but ``-``,
#: no ``inf``/``nan`` spelling, no ``_`` separators, ASCII digits only.
_NUMBER = re.compile(
    r"[ \t\r\n]*(-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))[ \t\r\n]*")


class AttributeRef:
    """An attribute node: an (owner element, name) pair.

    XPath treats attributes as first-class nodes (``@id`` returns a
    node-set); the element model stores attributes in a dict, so the
    evaluator wraps them in this reference type.
    """

    __slots__ = ("owner", "name")

    def __init__(self, owner, name):
        self.owner = owner
        self.name = name

    @property
    def value(self):
        return self.owner.attrib[self.name]

    def string_value(self):
        return self.value

    def __repr__(self):
        return f"AttributeRef({self.owner.tag}/@{self.name}={self.value!r})"

    def __eq__(self, other):
        return (
            isinstance(other, AttributeRef)
            and self.owner is other.owner
            and self.name == other.name
        )

    def __hash__(self):
        return hash((id(self.owner), self.name))


def node_string_value(node):
    """The XPath string-value of any node kind."""
    if isinstance(node, Element):
        return node.string_value()
    if isinstance(node, Text):
        return node.value
    if isinstance(node, AttributeRef):
        return node.value
    if isinstance(node, Document):
        return node.root.string_value()
    raise XPathTypeError(f"not a node: {node!r}")


def is_node_set(value):
    return isinstance(value, list)


def to_boolean(value):
    """The boolean() conversion."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value != 0 and not math.isnan(value)
    if isinstance(value, str):
        return len(value) > 0
    if is_node_set(value):
        return len(value) > 0
    raise XPathTypeError(f"cannot convert {type(value).__name__} to boolean")


def to_number(value):
    """The number() conversion.  A string that is not an optional minus
    and a Number between whitespace becomes NaN (section 4.4)."""
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        match = _NUMBER.fullmatch(value)
        return float(match.group(1)) if match else math.nan
    if is_node_set(value):
        return to_number(to_string(value))
    raise XPathTypeError(f"cannot convert {type(value).__name__} to number")


def format_number(value):
    """The XPath string form of a number."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value):
        return str(int(value))
    text = repr(value)
    if "e" in text:
        # Decimal form, never an exponent (section 4.2): the digits of
        # the shortest repr, so to_number reads the same float back.
        text = format(decimal.Decimal(text), "f")
    return text


def to_string(value):
    """The string() conversion.

    For a node-set this is the string-value of the first node in the
    set (empty string for an empty set).  Our documents are unordered,
    but the evaluator produces node-sets in a deterministic traversal
    order, so the result is stable.
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, str):
        return value
    if is_node_set(value):
        if not value:
            return ""
        return node_string_value(value[0])
    raise XPathTypeError(f"cannot convert {type(value).__name__} to string")


def _compare_atomic(operator, left, right):
    if operator == "=":
        return left == right
    if operator == "!=":
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise XPathTypeError(f"unknown comparison operator {operator!r}")


def _atomic_equal(left, right):
    """Equality of two non-node-set values per XPath rules."""
    if isinstance(left, bool) or isinstance(right, bool):
        return to_boolean(left) == to_boolean(right)
    if isinstance(left, float) or isinstance(right, float):
        return to_number(left) == to_number(right)
    return to_string(left) == to_string(right)


def compare(operator, left, right):
    """Evaluate ``left <operator> right`` per XPath 1.0 section 3.4.

    Comparisons involving node-sets are existential: the result is true
    if *some* pair of values drawn from the operands satisfies the
    comparison.
    """
    left_is_set = is_node_set(left)
    right_is_set = is_node_set(right)

    if left_is_set and right_is_set:
        left_values = [node_string_value(n) for n in left]
        right_values = [node_string_value(n) for n in right]
        if operator in ("=", "!="):
            return any(
                _compare_atomic(operator, lv, rv)
                for lv in left_values
                for rv in right_values
            )
        return any(
            _compare_atomic(operator, to_number(lv), to_number(rv))
            for lv in left_values
            for rv in right_values
        )

    if left_is_set or right_is_set:
        node_set, other = (left, right) if left_is_set else (right, left)
        flipped = not left_is_set
        if isinstance(other, bool) and operator in ("=", "!="):
            # A node-set compared with a boolean is itself converted to
            # a boolean (spec 3.4), not compared per-node.
            return _compare_atomic(operator, to_boolean(node_set), other)
        results = []
        for node in node_set:
            value = node_string_value(node)
            if operator in ("=", "!=") and not isinstance(other, float):
                paired = (value, to_string(other))
            else:
                paired = (to_number(value), to_number(other))
            lv, rv = paired if not flipped else (paired[1], paired[0])
            results.append(_compare_atomic(operator, lv, rv))
        return any(results)

    if operator in ("=", "!="):
        equal = _atomic_equal(left, right)
        return equal if operator == "=" else not equal
    return _compare_atomic(operator, to_number(left), to_number(right))

"""The XPath 1.0 core function library (unordered fragment).

``position()`` and ``last()`` are rejected at parse time; everything
else in the core library that is meaningful for unordered, namespace-
free documents is provided here.

Two extension functions support the paper's query-based consistency
(Section 4): ``current-time()`` returns the evaluation context's clock
reading, and ``timestamp(node-set?)`` returns the ``timestamp``
attribute of a node as a number.
"""

import math

from repro.xmlkit.nodes import Document, Element, Text
from repro.xpath.errors import XPathEvaluationError, XPathTypeError
from repro.xpath.types import (
    BOOLEAN,
    NUMBER,
    STRING,
    AttributeRef,
    is_node_set,
    node_string_value,
    to_boolean,
    to_number,
    to_string,
)


def _require_arity(name, arguments, low, high=None):
    high = low if high is None else high
    if not (low <= len(arguments) <= high):
        expected = str(low) if low == high else f"{low}..{high}"
        raise XPathEvaluationError(
            f"{name}() expects {expected} argument(s), got {len(arguments)}"
        )


def _node_set_argument(name, value):
    if not is_node_set(value):
        raise XPathTypeError(f"{name}() requires a node-set argument")
    return value


# ----------------------------------------------------------------------
# Node-set functions
# ----------------------------------------------------------------------
def fn_count(context, arguments):
    _require_arity("count", arguments, 1)
    return float(len(_node_set_argument("count", arguments[0])))


def _node_name(node):
    if isinstance(node, Element):
        return node.tag
    if isinstance(node, AttributeRef):
        return node.name
    return ""


def fn_name(context, arguments):
    _require_arity("name", arguments, 0, 1)
    if arguments:
        node_set = _node_set_argument("name", arguments[0])
        if not node_set:
            return ""
        return _node_name(node_set[0])
    return _node_name(context.node)


def fn_local_name(context, arguments):
    # No namespaces in this system: identical to name().
    return fn_name(context, arguments)


# ----------------------------------------------------------------------
# String functions
# ----------------------------------------------------------------------
def fn_string(context, arguments):
    _require_arity("string", arguments, 0, 1)
    if arguments:
        return to_string(arguments[0])
    return node_string_value(context.node)


def fn_concat(context, arguments):
    if len(arguments) < 2:
        raise XPathEvaluationError("concat() expects at least 2 arguments")
    return "".join(to_string(a) for a in arguments)


def fn_starts_with(context, arguments):
    _require_arity("starts-with", arguments, 2)
    return to_string(arguments[0]).startswith(to_string(arguments[1]))


def fn_contains(context, arguments):
    _require_arity("contains", arguments, 2)
    return to_string(arguments[1]) in to_string(arguments[0])


def fn_substring_before(context, arguments):
    _require_arity("substring-before", arguments, 2)
    haystack = to_string(arguments[0])
    needle = to_string(arguments[1])
    index = haystack.find(needle)
    return haystack[:index] if index >= 0 else ""


def fn_substring_after(context, arguments):
    _require_arity("substring-after", arguments, 2)
    haystack = to_string(arguments[0])
    needle = to_string(arguments[1])
    index = haystack.find(needle)
    return haystack[index + len(needle):] if index >= 0 else ""


def fn_substring(context, arguments):
    _require_arity("substring", arguments, 2, 3)
    text = to_string(arguments[0])
    start = to_number(arguments[1])
    if math.isnan(start):
        return ""
    start = round(start)
    if len(arguments) == 3:
        length = to_number(arguments[2])
        if math.isnan(length):
            return ""
        end = start + round(length)
    else:
        end = math.inf
    # XPath positions are 1-based; round() semantics per the spec.
    chars = []
    for position, ch in enumerate(text, start=1):
        if position >= start and position < end:
            chars.append(ch)
    return "".join(chars)


def fn_string_length(context, arguments):
    _require_arity("string-length", arguments, 0, 1)
    if arguments:
        return float(len(to_string(arguments[0])))
    return float(len(node_string_value(context.node)))


def fn_normalize_space(context, arguments):
    _require_arity("normalize-space", arguments, 0, 1)
    if arguments:
        text = to_string(arguments[0])
    else:
        text = node_string_value(context.node)
    return " ".join(text.split())


def fn_translate(context, arguments):
    _require_arity("translate", arguments, 3)
    text = to_string(arguments[0])
    source = to_string(arguments[1])
    target = to_string(arguments[2])
    mapping = {}
    for index, ch in enumerate(source):
        if ch not in mapping:
            mapping[ch] = target[index] if index < len(target) else None
    out = []
    for ch in text:
        if ch in mapping:
            replacement = mapping[ch]
            if replacement is not None:
                out.append(replacement)
        else:
            out.append(ch)
    return "".join(out)


# ----------------------------------------------------------------------
# Boolean functions
# ----------------------------------------------------------------------
def fn_boolean(context, arguments):
    _require_arity("boolean", arguments, 1)
    return to_boolean(arguments[0])


def fn_not(context, arguments):
    _require_arity("not", arguments, 1)
    return not to_boolean(arguments[0])


def fn_true(context, arguments):
    _require_arity("true", arguments, 0)
    return True


def fn_false(context, arguments):
    _require_arity("false", arguments, 0)
    return False


# ----------------------------------------------------------------------
# Number functions
# ----------------------------------------------------------------------
def fn_number(context, arguments):
    _require_arity("number", arguments, 0, 1)
    if arguments:
        return to_number(arguments[0])
    return to_number(node_string_value(context.node))


def fn_sum(context, arguments):
    _require_arity("sum", arguments, 1)
    node_set = _node_set_argument("sum", arguments[0])
    values = [to_number(node_string_value(n)) for n in node_set]
    # fsum is correctly rounded: the answer does not depend on document
    # order, and it agrees bit-for-bit with the hierarchical rollup's
    # exact-rational sum.  fsum raises where IEEE accumulation is the
    # wanted semantics (mixed infinities -> NaN, true overflow -> inf).
    try:
        return float(math.fsum(values))
    except (OverflowError, ValueError):
        return float(sum(values))


def fn_floor(context, arguments):
    _require_arity("floor", arguments, 1)
    value = to_number(arguments[0])
    return value if math.isnan(value) else float(math.floor(value))


def fn_ceiling(context, arguments):
    _require_arity("ceiling", arguments, 1)
    value = to_number(arguments[0])
    return value if math.isnan(value) else float(math.ceil(value))


def fn_round(context, arguments):
    _require_arity("round", arguments, 1)
    value = to_number(arguments[0])
    if math.isnan(value) or math.isinf(value):
        return value
    return float(math.floor(value + 0.5))  # XPath rounds .5 up


# ----------------------------------------------------------------------
# Extension functions for query-based consistency
# ----------------------------------------------------------------------
def fn_current_time(context, arguments):
    """The evaluation context's clock reading, in seconds.

    The paper's consistency predicates are phrased against "now"
    according to the querying site's clock; evaluation contexts carry a
    ``now`` value so results are deterministic and testable.
    """
    _require_arity("current-time", arguments, 0)
    if context.now is None:
        raise XPathEvaluationError(
            "current-time() used but no clock was supplied to the evaluator"
        )
    return float(context.now)


def fn_timestamp(context, arguments):
    """The ``timestamp`` of a node, as a number.

    With no argument, applies to the context node.  A node without its
    own ``timestamp`` attribute inherits the nearest ancestor's: data
    is timestamped at IDable-node granularity, so the value inside
    (say) an ``available`` element is the enclosing parking space's.
    Returns NaN when no ancestor carries a timestamp either.
    """
    _require_arity("timestamp", arguments, 0, 1)
    if arguments:
        node_set = _node_set_argument("timestamp", arguments[0])
        if not node_set:
            return math.nan
        node = node_set[0]
    else:
        node = context.node
    return timestamp_of(node)


def timestamp_of(node):
    """``timestamp()`` at *node*: the nearest ``timestamp`` attribute on
    it or an ancestor, NaN for none.  The system writes it
    (``repr(float)``, which may read ``1e-05``), so it is read as
    :func:`repro.core.status.get_timestamp` reads it, by ``float()``,
    not by XPath's ``number()``; a value ``float()`` refuses is NaN."""
    if isinstance(node, Document):
        node = node.root
    elif isinstance(node, Text):
        node = node.parent
    elif isinstance(node, AttributeRef):
        node = node.owner
    while isinstance(node, Element):
        value = node.attrib.get("timestamp")
        if value is not None:
            try:
                return float(value)
            except ValueError:
                return math.nan
        node = node.parent
    return math.nan


CORE_FUNCTIONS = {
    "count": fn_count,
    "name": fn_name,
    "local-name": fn_local_name,
    "string": fn_string,
    "concat": fn_concat,
    "starts-with": fn_starts_with,
    "contains": fn_contains,
    "substring-before": fn_substring_before,
    "substring-after": fn_substring_after,
    "substring": fn_substring,
    "string-length": fn_string_length,
    "normalize-space": fn_normalize_space,
    "translate": fn_translate,
    "boolean": fn_boolean,
    "not": fn_not,
    "true": fn_true,
    "false": fn_false,
    "number": fn_number,
    "sum": fn_sum,
    "floor": fn_floor,
    "ceiling": fn_ceiling,
    "round": fn_round,
    "current-time": fn_current_time,
    "timestamp": fn_timestamp,
}

#: The XPath type each core function returns, read by the compiler.
RETURN_KINDS = {
    **dict.fromkeys((fn_name, fn_local_name, fn_string, fn_concat,
                     fn_substring_before, fn_substring_after, fn_substring,
                     fn_normalize_space, fn_translate), STRING),
    **dict.fromkeys((fn_starts_with, fn_contains, fn_boolean, fn_not,
                     fn_true, fn_false), BOOLEAN),
    **dict.fromkeys((fn_count, fn_string_length, fn_number, fn_sum,
                     fn_floor, fn_ceiling, fn_round, fn_current_time,
                     fn_timestamp), NUMBER),
}

"""Query analysis passes used by the distributed query processor.

These implement the paper's static analyses of an XPATH query:

* **ID-path extraction** (Section 3.4): the longest prefix of
  ``/elementname[@id=x]`` steps, from which the DNS-style name of the
  query's lowest common ancestor (LCA) is built -- with *no* global
  information and no schema knowledge.
* **Nesting depth** (Definition 3.3): the maximum predicate-nesting
  level at which a location path traversing IDable nodes occurs.
* **Predicate splitting** (Section 3.5 / 4): dividing a step's
  predicate set ``P`` into ``P_id`` (predicates only on ``@id``),
  ``P_consistency`` (freshness predicates on timestamps) and
  ``P_rest``, with a *separable* flag when the division is not
  straightforward and QEG must conservatively ask a subquery.
"""

from repro.xpath.ast import (
    BinaryOperation,
    FilterExpression,
    FunctionCall,
    Literal,
    LocationPath,
    NameTest,
    NodeTypeTest,
    NumberLiteral,
    Step,
    VariableReference,
)
from repro.xpath.errors import XPathError

# Reference categories for predicate classification.
REF_ID = "id"
REF_CONSISTENCY = "consistency"
REF_OTHER = "other"

_CONSISTENCY_FUNCTIONS = {"timestamp", "current-time"}


# ----------------------------------------------------------------------
# ID-path extraction
# ----------------------------------------------------------------------
def pinned_ids(predicates, exact=False):
    """The ``@id`` values *predicates* pin an element to, or ``None``.

    *predicates* are conjoined, as a step's are.  A conjunct of their
    ``and`` chains pins when it is ``@id = 'literal'`` (either order)
    or an ``or`` of nothing but such tests; the result intersects what
    the pinning conjuncts allow.  Any other conjunct (``!=``, ``not()``,
    a number, a mixed ``or``, a nested path) is skipped, so an id in
    the result is a *necessary* condition for passing -- or, with
    ``exact=True``, turns the answer into ``None``, so that a set
    returned then is the predicates' whole meaning.
    """
    pinned = None
    for predicate in predicates:
        for conjunct in iter_conjuncts(predicate):
            ids = _id_disjunction_values(conjunct)
            if ids is not None:
                pinned = ids if pinned is None else pinned & ids
            elif exact:
                return None
    return pinned


def single_id_value(step):
    """The unique ``@id`` value this step pins, or ``None``.

    A step such as ``city[@id='Pittsburgh']`` pins one value; a step
    with an id disjunction (``[@id='a' or @id='b']``) or with no id
    predicate pins none.
    """
    pinned = pinned_ids(step.predicates)
    if pinned is not None and len(pinned) == 1:
        return next(iter(pinned))
    return None


def iter_conjuncts(expression):
    """The operands of a (possibly nested) ``and`` chain, in order."""
    if isinstance(expression, BinaryOperation) and expression.operator == "and":
        yield from iter_conjuncts(expression.left)
        yield from iter_conjuncts(expression.right)
    else:
        yield expression


def _is_id_attribute_path(expression):
    return (
        isinstance(expression, LocationPath)
        and not expression.absolute
        and len(expression.steps) == 1
        and expression.steps[0].axis == "attribute"
        and isinstance(expression.steps[0].node_test, NameTest)
        and expression.steps[0].node_test.name == "id"
        and not expression.steps[0].predicates
    )


def _id_disjunction_values(expression):
    """The literals of ``@id = 'literal'`` (either order) or of an
    ``or`` chain of such tests, as a frozenset; ``None`` otherwise."""
    if not isinstance(expression, BinaryOperation):
        return None
    left, right = expression.left, expression.right
    if expression.operator == "or":
        left = _id_disjunction_values(left)
        right = None if left is None else _id_disjunction_values(right)
        return None if right is None else left | right
    if expression.operator == "=":
        if _is_id_attribute_path(left) and isinstance(right, Literal):
            return frozenset((right.value,))
        if _is_id_attribute_path(right) and isinstance(left, Literal):
            return frozenset((left.value,))
    return None


def extract_id_path(expression):
    """The longest ``(tag, id)`` prefix of an absolute location path.

    Returns a list of ``(element name, id value)`` pairs.  The last
    pair names the query's LCA node; an empty list means the query must
    start at the document root's owner.

    Mirrors the paper's "simple parser" that needs no schema: it walks
    the query from the beginning as long as it finds steps of the form
    ``/elementname[@id=x]``.
    """
    if not isinstance(expression, LocationPath) or not expression.absolute:
        return []
    prefix = []
    for step in expression.steps:
        if step.axis != "child" or not isinstance(step.node_test, NameTest) \
                or step.node_test.name == "*":
            break
        value = single_id_value(step)
        if value is None:
            break
        prefix.append((step.node_test.name, value))
    return prefix


def anchor_id_path(query):
    """The anchor id path of a query string or AST, or ``None``.

    Convenience over :func:`extract_id_path`: parses a string,
    unwraps an aggregate ``FunctionCall`` down to its location-path
    argument, and returns the anchor as a tuple of ``(tag, id)``
    tuples -- ``None`` for queries with no usable anchor (or that do
    not parse at all).  Shared by query routing, the per-path load
    tracker, and migration-time cache eviction.
    """
    from repro.xpath import parser as _parser

    try:
        ast = _parser.parse_cached(query) if isinstance(query, str) else query
        if isinstance(ast, FunctionCall) and ast.arguments and \
                isinstance(ast.arguments[0], LocationPath):
            ast = ast.arguments[0]
        anchor = extract_id_path(ast)
    except Exception:
        return None
    if not anchor:
        return None
    return tuple(tuple(entry) for entry in anchor)


def sanitize_dns_label(value):
    """Make an id value usable as a DNS label (lowercase, hyphenated)."""
    cleaned = []
    for ch in value.lower():
        if ch.isalnum():
            cleaned.append(ch)
        elif ch in " _-.":
            cleaned.append("-")
    label = "".join(cleaned).strip("-")
    return label or "x"


def dns_name_for_id_path(id_path, service="parking", zone="intel-iris.net"):
    """DNS-style name for an ID path, most-specific label first.

    ``[(usRegion, NE), ..., (city, Pittsburgh)]`` becomes
    ``pittsburgh.allegheny.pa.ne.parking.intel-iris.net``.
    """
    labels = [sanitize_dns_label(value) for _, value in reversed(id_path)]
    labels.append(service)
    labels.append(zone)
    return ".".join(labels)


# ----------------------------------------------------------------------
# Nesting depth (Definition 3.3)
# ----------------------------------------------------------------------
def _path_traverses_idable(path, is_idable_tag):
    """Whether a location path traverses over IDable element nodes."""
    for step in path.steps:
        if step.axis == "attribute":
            continue
        if step.axis in ("parent", "ancestor", "ancestor-or-self"):
            # Conservative: upward references reach IDable ancestors.
            return True
        if isinstance(step.node_test, NameTest):
            if step.node_test.name == "*" or is_idable_tag(step.node_test.name):
                return True
        elif step.node_test.node_type == "node" and \
                step.axis in ("descendant", "descendant-or-self"):
            # A descendant sweep may cross IDable nodes.
            return True
    return False


def nesting_depth(expression, is_idable_tag=None):
    """Compute the nesting depth of a query (Definition 3.3).

    *is_idable_tag* is a predicate on element names; when omitted,
    every name is assumed IDable (the conservative choice when no
    schema is available).
    """
    if is_idable_tag is None:
        is_idable_tag = lambda tag: True  # noqa: E731 - tiny default
    elif isinstance(is_idable_tag, (set, frozenset)):
        tags = is_idable_tag
        is_idable_tag = lambda tag: tag in tags  # noqa: E731

    best = 0

    def visit(node, level):
        nonlocal best
        if isinstance(node, LocationPath):
            if level >= 1 and _path_traverses_idable(node, is_idable_tag):
                best = max(best, level)
            for step in node.steps:
                for predicate in step.predicates:
                    visit(predicate, level + 1)
        elif isinstance(node, Step):
            for predicate in node.predicates:
                visit(predicate, level + 1)
        elif isinstance(node, FilterExpression):
            visit(node.primary, level)
            for predicate in node.predicates:
                visit(predicate, level + 1)
            if node.path is not None:
                visit(node.path, level)
        else:
            for child in node.children():
                visit(child, level)

    visit(expression, 0)
    return best


# ----------------------------------------------------------------------
# Predicate classification and splitting
# ----------------------------------------------------------------------
def _reference_categories(expression, categories):
    """Accumulate the context-reference categories used by *expression*."""
    if isinstance(expression, LocationPath):
        if expression.absolute:
            categories.add(REF_OTHER)
            return
        if _is_id_attribute_path(expression):
            categories.add(REF_ID)
            return
        if (
            len(expression.steps) == 1
            and expression.steps[0].axis == "attribute"
            and isinstance(expression.steps[0].node_test, NameTest)
            and expression.steps[0].node_test.name == "timestamp"
        ):
            categories.add(REF_CONSISTENCY)
            return
        categories.add(REF_OTHER)
        # Predicates nested inside the path may add references of their
        # own, but the path itself already forces REF_OTHER.
        return
    if isinstance(expression, FunctionCall):
        if expression.name in _CONSISTENCY_FUNCTIONS:
            categories.add(REF_CONSISTENCY)
        elif expression.name in ("string", "number", "string-length",
                                 "normalize-space", "name", "local-name") \
                and not expression.arguments:
            # Zero-argument forms read the context node's value.
            categories.add(REF_OTHER)
        for argument in expression.arguments:
            _reference_categories(argument, categories)
        return
    if isinstance(expression, (Literal, NumberLiteral, VariableReference)):
        return
    for child in expression.children():
        _reference_categories(child, categories)


def classify_predicate(expression):
    """The set of reference categories a predicate uses.

    An empty set means the predicate is context-free (e.g. ``true()``).
    """
    categories = set()
    _reference_categories(expression, categories)
    return frozenset(categories)


class PredicateSplit:
    """The division of a step's predicates into P_id, P_consistency, P_rest.

    ``separable`` is ``False`` when some predicate mixes categories in a
    way that cannot be split along a top-level AND chain; QEG then falls
    back to asking a subquery (Section 3.5, case status=incomplete).
    """

    __slots__ = ("id_predicates", "consistency_predicates", "rest_predicates",
                 "separable")

    def __init__(self, id_predicates, consistency_predicates, rest_predicates,
                 separable):
        self.id_predicates = id_predicates
        self.consistency_predicates = consistency_predicates
        self.rest_predicates = rest_predicates
        self.separable = separable

    @property
    def has_consistency(self):
        return bool(self.consistency_predicates)

    def __repr__(self):
        return (
            f"PredicateSplit(id={[p.unparse() for p in self.id_predicates]}, "
            f"consistency={[p.unparse() for p in self.consistency_predicates]}, "
            f"rest={[p.unparse() for p in self.rest_predicates]}, "
            f"separable={self.separable})"
        )


def split_predicates(predicates):
    """Split a predicate list into id / consistency / rest parts.

    Predicates in a list are implicitly conjoined, so each predicate
    (or each conjunct of a top-level AND chain) can be classified
    independently.  A predicate that mixes categories below an OR (or
    inside a function call) is unsplittable: everything is returned in
    ``rest_predicates`` with ``separable=False``.
    """
    id_predicates = []
    consistency_predicates = []
    rest_predicates = []
    for predicate in predicates:
        for conjunct in iter_conjuncts(predicate):
            categories = classify_predicate(conjunct)
            if categories <= {REF_ID}:
                id_predicates.append(conjunct)
            elif categories == {REF_CONSISTENCY}:
                consistency_predicates.append(conjunct)
            elif REF_ID in categories or REF_CONSISTENCY in categories:
                return PredicateSplit([], [], list(predicates), separable=False)
            else:
                rest_predicates.append(conjunct)
    return PredicateSplit(id_predicates, consistency_predicates,
                          rest_predicates, separable=True)


# ----------------------------------------------------------------------
# Result-shape analysis
# ----------------------------------------------------------------------
def require_location_path(expression):
    """Return *expression* as an absolute LocationPath or raise."""
    if not isinstance(expression, LocationPath):
        raise XPathError(
            "distributed evaluation requires a location-path query, got "
            f"{type(expression).__name__}"
        )
    if not expression.absolute:
        raise XPathError("distributed evaluation requires an absolute query")
    return expression


def result_tag_names(expression):
    """The element names the query's final step can select.

    Returns a set of names, where ``"*"`` means "any element".  Used to
    seed LOCAL-INFO-REQUIRED; descendant IDable tags are added by the
    schema-aware layer in :mod:`repro.core`.
    """
    path = require_location_path(expression)
    if not path.steps:
        return {"*"}
    last = path.steps[-1]
    if isinstance(last.node_test, NameTest):
        return {last.node_test.name}
    if isinstance(last.node_test, NodeTypeTest) and \
            last.node_test.node_type == "node":
        return {"*"}
    return set()


def earliest_nested_reference_index(expression, is_idable_tag=None):
    """Index of the earliest step referred to by a nested predicate.

    This drives the paper's strategy for nesting depth > 0 (Section 4,
    "Larger nesting depths"): execution pauses at the earliest tag a
    nested predicate refers to, fetches the whole subtree below it, and
    resumes.  An upward reference (``..``) from a predicate at step *i*
    moves the fetch point up to step ``i - levels``.

    Returns ``None`` when the query has nesting depth 0.
    """
    path = require_location_path(expression)
    if nesting_depth(expression, is_idable_tag) == 0:
        return None
    earliest = None
    for index, step in enumerate(path.steps):
        for predicate in step.predicates:
            if nesting_depth(predicate, is_idable_tag) == 0 and \
                    not _contains_idable_path(predicate, is_idable_tag):
                continue
            up_levels = _max_upward_levels(predicate)
            target = max(0, index - up_levels)
            if earliest is None or target < earliest:
                earliest = target
    return earliest


def _contains_idable_path(expression, is_idable_tag):
    return nesting_depth(FilterExpression(NumberLiteral(0), [expression]),
                         is_idable_tag) > 0


def _max_upward_levels(expression):
    """Deepest chain of leading ``..`` steps in any path of *expression*."""
    deepest = 0
    for node in _walk(expression):
        if isinstance(node, LocationPath) and not node.absolute:
            levels = 0
            for step in node.steps:
                if step.axis == "parent":
                    levels += 1
                elif step.axis in ("ancestor", "ancestor-or-self"):
                    levels = max(levels, 99)  # unbounded: clamp at root
                else:
                    break
            deepest = max(deepest, levels)
    return deepest


def _walk(expression):
    stack = [expression]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())

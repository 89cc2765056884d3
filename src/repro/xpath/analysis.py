"""Query analysis passes used by the distributed query processor.

These implement the paper's static analyses of an XPATH query:

* **ID-path extraction** (Section 3.4): the longest prefix of
  ``/elementname[@id=x]`` steps, from which the DNS-style name of the
  query's lowest common ancestor (LCA) is built -- with *no* global
  information and no schema knowledge.
* **Nesting** (Definition 3.3 and Section 4): which predicates hold a
  location path crossing IDable nodes, the step a query's nested
  predicates make it fetch the subtree at, and the nesting depth --
  the maximum predicate-nesting level of such a path.
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
    NumberLiteral,
    Step,
    VariableReference,
    iter_location_paths,
)

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
    sets = id_pin_sets(predicates, exact)
    return None if sets is None else intersect_pins(sets)


def id_pin_sets(predicates, exact=False):
    """The id sets of *predicates*' pinning conjuncts, in order (see
    :func:`pinned_ids`, which intersects them; ``None`` where it is)."""
    sets = []
    for predicate in predicates:
        for conjunct in iter_conjuncts(predicate):
            ids = _id_disjunction_values(conjunct)
            if ids is not None:
                sets.append(ids)
            elif exact:
                return None
    return sets


def intersect_pins(sets):
    """What the pin *sets* allow together, or ``None`` for no set."""
    if not sets:
        return None
    pinned = sets[0]
    for ids in sets[1:]:
        pinned = pinned & ids
    return pinned


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
    return id_path_of_pins(id_path_pins(expression))


def id_path_pins(expression):
    """``(tag, sets)`` of the steps :func:`extract_id_path` may read:
    the leading named child steps whose predicates pin an id, *sets*
    their :func:`id_pin_sets`."""
    if not isinstance(expression, LocationPath) or not expression.absolute:
        return []
    prefix = []
    for step in expression.steps:
        if step.axis != "child" or not isinstance(step.node_test, NameTest) \
                or step.node_test.name == "*":
            break
        sets = id_pin_sets(step.predicates)
        if not sets:
            break
        prefix.append((step.node_test.name, sets))
    return prefix


def id_path_of_pins(pins):
    """The id path :func:`id_path_pins`' *pins* spell: each step while
    its sets allow exactly one id."""
    prefix = []
    for tag, sets in pins:
        pinned = intersect_pins(sets)
        if len(pinned) != 1:
            break
        prefix.append((tag, next(iter(pinned))))
    return prefix


def anchor_id_path(query):
    """The anchor id path of a query string or AST, or ``None``.

    Convenience over :func:`extract_id_path`: parses a string,
    unwraps an aggregate ``FunctionCall`` down to its location-path
    argument, and returns the anchor as a tuple of ``(tag, id)``
    tuples -- ``None`` for queries with no usable anchor (or that do
    not parse at all).  Routing and load accounting read a scalar
    query's anchor here; a path's comes from its compiled pattern.
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


def dns_child_name(parent_name, identifier):
    """The DNS name of a node whose parent is named *parent_name*: the
    node's sanitized id is one more, most-specific label."""
    return f"{sanitize_dns_label(identifier)}.{parent_name}"


def dns_name_for_id_path(id_path, service="parking", zone="intel-iris.net"):
    """DNS-style name for an ID path, most-specific label first.

    ``[(usRegion, NE), ..., (city, Pittsburgh)]`` becomes
    ``pittsburgh.allegheny.pa.ne.parking.intel-iris.net``; the empty
    path names the service's zone, ``parking.intel-iris.net``.
    """
    name = f"{service}.{zone}"
    for _, identifier in id_path:
        name = dns_child_name(name, identifier)
    return name


# ----------------------------------------------------------------------
# Nesting (Definition 3.3 and Section 4's collect point)
# ----------------------------------------------------------------------
def _path_is_nested(path, is_idable_tag):
    """Whether a location path inside a predicate crosses IDable nodes.

    An absolute path reads from the root, which is IDable (Definition
    3.1); an upward step reaches IDable ancestors; a ``*`` or
    ``node()`` sweep may cross IDable nodes.
    """
    if path.absolute:
        return True
    for step in path.steps:
        if step.axis == "attribute":
            continue
        if step.axis in ("parent", "ancestor", "ancestor-or-self"):
            return True
        if isinstance(step.node_test, NameTest):
            if step.node_test.name == "*" or is_idable_tag(step.node_test.name):
                return True
        elif step.node_test.node_type == "node" and \
                step.axis in ("descendant", "descendant-or-self"):
            return True
    return False


def predicate_is_nested(predicate, is_idable_tag):
    """Whether any location path in *predicate* crosses IDable nodes."""
    return any(
        _path_is_nested(path, is_idable_tag)
        for path in iter_location_paths(predicate)
    )


#: More levels up than any path has steps: the walk's root.
_ROOT = 999


def _max_upward_levels(predicate):
    """How many steps up the paths of *predicate* reach: the deepest
    leading ``..`` chain, or past the root for an absolute path or an
    ``ancestor`` step."""
    deepest = 0
    for path in iter_location_paths(predicate):
        if path.absolute:
            return _ROOT
        levels = 0
        for step in path.steps:
            if step.axis == "parent":
                levels += 1
            elif step.axis in ("ancestor", "ancestor-or-self"):
                levels = _ROOT
                break
            else:
                break
        deepest = max(deepest, levels)
    return deepest


def collect_point(nested):
    """The index of the earliest step a nested predicate refers to
    (Section 4, "Larger nesting depths"), or ``None`` for none.

    *nested* lists, per step of the main path, its nested predicates.
    Execution pauses at the returned step, fetches the whole subtree
    below it and resumes; an upward reference from step *i* moves the
    point up to step ``i - levels``, and an absolute one to the root.
    """
    collect = None
    for index, predicates in enumerate(nested):
        for predicate in predicates:
            target = max(0, index - _max_upward_levels(predicate))
            if collect is None or target < collect:
                collect = target
    return collect


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
            if level >= 1 and _path_is_nested(node, is_idable_tag):
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

"""Abstract syntax tree for XPath 1.0 expressions.

Every node supports :meth:`unparse`, producing an equivalent query
string.  Unparsing matters in this system: the query-evaluate-gather
algorithm constructs *subqueries* by slicing and re-serializing the
AST of the original query (Section 3.5 of the paper).
"""

# Axis names in the unordered fragment.
UNORDERED_AXES = frozenset(
    {
        "child",
        "descendant",
        "descendant-or-self",
        "self",
        "parent",
        "ancestor",
        "ancestor-or-self",
        "attribute",
    }
)

# Axes that only make sense for ordered documents; rejected at parse time.
ORDERED_AXES = frozenset(
    {
        "following",
        "preceding",
        "following-sibling",
        "preceding-sibling",
        "namespace",
    }
)


class Expression:
    """Base class for all AST nodes."""

    __slots__ = ()

    def unparse(self):
        raise NotImplementedError

    def children(self):
        """Child expressions, used by generic tree walks."""
        return ()

    def __repr__(self):
        return f"{type(self).__name__}({self.unparse()!r})"

    def __eq__(self, other):
        return type(self) is type(other) and self.unparse() == other.unparse()

    def __hash__(self):
        return hash((type(self).__name__, self.unparse()))


class NameTest(Expression):
    """A node test by element name, or ``*`` for any element."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name  # "*" means any element

    def matches(self, tag):
        return self.name == "*" or self.name == tag

    def unparse(self):
        return self.name


class NodeTypeTest(Expression):
    """A node test by type: ``node()`` or ``text()``."""

    __slots__ = ("node_type",)

    def __init__(self, node_type):
        self.node_type = node_type

    def unparse(self):
        return f"{self.node_type}()"


class Step(Expression):
    """One location step: axis, node test and predicates."""

    __slots__ = ("axis", "node_test", "predicates")

    def __init__(self, axis, node_test, predicates=()):
        self.axis = axis
        self.node_test = node_test
        self.predicates = list(predicates)

    def children(self):
        return tuple(self.predicates)

    def unparse(self):
        if self.axis == "child":
            base = self.node_test.unparse()
        elif self.axis == "attribute":
            base = "@" + self.node_test.unparse()
        elif (
            self.axis == "self"
            and isinstance(self.node_test, NodeTypeTest)
            and self.node_test.node_type == "node"
            and not self.predicates
        ):
            return "."
        elif (
            self.axis == "parent"
            and isinstance(self.node_test, NodeTypeTest)
            and self.node_test.node_type == "node"
            and not self.predicates
        ):
            return ".."
        else:
            base = f"{self.axis}::{self.node_test.unparse()}"
        return base + "".join(f"[{p.unparse()}]" for p in self.predicates)


class LocationPath(Expression):
    """A (possibly absolute) sequence of steps.

    ``//`` is represented, per the spec, as a ``descendant-or-self::node()``
    step between the neighbouring steps.
    """

    __slots__ = ("absolute", "steps")

    def __init__(self, absolute, steps):
        self.absolute = absolute
        self.steps = list(steps)

    def children(self):
        return tuple(self.steps)

    def unparse(self):
        rendered = []
        i = 0
        steps = self.steps
        while i < len(steps):
            step = steps[i]
            if (
                step.axis == "descendant-or-self"
                and isinstance(step.node_test, NodeTypeTest)
                and step.node_test.node_type == "node"
                and not step.predicates
                and i + 1 < len(steps)
            ):
                rendered.append("//" + steps[i + 1].unparse())
                i += 2
                continue
            rendered.append(("/" if rendered else "") + step.unparse())
            i += 1
        body = "".join(rendered)
        if self.absolute:
            if body.startswith("//"):
                return body
            return "/" + body if body else "/"
        return body if body else "."


class FilterExpression(Expression):
    """A primary expression with optional predicates and a trailing path.

    Represents e.g. ``$spots[price=0]/name`` or ``(a | b)/c``.
    """

    __slots__ = ("primary", "predicates", "path")

    def __init__(self, primary, predicates=(), path=None):
        self.primary = primary
        self.predicates = list(predicates)
        self.path = path  # a relative LocationPath or None

    def children(self):
        out = [self.primary]
        out.extend(self.predicates)
        if self.path is not None:
            out.append(self.path)
        return tuple(out)

    def unparse(self):
        text = self.primary.unparse()
        if isinstance(self.primary, (BinaryOperation, UnaryMinus)):
            text = f"({text})"
        text += "".join(f"[{p.unparse()}]" for p in self.predicates)
        if self.path is not None:
            rendered = self.path.unparse()
            joiner = "" if rendered.startswith("/") else "/"
            text += joiner + rendered
        return text


_PRECEDENCE = {
    "or": 1, "and": 2, "=": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "div": 6, "mod": 6, "|": 8,
}
_ASSOCIATIVE = {"or", "and", "+", "*", "|"}


class BinaryOperation(Expression):
    """A binary operation: or, and, comparisons, arithmetic, union."""

    __slots__ = ("operator", "left", "right")

    def __init__(self, operator, left, right):
        self.operator = operator
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def unparse(self):
        own = _PRECEDENCE[self.operator]

        def render(side, is_right):
            text = side.unparse()
            if not isinstance(side, BinaryOperation):
                return text
            child = _PRECEDENCE[side.operator]
            if child < own:
                return f"({text})"
            if child == own and is_right and \
                    self.operator not in _ASSOCIATIVE:
                return f"({text})"
            return text

        return (
            f"{render(self.left, False)} {self.operator} "
            f"{render(self.right, True)}"
        )


class UnaryMinus(Expression):
    """Unary negation."""

    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def children(self):
        return (self.operand,)

    def unparse(self):
        text = self.operand.unparse()
        if isinstance(self.operand, (BinaryOperation, UnaryMinus)):
            text = f"({text})"
        return f"-{text}"


class FunctionCall(Expression):
    """A call to a core-library or extension function."""

    __slots__ = ("name", "arguments")

    def __init__(self, name, arguments=()):
        self.name = name
        self.arguments = list(arguments)

    def children(self):
        return tuple(self.arguments)

    def unparse(self):
        args = ", ".join(a.unparse() for a in self.arguments)
        return f"{self.name}({args})"


class Literal(Expression):
    """A string literal."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def unparse(self):
        if "'" not in self.value:
            return f"'{self.value}'"
        return f'"{self.value}"'


class NumberLiteral(Expression):
    """A numeric literal."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = float(value)

    def unparse(self):
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


class VariableReference(Expression):
    """A ``$name`` variable reference."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def unparse(self):
        return f"${self.name}"


def walk(expression):
    """Yield *expression* and every descendant expression node."""
    stack = [expression]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def iter_location_paths(expression):
    """Yield every :class:`LocationPath` in the expression tree."""
    for node in walk(expression):
        if isinstance(node, LocationPath):
            yield node

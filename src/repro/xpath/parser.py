"""Recursive-descent parser for XPath 1.0 (unordered fragment).

Follows the XPath 1.0 grammar.  Constructs outside the unordered
fragment -- document-order axes, ``position()``/``last()`` and numeric
(positional) predicates -- raise :class:`XPathUnsupportedError`, per the
paper's data model (Section 3.1).
"""

import functools

from repro.xpath import lexer
from repro.xpath.ast import (
    ORDERED_AXES,
    UNORDERED_AXES,
    BinaryOperation,
    FilterExpression,
    FunctionCall,
    Literal,
    LocationPath,
    NameTest,
    NodeTypeTest,
    NumberLiteral,
    Step,
    UnaryMinus,
    VariableReference,
)
from repro.xpath.errors import XPathSyntaxError, XPathUnsupportedError

_PATH_START_KINDS = {
    lexer.SLASH,
    lexer.DOUBLE_SLASH,
    lexer.DOT,
    lexer.DOTDOT,
    lexer.AT,
    lexer.STAR,
    lexer.NAME,
    lexer.AXIS,
    lexer.NODETYPE,
}

_ORDER_DEPENDENT_FUNCTIONS = {"position", "last"}

#: Bound of the parse memo, in distinct query texts (about 6 KB each).
#: It only has to span one operation -- the client, the asking site and
#: the sites its subqueries reach parse the same few texts within
#: milliseconds; repeats further apart are caught downstream by the
#: canonicalizer memo and the pattern cache, which are keyed by text.
PARSE_MEMO_SIZE = 256


def _descendant_step():
    """The ``descendant-or-self::node()`` step that ``//`` abbreviates."""
    return Step("descendant-or-self", NodeTypeTest("node"))


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = lexer.tokenize(source)
        self.index = 0

    # -- token helpers -------------------------------------------------
    @property
    def current(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept(self, kind):
        if self.current.kind == kind:
            return self.advance()
        return None

    def expect(self, kind, what):
        token = self.accept(kind)
        if token is None:
            raise XPathSyntaxError(
                f"expected {what}, found {self.current.value!r}",
                self.current.offset,
            )
        return token

    def error(self, message):
        return XPathSyntaxError(message, self.current.offset)

    # -- grammar -------------------------------------------------------
    def parse(self):
        expression = self.parse_expression()
        if self.current.kind != lexer.EOF:
            raise self.error(f"unexpected trailing {self.current.value!r}")
        return expression

    def parse_expression(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        while self.accept(lexer.OR):
            left = BinaryOperation("or", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_equality()
        while self.accept(lexer.AND):
            left = BinaryOperation("and", left, self.parse_equality())
        return left

    def parse_equality(self):
        left = self.parse_relational()
        while True:
            if self.accept(lexer.EQ):
                left = BinaryOperation("=", left, self.parse_relational())
            elif self.accept(lexer.NEQ):
                left = BinaryOperation("!=", left, self.parse_relational())
            else:
                return left

    def parse_relational(self):
        left = self.parse_additive()
        operators = {lexer.LT: "<", lexer.LE: "<=", lexer.GT: ">", lexer.GE: ">="}
        while self.current.kind in operators:
            operator = operators[self.advance().kind]
            left = BinaryOperation(operator, left, self.parse_additive())
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while True:
            if self.accept(lexer.PLUS):
                left = BinaryOperation("+", left, self.parse_multiplicative())
            elif self.accept(lexer.MINUS):
                left = BinaryOperation("-", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        operators = {lexer.MULTIPLY: "*", lexer.DIV: "div", lexer.MOD: "mod"}
        while self.current.kind in operators:
            operator = operators[self.advance().kind]
            left = BinaryOperation(operator, left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.accept(lexer.MINUS):
            return UnaryMinus(self.parse_unary())
        return self.parse_union()

    def parse_union(self):
        left = self.parse_path()
        while self.accept(lexer.PIPE):
            left = BinaryOperation("|", left, self.parse_path())
        return left

    def parse_path(self):
        kind = self.current.kind
        if kind in (lexer.FUNCTION, lexer.LITERAL, lexer.NUMBER,
                    lexer.VARIABLE, lexer.LPAREN):
            return self.parse_filter_expression()
        if kind in _PATH_START_KINDS:
            return self.parse_location_path()
        raise self.error(f"expected an expression, found {self.current.value!r}")

    def parse_filter_expression(self):
        primary = self.parse_primary()
        predicates = []
        while self.current.kind == lexer.LBRACKET:
            predicates.append(self.parse_predicate())
        path = None
        if self.current.kind in (lexer.SLASH, lexer.DOUBLE_SLASH):
            steps = []
            if self.advance().kind == lexer.DOUBLE_SLASH:
                steps.append(_descendant_step())
            steps.append(self.parse_step())
            steps.extend(self.parse_more_steps())
            path = LocationPath(absolute=False, steps=steps)
        if not predicates and path is None:
            return primary
        return FilterExpression(primary, predicates, path)

    def parse_primary(self):
        token = self.current
        if token.kind == lexer.VARIABLE:
            self.advance()
            return VariableReference(token.value)
        if token.kind == lexer.LITERAL:
            self.advance()
            return Literal(token.value)
        if token.kind == lexer.NUMBER:
            self.advance()
            return NumberLiteral(token.value)
        if token.kind == lexer.LPAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect(lexer.RPAREN, "')'")
            return inner
        if token.kind == lexer.FUNCTION:
            return self.parse_function_call()
        raise self.error(f"expected a primary expression, found {token.value!r}")

    def parse_function_call(self):
        name_token = self.expect(lexer.FUNCTION, "a function name")
        if name_token.value in _ORDER_DEPENDENT_FUNCTIONS:
            raise XPathUnsupportedError(
                f"{name_token.value}() depends on document order, which the "
                "unordered data model does not define"
            )
        self.expect(lexer.LPAREN, "'('")
        arguments = []
        if self.current.kind != lexer.RPAREN:
            arguments.append(self.parse_expression())
            while self.accept(lexer.COMMA):
                arguments.append(self.parse_expression())
        self.expect(lexer.RPAREN, "')'")
        return FunctionCall(name_token.value, arguments)

    def parse_location_path(self):
        absolute = False
        steps = []
        if self.accept(lexer.SLASH):
            absolute = True
            if self.current.kind not in _PATH_START_KINDS or \
                    self.current.kind in (lexer.SLASH, lexer.DOUBLE_SLASH):
                # Bare "/" selects the document root.
                return LocationPath(absolute=True, steps=[])
        elif self.accept(lexer.DOUBLE_SLASH):
            absolute = True
            steps.append(_descendant_step())
        steps.append(self.parse_step())
        steps.extend(self.parse_more_steps())
        return LocationPath(absolute=absolute, steps=steps)

    def parse_more_steps(self):
        steps = []
        while True:
            if self.accept(lexer.SLASH):
                steps.append(self.parse_step())
            elif self.accept(lexer.DOUBLE_SLASH):
                steps.append(_descendant_step())
                steps.append(self.parse_step())
            else:
                return steps

    def parse_step(self):
        token = self.current
        if token.kind == lexer.DOT:
            self.advance()
            return Step("self", NodeTypeTest("node"))
        if token.kind == lexer.DOTDOT:
            self.advance()
            return Step("parent", NodeTypeTest("node"))

        axis = "child"
        if token.kind == lexer.AT:
            self.advance()
            axis = "attribute"
        elif token.kind == lexer.AXIS:
            axis = token.value
            self.advance()
            if axis in ORDERED_AXES:
                raise XPathUnsupportedError(
                    f"axis {axis!r} depends on document order, which the "
                    "unordered data model does not define"
                )
            if axis not in UNORDERED_AXES:
                raise self.error(f"unknown axis {axis!r}")

        node_test = self.parse_node_test()
        predicates = []
        while self.current.kind == lexer.LBRACKET:
            predicates.append(self.parse_predicate())
        return Step(axis, node_test, predicates)

    def parse_node_test(self):
        token = self.current
        if token.kind == lexer.STAR:
            self.advance()
            return NameTest("*")
        if token.kind == lexer.NAME:
            self.advance()
            return NameTest(token.value)
        if token.kind == lexer.NODETYPE:
            self.advance()
            if token.value in ("comment", "processing-instruction"):
                raise XPathUnsupportedError(
                    f"{token.value}() nodes do not occur in sensor documents"
                )
            self.expect(lexer.LPAREN, "'('")
            self.expect(lexer.RPAREN, "')'")
            return NodeTypeTest(token.value)
        raise self.error(f"expected a node test, found {token.value!r}")

    def parse_predicate(self):
        self.expect(lexer.LBRACKET, "'['")
        expression = self.parse_expression()
        self.expect(lexer.RBRACKET, "']'")
        if isinstance(expression, NumberLiteral):
            raise XPathUnsupportedError(
                "numeric (positional) predicates depend on document order, "
                "which the unordered data model does not define"
            )
        return expression


def parse(source):
    """Parse *source* into an AST :class:`~repro.xpath.ast.Expression`."""
    return _Parser(source).parse()


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def parse_cached(source):
    """The AST of *source*, parsed once per distinct text.

    One bounded memo for what still parses a text: canonicalization,
    scalar anchors, compile templates (one per query shape) and
    :func:`~repro.xpath.compiler.compile_xpath`.  The tree is shared
    by every caller and **must not be mutated**: rewrites
    (canonicalization, sugar, subquery slicing) build new nodes.  Callers that want a tree of their own use
    :func:`parse`.  Syntax errors are raised afresh on every call.
    """
    return parse(source)

"""Public compile/evaluate API for XPath queries.

``compile_xpath`` parses once and returns a reusable
:class:`XPathQuery`; the parse memo (:func:`repro.xpath.parser.parse_cached`)
makes repeated compilation of the same query string cheap, mirroring
how the organizing agents reuse compiled queries.
"""

from repro.xpath import parser
from repro.xpath.ast import LocationPath
from repro.xpath.errors import XPathTypeError
from repro.xpath.evaluator import Evaluator
from repro.xpath.types import is_node_set


class XPathQuery:
    """A compiled XPath query.

    Instances are immutable and safe to share; :meth:`evaluate` returns
    whatever XPath type the expression produces, while :meth:`select`
    insists on a node-set.
    """

    __slots__ = ("source", "ast", "_evaluator")

    def __init__(self, source, ast, evaluator=None):
        self.source = source
        self.ast = ast
        self._evaluator = evaluator or _DEFAULT_EVALUATOR

    def evaluate(self, node, variables=None, now=None):
        """Evaluate against *node*; returns node-set/bool/number/string."""
        return self._evaluator.evaluate(self.ast, node, variables=variables,
                                        now=now)

    def select(self, node, variables=None, now=None):
        """Evaluate and require a node-set result."""
        result = self.evaluate(node, variables=variables, now=now)
        if not is_node_set(result):
            raise XPathTypeError(
                f"query {self.source!r} did not return a node-set"
            )
        return result

    @property
    def is_location_path(self):
        return isinstance(self.ast, LocationPath)

    @property
    def is_absolute(self):
        return isinstance(self.ast, LocationPath) and self.ast.absolute

    def unparse(self):
        """Regenerate an equivalent query string from the AST."""
        return self.ast.unparse()

    def __repr__(self):
        return f"XPathQuery({self.source!r})"

    def __eq__(self, other):
        return isinstance(other, XPathQuery) and self.ast == other.ast

    def __hash__(self):
        return hash(self.ast)


_DEFAULT_EVALUATOR = Evaluator()


def compile_xpath(source, extension_functions=None):
    """Compile *source* into an :class:`XPathQuery`.

    *extension_functions* is an optional mapping of name -> callable
    layered over the core function library.
    """
    ast = parser.parse_cached(source)
    evaluator = (
        Evaluator(extension_functions) if extension_functions else None
    )
    return XPathQuery(source, ast, evaluator)


def evaluate_xpath(source, node, variables=None, now=None):
    """One-shot convenience: compile and evaluate *source* at *node*."""
    return compile_xpath(source).evaluate(node, variables=variables, now=now)

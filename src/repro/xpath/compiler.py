"""Public compile/evaluate API for XPath queries.

``compile_xpath`` parses once (through the parse memo,
:func:`repro.xpath.parser.parse_cached`) and compiles the AST once to
the evaluator's closure form: the returned :class:`XPathQuery` runs
that closure on every evaluation, re-reading nothing of its AST.
"""

from repro.xpath import parser
from repro.xpath.ast import LocationPath
from repro.xpath.errors import XPathTypeError
from repro.xpath.evaluator import Evaluator, run_compiled
from repro.xpath.types import is_node_set


class XPathQuery:
    """A compiled XPath query.

    Instances are immutable and safe to share; :meth:`evaluate` returns
    whatever XPath type the expression produces, while :meth:`select`
    insists on a node-set.
    """

    __slots__ = ("source", "ast", "_run")

    def __init__(self, source, ast, evaluator=None):
        self.source = source
        self.ast = ast
        self._run = (evaluator or _DEFAULT_EVALUATOR).compile(ast)

    def evaluate(self, node, variables=None, now=None):
        """Evaluate against *node*; returns node-set/bool/number/string."""
        return run_compiled(self._run, node, variables=variables, now=now)

    def select(self, node, variables=None, now=None):
        """Evaluate and require a node-set result."""
        result = self.evaluate(node, variables=variables, now=now)
        if not is_node_set(result):
            raise XPathTypeError(
                f"query {self.source!r} did not return a node-set"
            )
        return result

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

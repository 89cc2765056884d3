"""XPath 1.0 engine (unordered fragment) and query analysis.

The paper's system is queried in XPATH; this package provides the
complete query pipeline -- lexer, parser, AST, evaluator, core function
library -- plus the static analyses the distributed query processor
needs (ID-path / DNS-name extraction, nesting depth, predicate
splitting).
"""

from repro.xpath.analysis import (
    PredicateSplit,
    classify_predicate,
    dns_name_for_id_path,
    extract_id_path,
    nesting_depth,
    sanitize_dns_label,
    split_predicates,
)
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
    UnaryMinus,
    VariableReference,
    iter_location_paths,
    walk,
)
from repro.xpath.compiler import XPathQuery, compile_xpath, evaluate_xpath
from repro.xpath.errors import (
    XPathError,
    XPathEvaluationError,
    XPathSyntaxError,
    XPathTypeError,
    XPathUnsupportedError,
)
from repro.xpath.evaluator import Evaluator
from repro.xpath.parser import parse
from repro.xpath.types import AttributeRef, to_boolean, to_number, to_string

__all__ = [
    "XPathQuery",
    "compile_xpath",
    "evaluate_xpath",
    "parse",
    "Evaluator",
    "AttributeRef",
    "to_boolean",
    "to_number",
    "to_string",
    "LocationPath",
    "Step",
    "NameTest",
    "NodeTypeTest",
    "BinaryOperation",
    "UnaryMinus",
    "FunctionCall",
    "FilterExpression",
    "Literal",
    "NumberLiteral",
    "VariableReference",
    "walk",
    "iter_location_paths",
    "extract_id_path",
    "dns_name_for_id_path",
    "sanitize_dns_label",
    "nesting_depth",
    "classify_predicate",
    "split_predicates",
    "PredicateSplit",
    "XPathError",
    "XPathSyntaxError",
    "XPathUnsupportedError",
    "XPathTypeError",
    "XPathEvaluationError",
]

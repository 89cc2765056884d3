"""XML substrate: node model, parser, serializer, comparison.

The paper stores sensor data in an off-the-shelf XML database (Apache
Xindice).  No XML library is assumed here; this package provides the
equivalent substrate from scratch.
"""

from repro.xmlkit.compare import canonical_form, diff_trees, tree_hash, trees_equal
from repro.xmlkit.errors import XmlError, XmlParseError, XmlStructureError
from repro.xmlkit.nodes import Document, Element, Text, is_valid_name
from repro.xmlkit.parser import parse_document, parse_file, parse_fragment
from repro.xmlkit.serializer import (
    escape_attribute,
    escape_text,
    reset_serialization_stats,
    serialization_stats,
    serialize,
    write_file,
)

__all__ = [
    "Document",
    "Element",
    "Text",
    "is_valid_name",
    "parse_document",
    "parse_file",
    "parse_fragment",
    "serialize",
    "serialization_stats",
    "reset_serialization_stats",
    "write_file",
    "escape_text",
    "escape_attribute",
    "canonical_form",
    "trees_equal",
    "tree_hash",
    "diff_trees",
    "XmlError",
    "XmlParseError",
    "XmlStructureError",
]

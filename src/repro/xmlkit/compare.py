"""Order-insensitive comparison of XML trees.

The paper's data model treats sibling order as meaningless
(Section 3.1), so two documents are "the same" when they are equal up
to reordering of siblings.  Canonicalization sorts child elements by
their canonical serialization and writes the element's text after them.
"""

from repro.xmlkit.nodes import Document, Text
from repro.xmlkit.serializer import escape_attribute, escape_text


def canonical_form(node, ignore=frozenset()):
    """Return a canonical string for *node*.

    Two trees have the same canonical form if and only if they are
    equal as unordered documents (same tags, attributes and text, with
    siblings compared as multisets), attributes named in *ignore* left
    out.
    """
    if isinstance(node, Document):
        node = node.root
    if isinstance(node, Text):
        return escape_text(node.value)
    attrs = "".join(
        f' {name}="{escape_attribute(node.attrib[name])}"'
        for name in sorted(node.attrib) if name not in ignore
    )
    child_forms = sorted(canonical_form(child, ignore)
                         for child in node.children)
    inner = "".join(child_forms)
    text = escape_text(node.text) if node.text else ""
    return f"<{node.tag}{attrs}>{inner}{text}</{node.tag}>"


def trees_equal(a, b):
    """Return ``True`` if *a* and *b* are equal as unordered trees."""
    return canonical_form(a) == canonical_form(b)


def tree_hash(node):
    """A hash consistent with :func:`trees_equal`."""
    return hash(canonical_form(node))


def _describe(node):
    if isinstance(node, Text):
        return f"text {node.value!r}"
    ident = f" id={node.id!r}" if node.id else ""
    return f"<{node.tag}{ident}>"


def diff_trees(a, b, path="/"):
    """Return a list of human-readable differences between two trees.

    Intended for test diagnostics; an empty list means the trees are
    equal as unordered documents.
    """
    if isinstance(a, Document):
        a = a.root
    if isinstance(b, Document):
        b = b.root
    differences = []
    if isinstance(a, Text) or isinstance(b, Text):
        if not (isinstance(a, Text) and isinstance(b, Text)):
            differences.append(f"{path}: {_describe(a)} != {_describe(b)}")
        elif a.value != b.value:
            differences.append(f"{path}: text {a.value!r} != {b.value!r}")
        return differences
    if a.tag != b.tag:
        differences.append(f"{path}: tag {a.tag!r} != {b.tag!r}")
        return differences
    if a.attrib != b.attrib:
        only_a = {k: v for k, v in a.attrib.items() if b.attrib.get(k) != v}
        only_b = {k: v for k, v in b.attrib.items() if a.attrib.get(k) != v}
        differences.append(
            f"{path}{a.tag}: attributes differ (left-only/changed {only_a}, "
            f"right-only/changed {only_b})"
        )
    if (a.text or "") != (b.text or ""):
        differences.append(f"{path}{a.tag}: text {a.text!r} != {b.text!r}")
    remaining = list(b.children)
    for child in a.children:
        form = canonical_form(child)
        for index, candidate in enumerate(remaining):
            if canonical_form(candidate) == form:
                del remaining[index]
                break
        else:
            differences.append(
                f"{path}{a.tag}: left child {_describe(child)} has no match"
            )
    for candidate in remaining:
        differences.append(
            f"{path}{a.tag}: right child {_describe(candidate)} has no match"
        )
    return differences

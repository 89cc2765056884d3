"""IDable nodes, IDs, ID paths, and local (ID) information.

Implements Definitions 3.1 and 3.2 of the paper:

* An **IDable node** has an ``id`` unique among its same-tag siblings
  and an IDable parent; the document root is IDable.
* The **local information** of an IDable node comprises its attributes,
  its non-IDable children (with their whole subtrees) and the IDs of
  its IDable children.
* The **local ID information** is the node's own ID plus the IDs of its
  IDable children.

The fragments corresponding to local informations form a nearly
disjoint partitioning of the document, overlapping only in the IDs of
the IDable nodes -- the property all partitioning and caching in the
system rests on.
"""

from repro.core.errors import UnknownNodeError
from repro.core.status import (
    INTERNAL_ATTRIBUTES,
    STATUS_ATTRIBUTE,
    get_status,
)
from repro.xmlkit.nodes import Element, Text


def node_id(element):
    """The ID of a node: its ``(element name, id attribute)`` pair."""
    return (element.tag, element.attrib.get("id"))


def is_idable(element):
    """Whether *element* is an IDable node (Definition 3.1).

    The root of a document is IDable.  A non-root element is IDable if
    it has an ``id`` unique among same-tag siblings and its parent is
    IDable.
    """
    current = element
    while current.parent is not None:
        if not _locally_idable(current):
            return False
        current = current.parent
    return True


def _locally_idable(element):
    if isinstance(element, Text):
        return False
    identifier = element.attrib.get("id")
    if identifier is None:
        return False
    parent = element.parent
    if parent is None:
        return True
    tag = element.tag
    for sibling in parent.children:
        if sibling is not element and isinstance(sibling, Element) \
                and sibling.tag == tag \
                and sibling.attrib.get("id") == identifier:
            return False
    return True


def idable_child_map(element):
    """``(tag, id) -> child`` over the id-bearing children of *element*,
    in document order, from one pass.  A key two siblings share maps to
    ``None``: neither is IDable, nor would a node grafted under it be.
    """
    keyed = {}
    for child in element.children:
        if isinstance(child, Element):
            identifier = child.attrib.get("id")
            if identifier is not None:
                key = (child.tag, identifier)
                keyed[key] = None if key in keyed else child
    return keyed


def idable_children(element):
    """The IDable children of an (assumed IDable) *element*.

    A child is IDable here when it carries an ``id`` unique among its
    same-tag siblings.
    """
    return [child for child in idable_child_map(element).values()
            if child is not None]


def non_idable_children(element):
    """Children of *element* that are part of its local information."""
    idable = {id(child) for child in idable_children(element)}
    return [child for child in element.children if id(child) not in idable]


def id_path_of(element):
    """The root-to-node sequence of ``(tag, id)`` pairs identifying *element*.

    Defined for IDable nodes: each IDable node is uniquely identified
    by the IDs on its root path (Section 3.2).
    """
    return [node_id(node) for node in element.path_from_root()]


def format_id_path(id_path):
    """Human-readable rendering of an ID path, e.g. ``usRegion=NE/state=PA``."""
    return "/".join(f"{tag}={identifier}" for tag, identifier in id_path)


def id_paths_overlap(a, b):
    """Whether the regions rooted at id paths *a* and *b* overlap.

    They do exactly when one path is a prefix of the other (equal paths
    included): the shorter one's subtree contains the longer one's.
    Entries compare as whole ``(tag, id)`` tuples, so an id containing
    ``/`` is never mistaken for a deeper path.
    """
    shared = min(len(a), len(b))
    return tuple(a[:shared]) == tuple(b[:shared])


def find_by_id_path(root, id_path, required=False):
    """Resolve *id_path* starting at *root* (whose ID must match).

    Returns the element, or ``None`` when absent (unless *required*).
    """
    if not id_path or node_id(root) != tuple(id_path[0]):
        if required:
            raise UnknownNodeError(
                f"id path {format_id_path(id_path)} does not start at "
                f"{node_id(root)}"
            )
        return None
    current = root
    for tag, identifier in id_path[1:]:
        current = current.child(tag, id=identifier)
        if current is None:
            if required:
                raise UnknownNodeError(
                    f"id path {format_id_path(id_path)} broken at "
                    f"{tag}={identifier}"
                )
            return None
    return current


def id_stub(element, keep_status=False):
    """A bare ID element for *element*: tag + id (+ optionally status)."""
    stub = Element(element.tag)
    identifier = element.attrib.get("id")
    if identifier is not None:
        stub.set("id", identifier)
    if keep_status:
        raw = element.get(STATUS_ATTRIBUTE)
        if raw is not None:
            stub.set(STATUS_ATTRIBUTE, raw)
    return stub


def local_information(element, keep_internal=False):
    """The local information of *element* as a detached fragment.

    Contains (1) all attributes of the node, (2) all non-IDable
    children and their subtrees, and (3) ID stubs for the IDable
    children.  With ``keep_internal=False``, system attributes are
    omitted from the copy.
    """
    clone = Element(element.tag)
    for name, value in element.attrib.items():
        if keep_internal or name not in INTERNAL_ATTRIBUTES:
            clone.set(name, value)
    idable = {id(child) for child in idable_children(element)}
    for child in element.children:
        if isinstance(child, Element) and id(child) in idable:
            clone.append(id_stub(child))
        else:
            clone.append(child.copy())
    return clone


def local_id_information(element):
    """The local ID information of *element* as a detached fragment.

    Contains the node's own ID and ID stubs for its IDable children.
    """
    clone = id_stub(element)
    for child in idable_children(element):
        clone.append(id_stub(child))
    return clone


def iter_idable(root):
    """Yield every IDable node in the tree rooted at *root*, top-down.

    The root is assumed IDable (it is, by definition, when it is a
    document root).
    """
    stack = [root]
    while stack:
        element = stack.pop()
        yield element
        stack.extend(reversed(idable_children(element)))


def subtree_materialized(element):
    """Whether every IDable node at or below *element* is stored here
    with its local information (none is a bare ID stub)."""
    return all(get_status(node).has_local_information
               for node in iter_idable(element))


def iter_idable_with_paths(root):
    """Yield ``(id_path, element)`` for every IDable node, top-down.

    Paths are built incrementally during one preorder traversal --
    O(nodes) total, unlike calling :func:`id_path_of` per node, which
    walks to the root each time (O(nodes x depth)).  This is both the
    fast way to enumerate paths (e.g. ``owned_paths``) and the
    from-scratch construction of the id-path index in
    :class:`~repro.core.database.SensorDatabase`.
    """
    stack = [((node_id(root),), root)]
    while stack:
        path, element = stack.pop()
        yield path, element
        stack.extend(
            (path + (node_id(child),), child)
            for child in reversed(idable_children(element))
        )


def lowest_idable_ancestor_or_self(element):
    """The element itself if IDable-in-place, else its nearest such ancestor.

    "IDable-in-place" uses the local uniqueness test; in a well-formed
    site fragment the chain of such ancestors reaches the root.
    """
    current = element
    while current.parent is not None:
        if _locally_idable(current):
            return current
        current = current.parent
    return current

"""Schema evolution: runtime changes to the document (Section 4).

The paper's XML data model exists partly so the schema can evolve
freely: "Schema changes that do not affect the hierarchy of IDable
nodes can be done locally by the organizing agent that owns the
relevant fragment" -- adding/removing attributes and non-IDable nodes
is just :meth:`SensorDatabase.apply_update`.  Changes to the IDable
hierarchy itself -- adding or deleting IDable nodes -- "are performed by
the organizing agent that owns the parent of the affected IDable node";
this module implements those, leaving caches elsewhere transiently
inconsistent exactly as the paper accepts.
"""

from repro.core.errors import CoreError
from repro.core.idable import (
    format_id_path,
    idable_children,
    node_id,
)
from repro.core.status import Status, get_status, set_status, set_timestamp
from repro.xmlkit.nodes import Element


def add_idable_child(database, parent_path, tag, identifier,
                     attributes=None, values=None):
    """Create a new IDable node under *parent_path* (owner side).

    The caller must own the parent.  The new node starts owned by the
    same site with empty-but-complete local information, timestamped;
    the parent's local information (its child ID list) is extended,
    which is what makes the node visible to queries.

    Returns the created element.  DNS registration is the network
    layer's job (the mapping lives only in DNS).
    """
    parent = database.find(parent_path, required=True)
    if get_status(parent) is not Status.OWNED:
        raise CoreError(
            f"cannot add {tag}={identifier}: site {database.site_id!r} "
            f"does not own the parent {format_id_path(parent_path)}"
        )
    if parent.child(tag, id=identifier) is not None:
        raise CoreError(
            f"{tag}={identifier} already exists under "
            f"{format_id_path(parent_path)}"
        )
    element = Element(tag, attrib={"id": identifier})
    for name, value in (attributes or {}).items():
        if name in ("id", "status"):
            raise CoreError(f"new nodes may not set the {name!r} attribute")
        element.set(name, value)
    for child_tag, text in (values or {}).items():
        element.append(Element(child_tag, text=str(text)))
    set_status(element, Status.OWNED)
    node_ts = database.clock()
    set_timestamp(element, node_ts)
    parent.append(element)
    parent_ts = database.clock()
    set_timestamp(parent, parent_ts)
    database._journal_record(
        "add_node",
        parent=database._journal_path(parent_path),
        tag=tag, id=identifier,
        attributes=dict(attributes) if attributes else None,
        values={k: str(v) for k, v in values.items()} if values else None,
        node_ts=node_ts, parent_ts=parent_ts,
    )
    return element


def remove_idable_child(database, path):
    """Delete the IDable node at *path* (owner-of-parent side).

    The caller must own the parent; the node's whole stored subtree
    goes with it.  Refuses if a descendant is owned by this site under
    a *different* assignment boundary... any owned descendant is fine
    (it is owned here too, and leaves with the node), but a node that
    is merely cached here while owned elsewhere cannot be deleted by
    this site.
    """
    element = database.find(path, required=True)
    parent = element.parent
    if parent is None:
        raise CoreError("cannot remove the document root")
    if get_status(parent) is not Status.OWNED:
        raise CoreError(
            f"cannot remove {format_id_path(path)}: site "
            f"{database.site_id!r} does not own the parent"
        )
    # When only an ID stub is stored here, the node's data is owned
    # elsewhere -- but the parent's owner controls membership
    # (Section 4), so the stub is dropped and the remote copy becomes
    # an orphan the same transient way remote caches do.
    removed = _collect_paths(element, [list(entry) for entry in path])
    parent.remove(element)
    parent_ts = database.clock()
    set_timestamp(parent, parent_ts)
    database._journal_record(
        "remove_node", path=database._journal_path(path),
        parent_ts=parent_ts)
    return removed


def _collect_paths(element, base_path):
    paths = [tuple(tuple(p) for p in base_path)]
    for child in idable_children(element):
        child_path = base_path + [list(node_id(child))]
        paths.extend(_collect_paths(child, child_path))
    return paths


def rename_field(database, path, old_tag, new_tag):
    """A local non-IDable schema change: rename a value field.

    The whole field moves under the new tag: its attributes, its
    children and its text.  Demonstrates the "transparent schema
    changes" story: purely local, no coordination, transient cache
    inconsistency elsewhere.
    """
    element = database.find(path, required=True)
    if get_status(element) is not Status.OWNED:
        raise CoreError(
            f"cannot rename fields of {format_id_path(path)}: not owned"
        )
    child = element.child(old_tag)
    if child is None or child.id is not None:
        raise CoreError(
            f"{old_tag!r} is not a non-IDable field of "
            f"{format_id_path(path)}"
        )
    replacement = Element(new_tag, attrib=child.attrib, text=child.text)
    children = list(child.children)
    element.remove(child)
    child.clear_children()
    replacement.extend(children)
    element.append(replacement)
    when = database.clock()
    set_timestamp(element, when)
    database._journal_record(
        "rename_field", path=database._journal_path(path),
        old=old_tag, new=new_tag, ts=when)
    return replacement

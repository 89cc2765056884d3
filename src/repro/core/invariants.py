"""Checkers for the paper's storage and cache invariants.

* **(I1)** each site stores the local information of the nodes it owns;
* **(I2)** if (at least) the ID of a node is stored, the local ID
  information of its parent is also stored (hence of all ancestors);
* **(C1)/(C2)** cached fragments are unions of local (ID) informations
  closed under "parent's local ID information".

These functions return lists of human-readable violation strings
(empty = clean) so tests and property checks can assert precisely.
"""

from repro.core.idable import (
    find_by_id_path,
    format_id_path,
    id_path_of,
    idable_children,
    node_id,
    non_idable_children,
)
from repro.core.status import Status, get_status, get_timestamp
from repro.xmlkit.compare import canonical_form
from repro.xmlkit.nodes import Element


def _duplicate_sibling_ids(element):
    seen = set()
    duplicates = []
    for child in element.element_children():
        identifier = child.attrib.get("id")
        if identifier is None:
            continue
        key = (child.tag, identifier)
        if key in seen:
            duplicates.append(key)
        seen.add(key)
    return duplicates


def structural_violations(db):
    """Checks needing no reference document.

    * sibling IDs are unique (so ID paths resolve deterministically);
    * every stored IDable node has a parseable status;
    * a node storing more than its ID implies its parent stores local
      ID information (the structural face of I2);
    * ``incomplete`` nodes are bare stubs;
    * data-bearing nodes carry timestamps.
    """
    problems = []
    for element in db.iter_idable():
        path = format_id_path(id_path_of(element))
        for key in _duplicate_sibling_ids(element):
            problems.append(f"{path}: duplicate sibling id {key}")
        try:
            status = get_status(element)
        except Exception as exc:  # invalid attribute value
            problems.append(f"{path}: {exc}")
            continue
        parent = element.parent
        if parent is not None and status is not Status.INCOMPLETE:
            if not get_status(parent).has_id_information:
                problems.append(
                    f"{path}: stored with status {status.value} but parent "
                    "lacks local ID information (violates I2)"
                )
        if status is Status.INCOMPLETE:
            extra_attrs = set(element.attrib) - {"id", "status"}
            if extra_attrs or element.children or element.text is not None:
                problems.append(
                    f"{path}: incomplete node is not a bare stub "
                    f"(attrs={sorted(extra_attrs)}, "
                    f"children={len(element.children)})"
                )
        if status.has_local_information and get_timestamp(element) is None:
            problems.append(f"{path}: data-bearing node has no timestamp")
    return problems


def _strip_for_compare(element):
    clone = element.copy()
    for node in clone.iter():
        node.delete_attribute("status")
        node.delete_attribute("timestamp")
    return clone


def _local_info_signature(element):
    """Canonical form of a node's local information (ids of children +
    attributes + non-IDable content), ignoring system attributes."""
    shell = Element(element.tag, text=element.text)
    for name, value in element.attrib.items():
        if name not in ("status", "timestamp"):
            shell.set(name, value)
    for child in non_idable_children(element):
        shell.append(_strip_for_compare(child))
    for child in sorted(
        (node_id(c) for c in idable_children(element)), key=repr
    ):
        stub = Element(child[0])
        if child[1] is not None:
            stub.set("id", child[1])
        shell.append(stub)
    return canonical_form(shell)


def violations_against_reference(db, reference_root):
    """Content checks against the ground-truth document.

    * ``owned``/``complete`` nodes carry exactly the reference node's
      local information;
    * ``id-complete`` nodes list exactly the reference node's IDable
      children (local ID information is all-or-nothing).
    """
    problems = []
    for element in db.iter_idable():
        path = id_path_of(element)
        label = format_id_path(path)
        reference = find_by_id_path(reference_root, path)
        if reference is None:
            problems.append(f"{label}: node does not exist in the reference")
            continue
        status = get_status(element)
        if status.has_local_information:
            if _local_info_signature(element) != _local_info_signature(reference):
                problems.append(
                    f"{label}: local information differs from reference"
                )
        elif status is Status.ID_COMPLETE:
            stored = {node_id(c) for c in idable_children(element)}
            expected = {node_id(c) for c in idable_children(reference)}
            if stored != expected:
                problems.append(
                    f"{label}: id-complete node's child IDs differ from "
                    f"reference (missing={sorted(expected - stored, key=repr)}, "
                    f"extra={sorted(stored - expected, key=repr)})"
                )
    return problems


def ownership_violations(databases, owner_map):
    """Check I1 across the whole deployment.

    Every node in *owner_map* must be stored with status ``owned`` at
    its owner, and owned nowhere else.
    """
    problems = []
    for path, site in owner_map.items():
        label = format_id_path(path)
        db = databases.get(site)
        if db is None:
            problems.append(f"{label}: owner site {site!r} has no database")
            continue
        element = db.find(path)
        if element is None:
            problems.append(f"{label}: not stored at its owner {site!r} "
                            "(violates I1)")
        elif get_status(element) is not Status.OWNED:
            problems.append(
                f"{label}: stored at owner {site!r} with status "
                f"{get_status(element).value}, expected owned (violates I1)"
            )
    for site, db in databases.items():
        for element in db.owned_nodes():
            path = tuple(tuple(e) for e in id_path_of(element))
            actual_owner = owner_map.get(path)
            if actual_owner != site:
                problems.append(
                    f"{format_id_path(path)}: marked owned at {site!r} but "
                    f"the owner map says {actual_owner!r}"
                )
    return problems


def dns_ownership_violations(databases, authoritative_site):
    """Ownership follows DNS: each live site owns exactly the paths DNS
    names it for.

    *databases* maps every live site to its database;
    *authoritative_site(id_path)* is the site DNS names for a path
    (:meth:`repro.net.dns.DnsServer.authoritative_site`).  Every path a
    live site stores is checked: it is owned at the site DNS names when
    that site is live, and nowhere else.
    """
    owners = {}
    for site, db in databases.items():
        for element in db.iter_idable():
            path = tuple(tuple(e) for e in id_path_of(element))
            holders = owners.setdefault(path, [])
            if get_status(element) is Status.OWNED:
                holders.append(site)
    problems = []
    for path, holders in owners.items():
        named = authoritative_site(path)
        if sorted(holders) != ([named] if named in databases else []):
            problems.append(
                f"{format_id_path(path)}: owned at {sorted(holders)} but "
                f"DNS names {named!r}")
    return problems


def fragment_violations(fragment, reference_root=None):
    """C1/C2 checks for a wire-format answer fragment.

    The fragment must be a status-annotated tree whose every node obeys
    the structural rules; with a reference, data-bearing nodes must
    carry full local (ID) information.  Statuses are the sender's, so a
    data-bearing node may be ``owned`` (its receiver records it
    ``complete``) or ``complete``.
    """
    from repro.core.database import SensorDatabase

    db = SensorDatabase(fragment)
    problems = structural_violations(db)
    # Wire fragments may omit timestamps only on ID-only nodes; the
    # structural check already enforces that, so nothing extra here.
    if reference_root is not None:
        problems.extend(violations_against_reference(db, reference_root))
    return problems


def validate_deployment(databases, global_root, owner_map=None):
    """All invariant checks across a set of site databases."""
    problems = []
    for site, db in databases.items():
        for problem in structural_violations(db):
            problems.append(f"[{site}] {problem}")
        for problem in violations_against_reference(db, global_root):
            problems.append(f"[{site}] {problem}")
    if owner_map is not None:
        problems.extend(ownership_violations(databases, owner_map))
    return problems

"""Data partitioning: assigning document ownership to sites (Section 3.2).

A :class:`PartitionPlan` maps site names to sets of IDable nodes (by
ID path).  A site owns an assigned node and, implicitly, everything
below it up to the next assignment boundary -- matching how the paper's
experiments carve the hierarchy ("assign the 6 neighborhoods to 6
sites, the 2 cities to two sites, and the rest to one site").

The plan validates the paper's two ownership constraints (every node
has exactly one owner; only IDable nodes may be owned separately from
their parent -- automatic here since assignments are ID paths) and
builds each site's initial :class:`~repro.core.database.SensorDatabase`
satisfying invariants I1 and I2.
"""

from repro.core.database import SensorDatabase
from repro.core.errors import PartitionError, UnknownNodeError
from repro.core.idable import (
    find_by_id_path,
    format_id_path,
    id_path_of,
    id_stub,
    idable_children,
    iter_idable,
    node_id,
    non_idable_children,
)
from repro.core.status import Status, set_status, set_timestamp
from repro.xpath.analysis import dns_name_for_id_path


def _as_path(path):
    return tuple(tuple(entry) for entry in path)


class PartitionPlan:
    """An ownership assignment of IDable nodes to sites."""

    def __init__(self, assignments):
        """*assignments* maps site name -> iterable of ID paths."""
        self.assignments = {
            site: [_as_path(path) for path in paths]
            for site, paths in assignments.items()
        }
        self._check_disjoint()

    def _check_disjoint(self):
        seen = {}
        for site, paths in self.assignments.items():
            for path in paths:
                if path in seen and seen[path] != site:
                    raise PartitionError(
                        f"node {format_id_path(path)} assigned to both "
                        f"{seen[path]!r} and {site!r}"
                    )
                seen[path] = site

    @property
    def sites(self):
        return sorted(self.assignments)

    # ------------------------------------------------------------------
    def owner_map(self, global_root):
        """Owner of every IDable node: nearest assigned ancestor-or-self.

        Returns ``{id_path: site}``.  Raises :class:`PartitionError`
        when some node has no owner (the root is unassigned) or an
        assigned path does not exist in the document.
        """
        assigned = {}
        for site, paths in self.assignments.items():
            for path in paths:
                if find_by_id_path(global_root, path) is None:
                    raise PartitionError(
                        f"assigned node {format_id_path(path)} does not "
                        "exist in the document"
                    )
                assigned[path] = site

        owners = {}
        root_path = _as_path(id_path_of(global_root))
        if root_path not in assigned:
            raise PartitionError(
                "the document root must be assigned to a site (every node "
                "needs exactly one owner)"
            )

        def walk(element, current_owner):
            path = _as_path(id_path_of(element))
            current_owner = assigned.get(path, current_owner)
            owners[path] = current_owner
            for child in idable_children(element):
                walk(child, current_owner)

        walk(global_root, assigned[root_path])
        return owners

    # ------------------------------------------------------------------
    def build_databases(self, global_root, clocks=None, default_clock=None):
        """Build every site's initial database from the global document.

        *clocks* optionally maps site name to that site's clock
        callable.  Returns ``{site: SensorDatabase}``.
        """
        owners = self.owner_map(global_root)
        databases = {}
        for site in self.assignments:
            clock = (clocks or {}).get(site, default_clock)
            databases[site] = build_site_database(
                global_root, site, owners, clock=clock
            )
        return databases

    def dns_records(self, global_root, service="parking",
                    zone="intel-iris.net"):
        """DNS entries for every IDable node: ``{dns_name: owner site}``."""
        owners = self.owner_map(global_root)
        return {
            dns_name_for_id_path(path, service=service, zone=zone): site
            for path, site in owners.items()
        }

    def __repr__(self):
        counts = {site: len(paths) for site, paths in self.assignments.items()}
        return f"PartitionPlan({counts})"


def build_site_database(global_root, site, owner_map, clock=None):
    """The initial fragment for *site* under *owner_map* (I1 + I2).

    The fragment holds the local information of every node the site
    owns (status ``owned``, timestamped) and the local ID information
    of all their ancestors (status ``id-complete``); IDable children of
    owned nodes that are owned elsewhere appear as ``incomplete``
    stubs.
    """
    root_stub = id_stub(global_root, Status.INCOMPLETE)
    db = SensorDatabase(root_stub, clock=clock, site_id=site)

    for element in iter_idable(global_root):
        path = _as_path(id_path_of(element))
        if owner_map.get(path) == site:
            _materialize_owned(db, element)
    return db


def _materialize_owned(db, source):
    """Copy *source*'s local information into *db* as an owned node."""
    target = _ensure_ancestors(db, source)
    for name, value in source.attrib.items():
        if name != "status":
            target.set(name, value)
    target.set_text(source.text)
    for child in list(non_idable_children(target)):
        target.remove(child)
    for child in non_idable_children(source):
        target.append(child.copy())
    existing = {node_id(c) for c in idable_children(target)}
    for child in idable_children(source):
        if node_id(child) not in existing:
            stub = id_stub(child, Status.INCOMPLETE)
            target.append(stub)
    set_status(target, Status.OWNED)
    set_timestamp(target, db.clock())


def _ensure_ancestors(db, source):
    """Materialize *source*'s root path in *db* with local ID info (I2)."""
    chain = source.path_from_root()
    if node_id(chain[0]) != node_id(db.root):
        raise UnknownNodeError(
            f"document root mismatch: {node_id(chain[0])} vs "
            f"{node_id(db.root)}"
        )
    target = db.root
    for depth, source_node in enumerate(chain):
        if depth > 0:
            identifier = node_id(source_node)
            found = target.child(identifier[0], id=identifier[1])
            if found is None:
                found = id_stub(source_node, Status.INCOMPLETE)
                target.append(found)
            target = found
        is_last = depth == len(chain) - 1
        if not is_last and not _status_at_least_id_complete(target):
            _fill_id_information(target, source_node)
    return target


def _status_at_least_id_complete(element):
    from repro.core.status import get_status

    return get_status(element).has_id_information


def _fill_id_information(target, source_node):
    existing = {node_id(c) for c in idable_children(target)}
    for child in idable_children(source_node):
        if node_id(child) not in existing:
            stub = id_stub(child, Status.INCOMPLETE)
            target.append(stub)
    set_status(target, Status.ID_COMPLETE)

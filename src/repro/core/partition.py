"""Data partitioning: assigning document ownership to sites (Section 3.2).

A :class:`PartitionPlan` maps site names to sets of IDable nodes (by
ID path).  A site owns an assigned node and, implicitly, everything
below it up to the next assignment boundary -- matching how the paper's
experiments carve the hierarchy ("assign the 6 neighborhoods to 6
sites, the 2 cities to two sites, and the rest to one site").

The plan validates the paper's two ownership constraints (every node
has exactly one owner; only IDable nodes may be owned separately from
their parent -- automatic here since assignments are ID paths), and
:meth:`PartitionPlan.partition` carves the logical document into every
site's initial :class:`~repro.core.database.SensorDatabase`,
satisfying invariants I1 and I2, in one preorder walk.

The walk carries each node's ID path as its parent's plus one entry
(the prefix labelling of PAPERS.md: a label extends its parent's, so
no node is ever traced back to the root), and it hands a node only to
the sites that need it: its owner, which stores the node's local
information, and every site with an assignment below it, which stores
its local ID information (I2).  Each of those sites already holds the
node as the stub its parent appended, so nothing is looked up either.
Set-up costs O(document + the ancestor chains of the assigned nodes),
whatever the number of sites.
"""

from repro.core.database import SensorDatabase
from repro.core.errors import PartitionError
from repro.core.idable import (
    format_id_path,
    id_stub,
    idable_children,
    node_id,
    non_idable_children,
)
from repro.core.status import STATUS_ATTRIBUTE, TIMESTAMP_ATTRIBUTE, Status
from repro.xmlkit.nodes import NO_KIDS, copy_subtree, restamp


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
    def partition(self, root, clocks=None, default_clock=None):
        """Carve the document at *root* into every site's database.

        Returns ``(owners, databases)``.  *owners* maps the ID path of
        every IDable node, in document preorder (a parent before its
        children), to its owner: the nearest assigned ancestor-or-self.
        *databases* maps every site of the plan to its initial
        :class:`~repro.core.database.SensorDatabase`: the local
        information of each node it owns (status ``owned``, stamped by
        the site's clock), the local ID information of their ancestors
        (``id-complete``), and ``incomplete`` stubs for the rest.
        *clocks* optionally maps a site name to its clock callable;
        *default_clock* serves the others.

        Raises :class:`PartitionError` when the root is unassigned
        (some node would have no owner) or an assigned path does not
        exist in the document.
        """
        assigned = {}
        below = {}
        for site, paths in self.assignments.items():
            for path in paths:
                assigned[path] = site
                for depth in range(1, len(path)):
                    below.setdefault(path[:depth], {})[site] = None
        root_path = (node_id(root),)
        if root_path not in assigned:
            raise PartitionError(
                "the document root must be assigned to a site (every node "
                "needs exactly one owner)"
            )

        clocks = clocks or {}
        databases = {
            site: SensorDatabase(id_stub(root, Status.INCOMPLETE),
                                 clock=clocks.get(site, default_clock),
                                 site_id=site)
            for site in self.assignments
        }
        owners = {}
        # Every element the walk fills by direct edits; stamped once at
        # the end, above the copies it lists.
        built = []
        owned, id_complete = Status.OWNED.value, Status.ID_COMPLETE.value
        incomplete = Status.INCOMPLETE

        def holders(path, owner):
            return (owner, *below.get(path, ()))

        root_owner = assigned[root_path]
        stack = [(root_path, root, root_owner,
                  {site: databases[site].root
                   for site in holders(root_path, root_owner)})]
        while stack:
            path, source, owner, targets = stack.pop()
            owners[path] = owner
            children = idable_children(source)
            stubs = {}
            for site, target in targets.items():
                kids = [id_stub(child, incomplete) for child in children]
                attrib = target.attrib
                if site == owner:
                    # Local information: non-IDable content first, then
                    # the IDable children's stubs.
                    for name, value in source.attrib.items():
                        if name != STATUS_ATTRIBUTE:
                            attrib[name] = value
                    attrib[STATUS_ATTRIBUTE] = owned
                    attrib[TIMESTAMP_ATTRIBUTE] = \
                        repr(float(databases[site].clock()))
                    target.text = source.text
                    content = [copy_subtree(child)
                               for child in non_idable_children(source)]
                    content += kids
                else:
                    attrib[STATUS_ATTRIBUTE] = id_complete
                    content = kids
                for node in content:
                    node.parent = target
                target.children = content or NO_KIDS
                built.append(target)
                stubs[site] = kids
            for index in range(len(children) - 1, -1, -1):
                child = children[index]
                child_path = path + (node_id(child),)
                child_owner = assigned.get(child_path, owner)
                stack.append((child_path, child, child_owner,
                              {site: stubs[site][index]
                               for site in holders(child_path, child_owner)}))

        missing = [path for path in assigned if path not in owners]
        if missing:
            raise PartitionError(
                f"assigned node {format_id_path(missing[0])} does not "
                "exist in the document"
            )
        restamp(built)
        return owners, databases

    def __repr__(self):
        counts = {site: len(paths) for site, paths in self.assignments.items()}
        return f"PartitionPlan({counts})"

"""Ownership migration of IDable nodes between sites (Section 4).

A migration is a push and the flip:

1. **push**: the old owner sends the region's local information to the
   new owner, which merges it as an ordinary cached ``complete`` copy
   -- the same push read replication makes, idempotent, and unable to
   make its receiver an owner.  An update that lands at the old owner
   while the push is on the wire is carried by a second push;
2. **flip**: the new owner promotes its copy to ``owned``, the old
   owner demotes its own to ``complete``, and the DNS entries are
   re-mapped -- the commit point.  Each site's ``owned`` status follows
   DNS, so there is no half-moved state to repair: a migration whose
   pushes fail never flips, and its receiver holds only a cache.

After the flip the old owner forwards stale-DNS straggler updates and
answers straggler queries from its complete copy.

This module supplies the database-level pieces; the network layer
(:mod:`repro.net.oa`) sequences them and performs the DNS update.
"""

from repro.core.answer import AnswerBuilder
from repro.core.errors import CoreError
from repro.core.idable import format_id_path
from repro.core.status import Status, get_status


def export_local_information(database, id_paths):
    """The push, owner side: the wire fragment carrying the owned nodes
    at *id_paths*.

    Contains each node's local information plus the local ID information
    of its ancestors, so the receiver merges it like any cached answer
    (C1/C2 hold).
    """
    builder = AnswerBuilder(database)
    for id_path in id_paths:
        element = database.find(id_path, required=True)
        if get_status(element) is not Status.OWNED:
            raise CoreError(
                f"cannot export {format_id_path(id_path)}: not owned at "
                f"site {database.site_id!r}"
            )
        builder.include_local_information(element)
    return builder.build()


def relinquish_ownership(database, id_path):
    """The flip, old-owner side: demote the local copy to ``complete``.

    The old owner keeps the (now cached) data, which lets it answer
    stale-DNS stragglers or serve as a warm replica.
    """
    return database.release_ownership(id_path)

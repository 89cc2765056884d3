"""The per-site replication manager: push out, fail over.

One :class:`ReplicationManager` registers with each organizing agent
whose ``OAConfig.subsystems`` lists a
:class:`~repro.replication.ReplicationConfig` with ``k > 0`` (see
:mod:`repro.net.subsystem` for the hooks).  A replica is an ordinary
cached copy, and failover is an ordinary query:

* **Owner**: on bootstrap, after every applied update and on adoption,
  the owner exports the changed nodes' local information as a wire
  fragment and fire-and-forgets a ``ReplicateMessage`` to its k nearest
  peers on the sorted site ring.
* **Ring peer**: merges the push into its own fragment with
  ``store_fragment``, as cached ``complete`` data -- the newer-timestamp
  rule drops a reordered older push, the WAL journals it like any cache
  fill, and the site's own users are answered from it like any cache.
* **Failover client**: when a dispatch group exhausts its retry budget
  against a dead owner, :meth:`on_dispatch_failure` re-sends the group,
  unchanged and flagged ``no_forward``, to the owner's ring peers in
  ring order.  A peer answers from its fragment by the ordinary walk,
  which applies the ask's own freshness bound, and says which asks it
  left unanswered; a reply that left nothing is served.

Without the config nothing here exists: no messages are sent, no
envelope fields are added, and answers are byte-identical to a
replication-free build.
"""

import functools
import threading

from repro.core.answer import AnswerBuilder, Subquery
from repro.core.gather import SubqueryFailure
from repro.core.status import TIMESTAMP_ATTRIBUTE, get_status
from repro.net.errors import NetError
from repro.net.messages import AckMessage, as_id_path
from repro.net.oa import ask
from repro.replication.messages import ReplicateMessage


def replica_peers(owner, sites, k):
    """The k ring successors of *owner* among *sites* (deterministic).

    Sites sort lexically into a ring; an owner's replicas are the next
    k distinct sites clockwise.  Every site computes the same answer
    from the static partition plan, so askers know where to fail over
    without any membership protocol.
    """
    ring = sorted(set(sites))
    if owner not in ring:
        return []
    start = ring.index(owner)
    return [ring[(start + step) % len(ring)]
            for step in range(1, min(k, len(ring) - 1) + 1)]


def copy_age(fragment, now):
    """How old *fragment*'s oldest data timestamp is at *now* (0 when
    it carries none): the age a served reply is reported with."""
    stamps = [] if fragment is None else [
        float(node.attrib[TIMESTAMP_ATTRIBUTE]) for node in fragment.iter()
        if TIMESTAMP_ATTRIBUTE in node.attrib]
    return round(max(0.0, now - min(stamps, default=now)), 3)


class ReplicationManager:
    """One site's replication state machine (see module docstring)."""

    name = "replication"

    def __init__(self, agent, config):
        self.agent = agent
        self.config = config
        self.topology = ()
        self._lock = threading.Lock()
        self.stats = {
            "replicated_batches": 0,
            "replicated_bytes": 0,
            "replica_batches_accepted": 0,
            "failover_attempts": 0,
            "failover_served": 0,
            "replica_too_stale": 0,
            "failover_no_replica": 0,
        }

    # -- the seam (repro.net.subsystem) ----------------------------------
    def handlers(self):
        return {ReplicateMessage: self._handle_replicate}

    def on_update(self, id_path):
        """An update landed on an owned node: push it again."""
        self._replicate([as_id_path(id_path)])

    def on_ownership_change(self, paths, gained, peer):
        """Adopted regions are this site's to push.  A region handed
        away needs nothing: its ring peers keep an ordinary cached copy,
        and the new owner pushes to its own ring."""
        if gained:
            self._replicate([as_id_path(path) for path in paths])

    def _handle_replicate(self, message):
        """Merge a push into this site's fragment as cached data."""
        self.agent.database.store_fragment(message.fragment)
        with self._lock:
            self.stats["replica_batches_accepted"] += 1
        return AckMessage(message.message_id, ok=True,
                          sender=self.agent.site_id)

    # -- topology -------------------------------------------------------
    def set_topology(self, sites):
        """Pin the static site ring (from the partition plan)."""
        self.topology = tuple(sorted(set(sites)))

    def peers(self):
        """This site's own replica set."""
        return replica_peers(self.agent.site_id, self.topology,
                             self.config.k)

    # -- owner side: push out -------------------------------------------
    def replicate_owned(self, peers=None):
        """Push every owned node to *peers* (default: the replica set)."""
        self._replicate([as_id_path(path)
                         for path in self.agent.database.owned_paths()],
                        peers)

    def _replicate(self, paths, peers=None):
        peers = self.peers() if peers is None else peers
        if not peers or not paths:
            return
        database = self.agent.database
        builder = AnswerBuilder(database)
        for path in paths:
            element = database.find(path)
            if element is not None and \
                    get_status(element).has_local_information:
                builder.include_local_information(element)
        fragment = builder.build()
        if fragment is None:
            return
        message = ReplicateMessage(fragment, sender=self.agent.site_id)
        size = message.encoded_size()
        for peer in peers:
            # Fire-and-forget: a lost push is repaired by the next
            # update's, and the merge's newer-timestamp rule makes
            # reordering safe.
            self.agent.tell(peer, message)
        with self._lock:
            self.stats["replicated_batches"] += len(peers)
            self.stats["replicated_bytes"] += size * len(peers)

    # -- asker side: failover -------------------------------------------
    def on_dispatch_failure(self, target, subqueries, attempts, causes):
        """Re-send a dead owner's subqueries to its ring peers.

        Each peer in ring order gets one gated ``no_forward`` ask for
        the subqueries no earlier peer served (this site, when it is a
        peer, answers them itself).  A subquery is served by the first
        reply that left nothing unanswered: the reply comes back as the
        ordinary one, its subquery tagged ``served_by`` (replica, owner
        and the age of the oldest timestamp it carries).  Otherwise it
        comes back a :class:`SubqueryFailure`, flagged
        ``replica_too_stale`` when a peer left it unanswered only for
        being too old for its bound.  Returns ``None`` when the owner
        has no peers: the caller's ordinary partial-answer path then
        runs untouched.
        """
        peers = replica_peers(target, self.topology, self.config.k)
        if not peers:
            return None
        now = float(self.agent.clock())
        replies = [None] * len(subqueries)
        stale = [False] * len(subqueries)
        for peer in peers:
            waiting = [index for index, subquery in enumerate(subqueries)
                       if subquery.served_by is None]
            if not waiting:
                break
            try:
                answers = self._ask(
                    peer, [subqueries[index].query for index in waiting], now)
            except (OSError, NetError):
                continue
            for index, (fragment, left) in zip(waiting, answers):
                subquery = subqueries[index]
                if left:
                    stale[index] |= set(left) == {Subquery.STALE}
                    continue
                subquery.served_by = {
                    "id_path": [list(entry) for entry in subquery.anchor_path],
                    "query": subquery.query, "replica": peer, "owner": target,
                    "age": copy_age(fragment, now)}
                replies[index] = fragment
        for index, subquery in enumerate(subqueries):
            if subquery.served_by is None:
                cause = (f"replicas of site {target!r}: copy too stale for "
                         "the bound" if stale[index] else
                         f"no replica of site {target!r} holds the region")
                replies[index] = SubqueryFailure(subquery, attempts,
                                                 [*causes, cause])
                replies[index].replica_too_stale = stale[index]
        served = sum(subquery.served_by is not None for subquery in subqueries)
        with self._lock:
            self.stats["failover_attempts"] += 1
            self.stats["failover_served"] += served
            self.stats["replica_too_stale"] += sum(stale)
            self.stats["failover_no_replica"] += \
                len(subqueries) - served - sum(stale)
        return replies

    def _ask(self, peer, queries, now):
        """``[(fragment, left)]``: *peer*'s ``no_forward`` answers to
        *queries*, through the agent's gated request (or this site's own
        fragment when it is the peer)."""
        if peer == self.agent.site_id:
            return [self.agent.driver.answer_unforwarded(query, now=now)
                    for query in queries]
        return ask(functools.partial(self.agent.request, peer,
                                     span="send-failover"),
                   queries, now, self.agent.site_id, no_forward=True)

    # -- introspection ---------------------------------------------------
    def metrics(self):
        """Replication counters for the metrics registry / EXPLAIN."""
        with self._lock:
            counters = dict(self.stats)
        counters["peers"] = list(self.peers())
        return counters

    def explain(self, context):
        """The read-replication view: k, this site's ring peers, and
        each plan entry's failover candidates."""
        for entry in context.entries:
            if entry["target"] is None:
                continue
            entry["replicas"] = replica_peers(
                entry["target"], self.topology, self.config.k)
            if entry["replicas"]:
                entry.setdefault("notes", []).append(
                    "failover: " + ", ".join(entry["replicas"]))
        peers = list(self.peers())
        context.add_section(self.name, {
            "enabled": True,
            "k": self.config.k,
            "peers": peers,
        }, [f"replication: k={self.config.k}"
            f" peers={', '.join(peers) or '(none)'}"])

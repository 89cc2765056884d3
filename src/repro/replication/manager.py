"""The per-site replication manager: replicate out, serve back, fail over.

One :class:`ReplicationManager` registers with each organizing agent
whose ``OAConfig.subsystems`` lists a
:class:`~repro.replication.ReplicationConfig` with ``k > 0`` (see
:mod:`repro.net.subsystem` for the hooks).  It plays three roles at
once:

* **Owner**: after every applied update (and on bootstrap/adoption)
  the owner exports the changed nodes' local information as a wire
  fragment and fire-and-forgets a ``ReplicateMessage`` -- stamped with
  the data timestamps and the database's subtree version -- to its k
  nearest peers on the sorted site ring.  Loss is tolerated: the next
  update re-replicates, and stamps let replicas discard reordered
  stale batches.
* **Replica**: accepted fragments merge into one mini sensor database
  per remote owner (never into the site's own fragment -- replica data
  must not masquerade as this site's cache), with per-path stamps
  recording data timestamp, version and arrival time (replication lag).
* **Failover client**: when a dispatch group exhausts its retry budget
  against a dead owner, :meth:`on_dispatch_failure` asks its replicas for
  the region and serves the copy **only** when its stamp satisfies the
  subquery's freshness bound -- the caller's exact bound, which every
  subquery carries verbatim.  A too-stale replica degrades to the
  ordinary partial answer, annotated ``replica_too_stale``.

Without the config nothing here exists: no messages are sent, no
envelope fields are added, and answers are byte-identical to a
replication-free build.
"""

import threading

from repro.core.answer import AnswerBuilder
from repro.core.database import SensorDatabase
from repro.core.gather import ReplicaServed, SubqueryFailure
from repro.core.semcache import canonicalize
from repro.core.status import get_status, get_timestamp
from repro.net.errors import NetError
from repro.net.messages import AckMessage, as_id_path
from repro.replication.messages import (
    RehydrateAnswer,
    RehydrateRequest,
    ReplicaRetireMessage,
    ReplicateMessage,
)


def replica_peers(owner, sites, k):
    """The k ring successors of *owner* among *sites* (deterministic).

    Sites sort lexically into a ring; an owner's replicas are the next
    k distinct sites clockwise.  Every site computes the same answer
    from the static partition plan, so askers know where to fail over
    without any membership protocol.
    """
    ring = sorted(set(sites))
    if k <= 0 or owner not in ring or len(ring) < 2:
        return []
    start = ring.index(owner)
    peers = []
    for step in range(1, len(ring)):
        peer = ring[(start + step) % len(ring)]
        if peer != owner:
            peers.append(peer)
        if len(peers) >= k:
            break
    return peers


def freshness_bound(query):
    """The tightest freshness tolerance *query* demands, in seconds.

    The minimum ``N`` over every consistency conjunct
    (``timestamp() > current-time() - N``, sugar included) in the
    query's canonical form -- the bound replica data must satisfy to be
    served in this query's answer.  ``None`` means the query tolerates
    arbitrarily old data (or does not parse).
    """
    try:
        return canonicalize(query).min_tolerance
    except Exception:
        return None


def _is_prefix(shorter, longer):
    return len(shorter) <= len(longer) and \
        tuple(longer[:len(shorter)]) == tuple(shorter)


def region_age(stamps, anchor_path, now):
    """How old the replicated region under *anchor_path* is, or ``None``.

    The region is only as fresh as its **oldest** stamped node at or
    below the anchor -- a conservative reading that never vouches for
    a subtree fresher than its stalest member.  ``None`` means the
    replica holds no data for the region at all.
    """
    anchor = as_id_path(anchor_path)
    related = [
        stamp[0] for path, stamp in stamps.items()
        if _is_prefix(anchor, path)
    ]
    if not related:
        return None
    return max(0.0, float(now) - min(related))


class _ReplicaStore:
    """This site's copy of one remote owner's fragment, plus stamps.

    A mini :class:`SensorDatabase` (root-rooted, like any wire
    fragment) kept strictly apart from the site's own database, and a
    per-path stamp table ``{id_path: (timestamp, version, received)}``.
    Reordered replication batches are resolved by version: an arriving
    stamp older than the stored one is dropped.
    """

    def __init__(self, owner, clock):
        self.owner = owner
        self.clock = clock
        self.database = None
        self.stamps = {}

    def merge(self, fragment, stamps, now):
        accepted = 0
        fresh = {}
        for path, (timestamp, version) in stamps.items():
            existing = self.stamps.get(path)
            if existing is not None and existing[1] > version:
                continue
            fresh[path] = (float(timestamp), int(version), float(now))
            accepted += 1
        if not fresh:
            return 0
        if fragment is not None:
            if self.database is None:
                self.database = SensorDatabase(
                    fragment.copy(), clock=self.clock,
                    site_id=f"replica:{self.owner}")
            else:
                self.database.store_fragment(fragment)
        self.stamps.update(fresh)
        return accepted

    def wire_stamps(self):
        return {path: (stamp[0], stamp[1])
                for path, stamp in self.stamps.items()}

    def export(self, anchor_paths=()):
        """The stored copy as a wire fragment plus its covering stamps.

        With *anchor_paths* only those regions (subtrees) are exported;
        without, the whole per-owner copy ships -- the rehydration
        payload a restarting owner asks for.
        """
        if self.database is None:
            return None, {}
        builder = AnswerBuilder(self.database)
        if anchor_paths:
            stamps = {}
            for anchor in anchor_paths:
                anchor = as_id_path(anchor)
                element = self.database.find(anchor)
                if element is None or \
                        not get_status(element).has_local_information:
                    continue
                builder.include_subtree(element)
                for path, stamp in self.stamps.items():
                    if _is_prefix(anchor, path):
                        stamps[path] = (stamp[0], stamp[1])
        else:
            for element in self.database.iter_idable():
                if get_status(element).has_local_information:
                    builder.include_local_information(element)
            stamps = self.wire_stamps()
        return builder.build(), stamps

    def ages(self, now):
        if not self.stamps:
            return None
        deltas = [max(0.0, float(now) - stamp[0])
                  for stamp in self.stamps.values()]
        return {
            "entries": len(deltas),
            "min_age": round(min(deltas), 3),
            "max_age": round(max(deltas), 3),
        }


class ReplicationManager:
    """One site's replication state machine (see module docstring)."""

    name = "replication"

    def __init__(self, agent, config):
        self.agent = agent
        self.config = config
        self.topology = ()
        self._stores = {}
        self._lock = threading.Lock()
        self.stats = {
            "replicated_batches": 0,
            "replicated_entries": 0,
            "replicated_bytes": 0,
            "replica_batches_accepted": 0,
            "replica_entries_accepted": 0,
            "replica_batches_stale_dropped": 0,
            "failover_attempts": 0,
            "failover_served": 0,
            "replica_too_stale": 0,
            "failover_no_replica": 0,
            "rehydrations_served": 0,
            "retires_sent": 0,
            "retired_entries": 0,
            "lag_count": 0,
            "lag_total": 0.0,
            "lag_max": 0.0,
        }

    # -- the seam (repro.net.subsystem) ----------------------------------
    def handlers(self):
        return {
            ReplicateMessage: self._handle_replicate,
            ReplicaRetireMessage: self._handle_retire,
            RehydrateRequest: self._handle_rehydrate,
        }

    def on_update(self, id_path):
        """An update landed on an owned node: re-replicate it."""
        self._replicate([as_id_path(id_path)])

    def on_ownership_change(self, paths, gained, peer):
        """Adopted regions are this site's to replicate; regions handed
        away must stop being vouched for by this site's ring."""
        if gained:
            self._replicate([as_id_path(path) for path in paths])
        else:
            self.retire_paths(paths)

    def _handle_replicate(self, message):
        accepted = self.accept(message)
        return AckMessage(message.message_id, ok=True,
                          detail=str(accepted), sender=self.agent.site_id)

    def _handle_retire(self, message):
        dropped = self.retire(message.owner, message.id_paths)
        return AckMessage(message.message_id, ok=True, detail=str(dropped),
                          sender=self.agent.site_id)

    def _handle_rehydrate(self, message):
        """Serve this site's replica of *owner*'s data (or an empty
        answer when none is held -- the asker tries the next peer)."""
        fragment, stamps = self.export_for(message.owner, message.id_paths)
        return RehydrateAnswer(message.message_id, message.owner,
                               fragment=fragment, stamps=stamps,
                               sender=self.agent.site_id)

    # -- topology -------------------------------------------------------
    def set_topology(self, sites):
        """Pin the static site ring (from the partition plan)."""
        self.topology = tuple(sorted(set(sites)))

    def peers(self):
        """This site's own replica set."""
        return replica_peers(self.agent.site_id, self.topology,
                             self.config.k)

    # -- owner side: replicate out --------------------------------------
    def replicate_owned(self):
        """Bootstrap: push every owned node to this site's replica set."""
        self._replicate([as_id_path(path)
                         for path in self.agent.database.owned_paths()])

    def retire_paths(self, id_paths):
        """Ring re-placement after migrating *id_paths* away.

        The replicas this site pushed for the region are stale for
        ever -- the new owner replicates to *its own* ring successors
        (on adoption).  Telling our peers to drop their
        stamps keeps a later failover from serving the frozen copy.
        Fire-and-forget, like replication itself: a lost retire only
        leaves a stamp whose age keeps growing, which the freshness
        check already refuses to serve eventually.
        """
        peers = self.peers()
        if not peers or not id_paths:
            return
        message = ReplicaRetireMessage(
            self.agent.site_id, [as_id_path(path) for path in id_paths],
            sender=self.agent.site_id)
        for peer in peers:
            self.agent.tell(peer, message)
        with self._lock:
            self.stats["retires_sent"] += len(peers)

    def retire(self, owner, id_paths):
        """Replica side: drop stamps for a region *owner* gave up.

        Every stamp at or under one of *id_paths* in *owner*'s store
        is removed: the old ring stops vouching for the migrated
        region, so a failover anchored inside it finds ``region_age``
        ``None`` and falls through to the next candidate (or degrades
        to an honest partial answer) instead of claiming the frozen
        copy is live.  The copied *data* stays -- it is exactly as
        trustworthy as the old owner's own demoted ``complete`` copy
        (a point-in-time snapshot), and freshness-bounded queries
        re-check per-node timestamps at evaluation time anyway, so a
        frozen node can never satisfy a bound it has outlived.
        Returns the number of stamps dropped.
        """
        targets = [as_id_path(path) for path in id_paths]
        dropped = 0
        with self._lock:
            store = self._stores.get(owner)
            if store is None:
                return 0
            doomed = [
                path for path in store.stamps
                if any(path[:len(target)] == target for target in targets)
            ]
            for path in doomed:
                del store.stamps[path]
                dropped += 1
            if not store.stamps:
                del self._stores[owner]
            self.stats["retired_entries"] += dropped
        return dropped

    def _replicate(self, paths):
        peers = self.peers()
        if not peers or not paths:
            return
        database = self.agent.database
        builder = AnswerBuilder(database)
        version = database.root.subtree_version
        now = float(self.agent.clock())
        stamps = {}
        for path in paths:
            element = database.find(path)
            if element is None or \
                    not get_status(element).has_local_information:
                continue
            builder.include_local_information(element)
            timestamp = get_timestamp(element)
            stamps[path] = (timestamp if timestamp is not None else now,
                            version)
        fragment = builder.build()
        if fragment is None or not stamps:
            return
        message = ReplicateMessage(self.agent.site_id, fragment, stamps,
                                   sender=self.agent.site_id)
        size = message.encoded_size()
        for peer in peers:
            # Fire-and-forget: a lost batch is repaired by the next
            # update's batch (stamps make reordering safe).  Read the
            # network off the agent at send time -- runtimes rewire it
            # after construction.
            self.agent.tell(peer, message)
        with self._lock:
            self.stats["replicated_batches"] += len(peers)
            self.stats["replicated_entries"] += len(stamps) * len(peers)
            self.stats["replicated_bytes"] += size * len(peers)

    # -- replica side: accept and serve ---------------------------------
    def accept(self, message):
        """Merge one inbound :class:`ReplicateMessage`; returns entries
        accepted (stale-version entries are dropped, not merged)."""
        now = float(self.agent.clock())
        with self._lock:
            store = self._stores.get(message.owner)
            if store is None:
                store = _ReplicaStore(message.owner, self.agent.clock)
                self._stores[message.owner] = store
            accepted = store.merge(message.fragment, message.stamps, now)
            if accepted:
                self.stats["replica_batches_accepted"] += 1
                self.stats["replica_entries_accepted"] += accepted
                for timestamp, _version in message.stamps.values():
                    lag = max(0.0, now - float(timestamp))
                    self.stats["lag_count"] += 1
                    self.stats["lag_total"] += lag
                    if lag > self.stats["lag_max"]:
                        self.stats["lag_max"] = lag
            else:
                self.stats["replica_batches_stale_dropped"] += 1
        return accepted

    def export_for(self, owner, id_paths=()):
        """Serve a rehydrate/failover ask for *owner*'s replicated data."""
        with self._lock:
            store = self._stores.get(owner)
            if store is None:
                return None, {}
            fragment, stamps = store.export(id_paths)
            if fragment is not None:
                self.stats["rehydrations_served"] += 1
        return fragment, stamps

    def holds_replica_of(self, owner):
        with self._lock:
            store = self._stores.get(owner)
            return store is not None and store.database is not None

    # -- asker side: failover -------------------------------------------
    def on_dispatch_failure(self, target, subqueries, attempts, causes):
        """Serve a dead owner's subqueries from its replicas, if fresh.

        Returns one reply per subquery -- a
        :class:`~repro.core.gather.ReplicaServed` carrying the replica
        fragment when a copy satisfies the subquery's freshness
        bound, otherwise a :class:`SubqueryFailure` whose causes append
        what each replica said (``replica_too_stale`` set when a copy
        existed but was too old).  Returns ``None`` when the owner has
        no replicas: the caller falls back to the ordinary
        partial-answer path untouched.
        """
        if not self.topology:
            return None
        peers = replica_peers(target, self.topology, self.config.k)
        if not peers:
            return None
        with self._lock:
            self.stats["failover_attempts"] += 1
        now = float(self.agent.clock())
        anchors = [subquery.anchor_path for subquery in subqueries]
        views = self._candidate_views(target, anchors, peers)
        replies = []
        for subquery in subqueries:
            bound = freshness_bound(subquery.query)
            served = None
            extra_causes = []
            saw_stale = False
            for peer, fragment, stamps in views:
                age = region_age(stamps, subquery.anchor_path, now)
                if age is None or fragment is None:
                    continue
                if bound is not None and age > bound:
                    saw_stale = True
                    extra_causes.append(
                        f"replica {peer!r}: copy too stale "
                        f"(age {age:g}s > bound {bound:g}s)")
                    continue
                served = ReplicaServed(subquery, fragment, replica=peer,
                                       owner=target, age=age)
                break
            if served is not None:
                replies.append(served)
                with self._lock:
                    self.stats["failover_served"] += 1
                continue
            if not saw_stale:
                extra_causes.append(
                    f"no replica of site {target!r} holds the region")
            failure = SubqueryFailure(subquery, attempts,
                                      list(causes) + extra_causes)
            failure.replica_too_stale = saw_stale
            replies.append(failure)
            with self._lock:
                if saw_stale:
                    self.stats["replica_too_stale"] += 1
                else:
                    self.stats["failover_no_replica"] += 1
        return replies

    def _candidate_views(self, target, anchors, peers):
        """Fetch each replica's view of *target*'s regions, ring order.

        This site may itself be in the replica set (serve locally, no
        wire traffic); remote peers are asked with one
        :class:`RehydrateRequest` covering every anchor through
        ``agent.request``, gated; a peer that refuses or fails is
        skipped for the next in the ring.
        """
        views = []
        for peer in peers:
            if peer == self.agent.site_id:
                fragment, stamps = self.export_for(target, anchors)
                if fragment is not None:
                    views.append((peer, fragment, stamps))
                continue
            message = RehydrateRequest(target, anchors,
                                       sender=self.agent.site_id)
            try:
                reply = self.agent.request(peer, message,
                                           expect=RehydrateAnswer)
            except (OSError, NetError):
                continue
            if reply.fragment is not None:
                views.append((peer, reply.fragment, reply.stamps))
        return views

    # -- introspection ---------------------------------------------------
    def metrics(self):
        """Replication counters for the metrics registry / EXPLAIN."""
        now = float(self.agent.clock())
        with self._lock:
            counters = dict(self.stats)
            counters["replication_lag_mean"] = round(
                counters["lag_total"] / counters["lag_count"], 6
            ) if counters["lag_count"] else 0.0
            stores = {}
            for owner, store in sorted(self._stores.items()):
                ages = store.ages(now)
                if ages is not None:
                    stores[owner] = ages
        counters["k"] = self.config.k
        counters["peers"] = list(self.peers())
        counters["replicas_held"] = stores
        return counters

    def explain(self, context):
        """The read-replication view: k, this site's ring peers, the
        replica sets it holds, and each plan entry's failover
        candidates."""
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
            "replicas_held": self.metrics()["replicas_held"],
        }, [f"replication: k={self.config.k}"
            f" peers={', '.join(peers) or '(none)'}"])

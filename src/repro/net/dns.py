"""A DNS-style hierarchical name service (Section 3.4).

The paper maps every IDable node to a DNS name built from the IDs on
its root path (``pittsburgh.allegheny.pa.ne.parking.intel-iris.net``)
and stores the node-to-site mapping *only* in DNS -- never in site
databases -- so remapping a node is a single record update.

:class:`DnsServer` is the authoritative store; each client or site
resolves through its own :class:`DnsResolver`, which caches entries
with a TTL.  A first lookup costs several "hops" (modelling the
recursive walk to the authoritative server); subsequent lookups are
served from the nearby cache, exactly the behaviour the paper's
self-starting queries rely on.
"""

import threading
from collections import OrderedDict

from repro.net.errors import NameNotFound
from repro.xpath.analysis import dns_child_name, dns_name_for_id_path


class DnsRecord:
    """One name-to-site binding."""

    __slots__ = ("name", "site", "version")

    def __init__(self, name, site, version=0):
        self.name = name
        self.site = site
        self.version = version

    def __repr__(self):
        return f"DnsRecord({self.name!r} -> {self.site!r} v{self.version})"


class DnsServer:
    """The authoritative name server for one service zone."""

    def __init__(self, service="parking", zone="intel-iris.net"):
        self.service = service
        self.zone = zone
        self._records = {}
        self._subscribers = []
        self.stats = {"lookups": 0, "updates": 0, "registrations": 0,
                      "remaps": 0, "invalidations": 0}

    def name_for(self, id_path):
        """The DNS name of the IDable node at *id_path*."""
        return dns_name_for_id_path(id_path, service=self.service,
                                    zone=self.zone)

    # ------------------------------------------------------------------
    def subscribe(self, callback):
        """Invalidation fan-out: call ``callback(name, site)`` whenever
        an existing record is re-pointed.

        Resolver caches are TTL-bounded, so a re-mapped record would
        otherwise keep routing stale for up to a TTL.  Subscribers
        (the cluster wires one per resolver when rebalancing is on)
        drop the cached entry immediately, so the very next query
        routes to the new owner.
        """
        self._subscribers.append(callback)

    def _notify(self, name, site):
        for callback in list(self._subscribers):
            callback(name, site)
        if self._subscribers:
            self.stats["invalidations"] += 1

    def register(self, name, site):
        """Create or replace the record for *name*."""
        record = self._records.get(name)
        if record is None:
            self._records[name] = DnsRecord(name, site)
        else:
            record.site = site
            record.version += 1
            self._notify(name, site)
        self.stats["registrations"] += 1

    def register_id_path(self, id_path, site):
        self.register(self.name_for(id_path), site)

    def register_owner_map(self, owner_map):
        """One record per entry of *owner_map* (``{id_path: site}``).

        The map lists a parent's path before its children's, as
        :meth:`~repro.core.partition.PartitionPlan.partition` returns
        it, so each name is built from its parent's in one pass.
        """
        # The names of the current entry's ancestors, zone first.
        names = [self.name_for(())]
        for path, site in owner_map.items():
            del names[len(path):]
            name = dns_child_name(names[-1], path[-1][1])
            names.append(name)
            self.register(name, site)

    def update(self, name, site):
        """Re-point an existing record (ownership migration, step 4)."""
        record = self._records.get(name)
        if record is None:
            raise NameNotFound(f"no DNS record for {name!r}")
        record.site = site
        record.version += 1
        self.stats["updates"] += 1
        self._notify(name, site)

    def remap(self, id_path, site):
        """Point *id_path* at *site*, record-or-register.

        Ownership migration flips existing records; a fragment *split*
        moves a subtree that never had its own record (it was covered
        by an ancestor's), so the more-specific name must be created.
        ``route_query``'s longest-prefix walk then finds it first.
        """
        name = self.name_for(id_path)
        if name in self._records:
            self.update(name, site)
        else:
            self.register(name, site)
        self.stats["remaps"] += 1
        return name

    def authoritative_site(self, id_path):
        """The owner DNS names for *id_path*: longest registered
        prefix wins.  Reads the records directly (no resolver cache,
        no lookup accounting) -- this is the reconciliation oracle,
        not a query path."""
        path = tuple(tuple(entry) for entry in id_path)
        while path:
            record = self._records.get(self.name_for(path))
            if record is not None:
                return record.site
            path = path[:-1]
        return None

    def remove(self, name):
        self._records.pop(name, None)

    def lookup(self, name):
        """Authoritative lookup; raises :class:`NameNotFound`."""
        self.stats["lookups"] += 1
        record = self._records.get(name)
        if record is None:
            raise NameNotFound(f"no DNS record for {name!r}")
        return record

    def __len__(self):
        return len(self._records)


class DnsResolver:
    """A caching resolver, one per client or site.

    ``resolve`` returns ``(site, hops)``: *hops* is 0 on a cache hit
    and ``miss_hops`` on a miss, feeding the simulator's latency model.

    The cache is a bounded LRU (``max_entries``; a real resolver never
    holds the whole zone) and is safe to share between the fan-out
    worker threads of one agent.  Evictions are counted in
    ``stats["evictions"]``.
    """

    def __init__(self, server, clock=None, ttl=60.0, miss_hops=3,
                 max_entries=1024):
        self.server = server
        self.clock = clock or (lambda: 0.0)
        self.ttl = ttl
        self.miss_hops = miss_hops
        self.max_entries = max_entries
        self._cache = OrderedDict()  # name -> (site, expires_at)
        self._lock = threading.Lock()
        self.stats = {"hits": 0, "misses": 0, "evictions": 0,
                      "invalidations": 0}

    def resolve(self, name):
        now = self.clock()
        with self._lock:
            cached = self._cache.get(name)
            if cached is not None and cached[1] > now:
                self._cache.move_to_end(name)
                self.stats["hits"] += 1
                return cached[0], 0
        record = self.server.lookup(name)
        with self._lock:
            self._cache[name] = (record.site, now + self.ttl)
            self._cache.move_to_end(name)
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
                self.stats["evictions"] += 1
            self.stats["misses"] += 1
        return record.site, self.miss_hops

    def resolve_id_path(self, id_path):
        return self.resolve(self.server.name_for(id_path))

    def invalidate(self, name=None):
        """Drop one cached entry, or the whole cache.

        The retry layer calls this between attempts so a re-resolution
        reaches the authoritative server -- a stale entry pointing at a
        dead or former owner is a prime cause of repeated failures.
        """
        with self._lock:
            if name is None:
                self._cache.clear()
            else:
                self._cache.pop(name, None)
            self.stats["invalidations"] += 1

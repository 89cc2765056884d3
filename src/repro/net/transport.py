"""Message transport between sites.

:class:`Transport` is the interface a cluster and its agents are handed.
:class:`LoopbackNetwork` delivers messages by direct synchronous calls
-- deterministic and fast, used by the integration tests, the examples
and (with the cost model layered on top) the simulator.
:class:`~repro.net.tcpruntime.TcpNetwork` carries the same interface
over real sockets, and :class:`~repro.net.faults.FaultyNetwork` wraps
either.

All traffic is counted (messages and approximate bytes, per link), so
experiments can report communication costs.
"""

import threading
from types import MappingProxyType

from repro.net.errors import NetError, UnknownSite


class TrafficLog:
    """Per-link counters of messages and bytes (thread-safe)."""

    def __init__(self, count_bytes=False):
        self.count_bytes = count_bytes
        self.messages = 0
        self.bytes = 0
        self.per_link = {}
        self._lock = threading.Lock()

    def record(self, src, dst, message):
        size = message.encoded_size() if self.count_bytes else 0
        with self._lock:
            self.messages += 1
            self.bytes += size
            key = (src, dst)
            entry = self.per_link.setdefault(key, [0, 0])
            entry[0] += 1
            entry[1] += size

    def summary(self):
        return {
            "messages": self.messages,
            "bytes": self.bytes,
            "links": dict(self.per_link),
        }


class Transport:
    """What every network carrying messages between sites provides.

    ``request(src, dst, message)`` returns the destination's reply or
    raises ``OSError`` / :class:`NetError`; ``tell`` is its one-way
    form (a lost send is counted by the transport, never raised);
    ``traffic`` counts both; ``interceptors`` -- callables
    ``(src, dst, message)`` -- run before each send and may raise or
    mutate to simulate loss or delay.  The rest are capabilities only
    some transports have; the defaults here say what "not applicable"
    means, so callers ask the network instead of probing it with
    ``hasattr``.  A wrapper (:class:`~repro.net.faults.FaultyNetwork`)
    forwards all of it to the transport it wraps instead of deriving
    from this class, whose defaults would answer for the inner one.
    """

    #: A gather round's fan-out must go through this network one send
    #: at a time (the simulator's tracing network grows one RPC tree on
    #: a plain stack).
    requires_serial_dispatch = False
    #: Connection-pool counters; empty when there is no pool.
    pool_stats = MappingProxyType({})

    def __init__(self, count_bytes=False):
        self.traffic = TrafficLog(count_bytes=count_bytes)
        self.interceptors = []

    def register(self, site_id, agent):
        """Attach *agent* for in-process delivery.  A no-op for a
        transport that reaches sites by address."""

    def unregister(self, site_id):
        """Detach a killed site's agent (the same no-op by address)."""

    @property
    def sites(self):
        """The sites this transport can deliver to right now; empty
        when it does not track that."""
        return ()

    def close(self):
        """Release pooled resources; nothing to release by default."""


class LoopbackNetwork(Transport):
    """Synchronous in-process delivery to registered agents.

    Agents implement ``handle_message(message) -> reply | None``.
    ``request`` returns the reply; ``tell`` discards it (one-way).

    Delivery is serialized per destination site (a reentrant lock per
    site), mirroring the one-process-per-site deployment: an agent
    never sees two messages concurrently, even when a gather round
    fans its subqueries out from several worker threads.  Different
    sites still run genuinely in parallel; subquery chains descend the
    hierarchy, so the lock order is acyclic and deadlock-free.
    """

    def __init__(self, count_bytes=False):
        super().__init__(count_bytes=count_bytes)
        self._agents = {}
        self._site_locks = {}
        self._site_locks_guard = threading.Lock()
        self.tell_failures = 0

    def register(self, site_id, agent):
        self._agents[site_id] = agent

    def unregister(self, site_id):
        self._agents.pop(site_id, None)

    @property
    def sites(self):
        return sorted(self._agents)

    def agent(self, site_id):
        try:
            return self._agents[site_id]
        except KeyError:
            raise UnknownSite(f"no agent registered for site {site_id!r}") \
                from None

    def _lock_for(self, site_id):
        with self._site_locks_guard:
            lock = self._site_locks.get(site_id)
            if lock is None:
                lock = threading.RLock()
                self._site_locks[site_id] = lock
            return lock

    def request(self, src, dst, message):
        """Deliver *message* and return the destination's reply."""
        for interceptor in self.interceptors:
            interceptor(src, dst, message)
        self.traffic.record(src, dst, message)
        with self._lock_for(dst):
            reply = self.agent(dst).handle_message(message)
        if reply is not None:
            self.traffic.record(dst, src, reply)
        return reply

    def tell(self, src, dst, message):
        """Deliver *message* one-way: failures are counted, not raised.

        Mirrors :meth:`TcpNetwork.tell` -- a lost notification must not
        blow up the sender, and the count keeps loss observable.
        """
        try:
            self.request(src, dst, message)
        except (OSError, NetError):
            self.tell_failures += 1

    def close(self):
        """Release per-site delivery locks (repeated start/stop safe)."""
        with self._site_locks_guard:
            self._site_locks.clear()

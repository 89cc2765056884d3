"""A real TCP runtime: organizing agents behind sockets.

The loopback network delivers messages by function call; this module
runs the *same* agents behind actual TCP servers on localhost, speaking
the XML wire format of :mod:`repro.net.messages` with 4-byte big-endian
length framing.  Every byte a deployment would put on the wire goes on
the wire, which keeps the message codec honest and demonstrates that
the system is runnable as separate OS processes (each site only needs
its document fragment, the DNS address and the port map).

:class:`TcpNetwork` implements the same ``request``/``tell`` interface
as :class:`~repro.net.transport.LoopbackNetwork`, so agents are unaware
of which transport carries them.
"""

import logging
import select
import socket
import socketserver
import threading

from repro.net.errors import FrameTooLarge, NetError, UnknownSite
from repro.net.framing import FrameReader, recv_framed, send_framed
from repro.net.messages import (
    AnswerMessage,
    ErrorMessage,
    Message,
)
from repro.net.transport import Transport
from repro.obs.tracing import TRACER, attach_context

logger = logging.getLogger(__name__)

#: How often an idle accept loop looks for a shutdown request.
#: ``socketserver``'s default of 0.5 s is what every ``shutdown()`` waits
#: out, one site after another when a cluster closes.
ACCEPT_POLL_S = 0.05


class AdmissionGate:
    """Bounded inbound admission for one site's server.

    At most *max_pending* requests may be admitted (decoded, waiting
    for or holding the agent's site guard, or waiting on a peer while
    the guard is let go) at once; :meth:`admit` returns ``False``
    beyond that -- the caller sheds the request with a retryable
    ``server-overloaded`` error.  :meth:`begin_drain` flips admission
    off permanently (graceful shutdown); :meth:`wait_idle` blocks until
    every admitted request has been released.  :meth:`snapshot` reports
    the live depth as ``queue_depth``.
    """

    def __init__(self, max_pending):
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self._pending = 0
        self._draining = False
        self._idle = threading.Event()
        self._idle.set()
        self.stats = {"admitted": 0, "overload_rejections": 0,
                      "drain_rejections": 0, "max_queue_depth": 0}

    @property
    def draining(self):
        return self._draining

    def admit(self):
        """Take one slot of the bounded inbound queue (False = shed)."""
        with self._lock:
            if self._draining:
                self.stats["drain_rejections"] += 1
                return False
            if self._pending >= self.max_pending:
                self.stats["overload_rejections"] += 1
                return False
            self._pending += 1
            self._idle.clear()
            self.stats["admitted"] += 1
            if self._pending > self.stats["max_queue_depth"]:
                self.stats["max_queue_depth"] = self._pending
            return True

    def release(self):
        """Give an admitted request's slot back; returns the new depth."""
        with self._lock:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()
            return self._pending

    def begin_drain(self):
        with self._lock:
            self._draining = True

    def wait_idle(self, timeout=None):
        return self._idle.wait(timeout)

    def snapshot(self):
        with self._lock:
            out = dict(self.stats)
            out["queue_depth"] = self._pending
            out["max_pending"] = self.max_pending
            out["draining"] = self._draining
            return out


def _release_served(reply):
    """Dispose the skeletons a served answer's fragments were built as.

    The agent built every item's fragment skeleton for this reply alone,
    and once it is encoded only its bytes are sent on, so nothing holds
    them any more.  Disposing one stops at the stored subtrees it lends;
    results are stored matches, lent whole, and are left alone.
    """
    if not isinstance(reply, AnswerMessage):
        return
    for answer in reply.answers:
        if answer.holder == "fragment" and answer.value is not None:
            answer.value.dispose()


class _AgentRequestHandler(socketserver.BaseRequestHandler):
    def setup(self):
        self.server.track_connection(self.request)
        self.reader = FrameReader(self.request)

    def finish(self):
        self.server.untrack_connection(self.request)

    def handle(self):
        while True:
            try:
                payload = self.reader.recv_frame()
            except FrameTooLarge as exc:
                # An oversized length prefix is unrecoverable (the
                # stream cannot be resynchronised past it), but the
                # pooled client deserves a structured refusal rather
                # than a bare reset it cannot attribute.  Reply, then
                # close.
                self.server.count_oversized()
                reply = ErrorMessage(
                    0, code="frame-too-large",
                    detail=str(exc), retryable=False,
                    sender=getattr(self.server.agent, "site_id", None))
                try:
                    send_framed(self.request, reply.encode())
                except OSError:
                    pass
                return
            except NetError:
                return
            if payload is None:
                return
            close_after_reply = False
            message = None
            try:
                message = Message.decode(payload)
            except Exception as exc:  # XmlParseError, MessageError, ...
                # A malformed frame must not kill the connection loop
                # (nor the server thread): tell the peer what happened.
                logger.warning("site %r: undecodable frame: %s",
                               self.server.agent.site_id, exc)
                reply = ErrorMessage(
                    0, code="bad-message",
                    detail=f"{type(exc).__name__}: {exc}",
                    retryable=False, sender=self.server.agent.site_id)
                payload = reply.encode()
            if message is None:
                pass  # undecodable: the error reply is already framed
            elif not self.server.admit():
                # Overload protection / drain: the bounded inbound
                # queue is full (or the server is draining), so shed
                # the request *before* it queues on the site guard.
                # The retryable structured error composes with the
                # sender's backoff -- it retries later or routes on,
                # instead of piling onto a melting site.
                draining = self.server.draining
                reply = ErrorMessage(
                    message.message_id, code="server-overloaded",
                    detail=("draining for shutdown" if draining
                            else "inbound queue full"),
                    retryable=True, sender=self.server.agent.site_id)
                payload = reply.encode()
                close_after_reply = draining
            else:
                # The socket thread has no ambient span: parent the
                # serve span on the wire trace context (if any) so the
                # remote site's spans join the asking site's trace.
                try:
                    with TRACER.span(
                            "tcp-serve",
                            site=getattr(self.server.agent, "site_id",
                                         None),
                            remote_parent=message.trace_ctx) as serve_span:
                        try:
                            agent = self.server.agent
                            with agent.guard:
                                reply = agent.handle_message(message)
                                # Encoding stays in the same hold as the
                                # walk: serializing the reply touches
                                # shared site state (the serialization-
                                # memo write-back into database
                                # elements), so it must not race with a
                                # merge into the fragment.  The trees
                                # the reply carries die with it.
                                payload = (reply.encode()
                                           if reply is not None else "")
                                _release_served(reply)
                        except Exception as exc:
                            # A handler crash is a reply, not a dead
                            # socket: the client gets a structured error
                            # to act on instead of a connection reset it
                            # cannot attribute.
                            logger.exception(
                                "site %r: handler failed on %s",
                                self.server.agent.site_id,
                                type(message).__name__)
                            reply = ErrorMessage(
                                message.message_id, code="handler-error",
                                detail=f"{type(exc).__name__}: {exc}",
                                retryable=False,
                                sender=self.server.agent.site_id)
                            attach_context(reply, serve_span)
                            payload = reply.encode()
                finally:
                    self.server.release()
            try:
                send_framed(self.request, payload)
            except OSError:
                # The client hung up while we worked; nothing to tell.
                return
            if close_after_reply:
                # Draining: the rejection is the connection's last
                # frame, so the pooled socket dies and the client
                # re-dials elsewhere (or fails fast) next time.
                return


class TcpSiteServer(socketserver.ThreadingTCPServer):
    """One site's OA served over TCP (threaded, connection-per-client).

    Overload protection: at most ``max_pending`` requests may be
    admitted (decoded and in the agent's hands) at once.
    Requests beyond that are answered immediately with a retryable
    ``server-overloaded`` :class:`ErrorMessage` -- shedding load at
    admission instead of letting an unbounded thread pile-up grow the
    tail latency without bound.  ``server_stats()["queue_depth"]`` is
    the live queue.

    Graceful drain: :meth:`begin_drain` stops accepting connections
    and flips admission off; in-flight requests finish and are
    answered; :meth:`wait_drained` blocks until the queue is empty and
    then drains the agent's WAL to disk.  :meth:`stop` runs the full
    sequence; ``stop(drain=False)`` is the crash-style teardown the
    kill/restart chaos path uses.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, agent, host="127.0.0.1", port=0, max_pending=64):
        super().__init__((host, port), _AgentRequestHandler)
        self.agent = agent
        self._thread = None
        self.max_pending = max_pending
        self.gate = AdmissionGate(max_pending)
        self._connections = set()
        self._connections_lock = threading.Lock()
        self._oversized_frames = 0

    @property
    def stats(self):
        return self.gate.stats

    @property
    def address(self):
        return self.server_address

    @property
    def draining(self):
        return self.gate.draining

    # -- connection tracking (for crash-style teardown) -----------------
    def track_connection(self, sock):
        with self._connections_lock:
            self._connections.add(sock)

    def untrack_connection(self, sock):
        with self._connections_lock:
            self._connections.discard(sock)

    def _sever_connections(self):
        with self._connections_lock:
            victims = list(self._connections)
            self._connections.clear()
        for sock in victims:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            _close_quietly(sock)

    # -- admission ------------------------------------------------------
    def admit(self):
        """Take one slot of the bounded inbound queue (False = shed)."""
        return self.gate.admit()

    def release(self):
        self.gate.release()

    def count_oversized(self):
        self._oversized_frames += 1

    def server_stats(self):
        """Queue/overload counters for the metrics registry."""
        out = self.gate.snapshot()
        out["oversized_frames"] = self._oversized_frames
        return out

    # -- lifecycle ------------------------------------------------------
    def start(self):
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": ACCEPT_POLL_S}, daemon=True)
        self._thread.start()
        return self

    def begin_drain(self):
        """Stop accepting; shed new requests; let in-flight finish."""
        self.gate.begin_drain()
        self.shutdown()  # stops the accept loop (idempotent)

    def wait_drained(self, timeout=5.0):
        """Block until in-flight requests finished, then flush the WAL.

        Returns ``True`` when the queue reached empty within *timeout*
        (the WAL is flushed either way -- a hung request must not keep
        acknowledged mutations off the disk).
        """
        drained = self.gate.wait_idle(timeout)
        flush = getattr(self.agent, "flush", None)  # stub agents lack it
        if flush is not None:
            flush()
        return drained

    def stop(self, drain=True, timeout=5.0):
        """Tear the server down; graceful by default, abrupt for chaos.

        With *drain*: stop accepting, finish in-flight requests, flush
        the WAL, then close.  Without: close immediately -- in-flight
        work is abandoned mid-flight, exactly like a process kill.
        """
        if drain:
            self.begin_drain()
            self.wait_drained(timeout)
        else:
            self.shutdown()
            # A real process kill severs *established* connections
            # too, not just the listener: without this, peers' pooled
            # sockets keep talking to this site's handler threads --
            # a zombie of the killed agent that still answers queries.
            self._sever_connections()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


def _close_quietly(sock):
    try:
        sock.close()
    except OSError:
        pass


def _socket_is_dead(sock):
    """Whether an *idle* pooled socket has been abandoned by its peer.

    A healthy idle connection has nothing to read.  Readability
    therefore means either EOF (the peer closed or crashed -- the
    half-open case) or stray bytes no request is waiting for (protocol
    garbage); both poison the socket for the next exchange, so it is
    recycled instead of handed out.  The zero-timeout ``select`` makes
    this a single cheap syscall on checkout.
    """
    try:
        readable, _, _ = select.select([sock], [], [], 0)
    except (OSError, ValueError):
        return True
    return bool(readable)


class TcpNetwork(Transport):
    """Message delivery over TCP, given a site -> address map.

    Connections are pooled per destination: a request checks an idle
    socket out (or dials a fresh one), runs one framed exchange, and
    checks it back in for the next caller.  Keying the pool by site --
    not by thread -- lets concurrent callers (and a threaded executor's
    short-lived fan-out workers) reuse each other's connections instead
    of paying a TCP handshake per round, and bounds the number of
    sockets kept open (``max_idle_per_site`` each).  A pooled socket may
    have been closed by its peer while idle; an exchange that fails on a
    *reused* connection is retried once on a fresh dial before the error
    surfaces.  ``pool_stats`` counts ``connects`` (dials), ``reuses`` and
    ``discarded`` (closed instead of pooled).
    """

    def __init__(self, addresses=None, timeout=10.0, count_bytes=True,
                 max_idle_per_site=8):
        super().__init__(count_bytes=count_bytes)
        self.addresses = dict(addresses or {})
        self.timeout = timeout
        self.max_idle_per_site = max_idle_per_site
        self._idle = {}
        self._lock = threading.Lock()
        self._closed = False
        self.pool_stats = {"connects": 0, "reuses": 0, "discarded": 0,
                           "stale_evictions": 0, "send_failures": 0}

    def register_address(self, site_id, address):
        self.addresses[site_id] = address

    # -- pool -----------------------------------------------------------
    def _dial(self, site_id):
        try:
            address = self.addresses[site_id]
        except KeyError:
            raise UnknownSite(f"no TCP address for site {site_id!r}") \
                from None
        sock = socket.create_connection(address, timeout=self.timeout)
        with self._lock:
            self.pool_stats["connects"] += 1
        return sock

    def _checkout(self, site_id):
        """An idle pooled socket (reused=True) or a fresh dial.

        Pooled sockets get a zero-cost liveness check first: a peer
        that crashed (or drained) while the connection idled leaves a
        half-open socket that would otherwise only surface as a reset
        mid-request.  Dead sockets are evicted and counted
        (``pool_stats["stale_evictions"]``), never handed out.
        """
        while True:
            with self._lock:
                stack = self._idle.get(site_id)
                sock = stack.pop() if stack else None
            if sock is None:
                return self._dial(site_id), False
            if _socket_is_dead(sock):
                with self._lock:
                    self.pool_stats["stale_evictions"] += 1
                _close_quietly(sock)
                continue
            with self._lock:
                self.pool_stats["reuses"] += 1
            return sock, True

    def _checkin(self, site_id, sock):
        with self._lock:
            if not self._closed:
                stack = self._idle.setdefault(site_id, [])
                if len(stack) < self.max_idle_per_site:
                    stack.append(sock)
                    return
            self.pool_stats["discarded"] += 1
        _close_quietly(sock)

    def _discard(self, sock):
        with self._lock:
            self.pool_stats["discarded"] += 1
        _close_quietly(sock)

    def _exchange(self, dst, encoded, message=None):
        """One framed request/reply on a pooled connection.

        Never returns a socket of unknown state to the pool: any
        failure closes it.  A failure (or an unexpected clean close) on
        a reused connection means the peer dropped it while idle --
        retried once on a fresh dial.
        """
        sock, reused = self._checkout(dst)
        while True:
            try:
                send_framed(sock, encoded)
                payload = recv_framed(sock)
            except (OSError, NetError):
                self._discard(sock)
                if not reused:
                    raise
                sock, reused = self._dial(dst), False
                continue
            if payload is None:
                # Clean close before any reply byte.
                self._discard(sock)
                if reused:
                    sock, reused = self._dial(dst), False
                    continue
                return None
            self._checkin(dst, sock)
            return payload

    # -- transport interface --------------------------------------------
    def request(self, src, dst, message):
        for interceptor in self.interceptors:
            interceptor(src, dst, message)
        self.traffic.record(src, dst, message)
        payload = self._exchange(dst, message.encode(), message)
        if not payload:
            return None
        reply = Message.decode(payload)
        self.traffic.record(dst, src, reply)
        return reply

    def tell(self, src, dst, message):
        """Fire-and-forget: a failed one-way send is counted, not raised.

        Sensor updates and other notifications tolerate loss (the next
        pull re-fetches fresh state), so a dead peer must not blow up
        the sender's update path; ``pool_stats["send_failures"]``
        records how many sends were lost.
        """
        try:
            self.request(src, dst, message)
        except (OSError, NetError):
            with self._lock:
                self.pool_stats["send_failures"] += 1

    def idle_connection_count(self):
        with self._lock:
            return sum(len(stack) for stack in self._idle.values())

    def close(self):
        """Close every pooled socket; later check-ins are discarded."""
        with self._lock:
            self._closed = True
            idle = [sock for stack in self._idle.values() for sock in stack]
            self._idle.clear()
        for sock in idle:
            _close_quietly(sock)


class TcpCluster:
    """A cluster whose sites listen on real localhost sockets.

    Builds the standard :class:`~repro.net.cluster.Cluster`, then hosts
    every agent behind a :class:`TcpSiteServer` and rewires all agents
    (and the client) onto a shared :class:`TcpNetwork`.  Use as a
    context manager to guarantee socket teardown::

        with TcpCluster(document, plan) as tcp:
            results, site, _ = tcp.cluster.query(...)

    ``network_wrapper`` (a callable ``TcpNetwork -> network``) wraps
    the shared client-side transport before the agents are rewired onto
    it -- e.g. ``lambda net: FaultyNetwork(net, seed=7, drop_rate=0.2)``
    for chaos testing over real sockets.  ``max_pending`` bounds each
    server's inbound queue (overload protection); pass a
    ``durability=DurabilityConfig(...)`` cluster kwarg to make the
    sites crash-recoverable via :meth:`kill_site`/:meth:`restart_site`.
    """

    def __init__(self, document, plan, network_wrapper=None,
                 max_pending=64, **cluster_kwargs):
        from repro.net.cluster import Cluster

        self.tcp_network = TcpNetwork()
        self.cluster = Cluster(document, plan, **cluster_kwargs)
        self.max_pending = max_pending
        self.network = (self.tcp_network if network_wrapper is None
                        else network_wrapper(self.tcp_network))
        self.servers = {}
        self._parked_addresses = {}
        for site, agent in self.cluster.agents.items():
            server = TcpSiteServer(agent, max_pending=max_pending).start()
            self.servers[site] = server
            self.network.register_address(site, server.address)
        for agent in self.cluster.agents.values():
            agent.network = self.network
        self.cluster.network = self.network
        self.cluster.runtime = self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- site lifecycle (crash / recovery) ------------------------------
    def kill_site(self, site):
        """Kill one site's server *and* agent state (process death).

        The listening socket closes mid-flight (no drain, no final
        checkpoint); peers see resets/refused connections until
        :meth:`restart_site` brings the site back from WAL+checkpoint.
        """
        server = self.servers.pop(site)
        self._parked_addresses[site] = server.address
        server.stop(drain=False)
        self.cluster.kill_site(site)

    def restart_site(self, site):
        """Recover the site from durable state on its old address."""
        host, port = self._parked_addresses.pop(site)
        agent = self.cluster.restart_site(site)
        agent.network = self.network
        server = TcpSiteServer(agent, host=host, port=port,
                               max_pending=self.max_pending).start()
        self.servers[site] = server
        self.network.register_address(site, server.address)
        return agent

    def bind_lifecycle(self, faulty):
        """Hook a :class:`~repro.net.faults.FaultyNetwork`'s agent-level
        kill/restart injection to real server+agent teardown."""
        faulty.bind_lifecycle(kill=self.kill_site,
                              restart=self.restart_site)
        return faulty

    def metrics(self):
        """Cluster metrics plus per-server queue/overload counters."""
        out = self.cluster.metrics()
        out["servers"] = {site: server.server_stats()
                         for site, server in sorted(self.servers.items())}
        return out

    def close(self, drain=True):
        """Tear the deployment down, gracefully by default.

        Graceful: every server stops accepting and sheds new requests,
        in-flight requests complete, WALs drain to disk, then sockets
        close and each agent takes its final checkpoint.  With
        ``drain=False`` everything stops abruptly (crash-style; the
        durability directories keep whatever was already journalled).
        """
        if drain:
            for server in self.servers.values():
                server.begin_drain()
            for server in self.servers.values():
                server.wait_drained()
        self.network.close()
        for server in self.servers.values():
            server.stop(drain=False)
        self.cluster.shutdown(final_checkpoint=drain, close_network=False)

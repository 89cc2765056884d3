"""Deterministic, seeded fault injection over any transport.

:class:`FaultyNetwork` wraps a network exposing the standard
``request``/``tell`` interface (:class:`~repro.net.transport.LoopbackNetwork`,
:class:`~repro.net.tcpruntime.TcpNetwork`, the simulator's tracing
variant) and injects the failure modes of a wide-area deployment:

- **drops** -- the request never reaches the peer (raises
  :class:`InjectedFault`, an ``OSError``, exactly what a dead link
  looks like to the retry layer);
- **resets** -- the request *is* delivered and processed but the reply
  is lost (connection reset between send and receive; exercises
  at-least-once semantics);
- **error replies** -- the peer answers with a retryable
  :class:`~repro.net.messages.ErrorMessage` instead of an answer;
- **delays** -- the request is slowed by ``delay`` seconds;
- **site crashes** -- every request to a crashed site fails until
  :meth:`recover` (schedulable mid-test for crash/recovery scenarios).

Decisions are *deterministic*: each (src, dst) link keeps a request
counter, and the fault draw for request *n* on a link is a BLAKE2 hash
of ``(seed, src, dst, n)``.  A fixed seed therefore reproduces the
same fault pattern for the same per-link request sequence regardless
of thread interleaving, ``PYTHONHASHSEED``, or which transport is
underneath.
"""

import threading
import time

from repro.net.messages import ErrorMessage
from repro.net.retry import hash_fraction


class InjectedFault(ConnectionError):
    """A transport failure injected by :class:`FaultyNetwork`.

    Subclasses ``ConnectionError`` (an ``OSError``) so the retry layer
    treats injected faults exactly like real transport failures.
    """


class SiteDown(InjectedFault):
    """The destination site is crashed (by schedule or :meth:`crash`)."""


class FaultyNetwork:
    """A seeded chaos wrapper around a real transport.

    One fraction is drawn per request and mapped onto the fault ranges
    in a fixed order -- drop, reset, error reply, delay -- so the rates
    are mutually exclusive probabilities (their sum must stay <= 1).
    Everything else of the :class:`~repro.net.transport.Transport`
    interface (registration, traffic accounting, pool stats,
    ``requires_serial_dispatch``...) is forwarded to the wrapped
    network untouched -- which is why this is not a ``Transport``
    subclass: the base's "not applicable" defaults would answer for
    the inner transport.
    """

    def __init__(self, inner, seed=0, drop_rate=0.0, reset_rate=0.0,
                 error_rate=0.0, delay_rate=0.0, delay=0.0,
                 down_sites=(), sleep=time.sleep):
        total = drop_rate + reset_rate + error_rate + delay_rate
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault rates sum to {total}, must be <= 1")
        for name, rate in (("drop_rate", drop_rate),
                           ("reset_rate", reset_rate),
                           ("error_rate", error_rate),
                           ("delay_rate", delay_rate)):
            if rate < 0:
                raise ValueError(f"{name} must be >= 0, got {rate}")
        self.inner = inner
        self.seed = seed
        self.drop_rate = drop_rate
        self.reset_rate = reset_rate
        self.error_rate = error_rate
        self.delay_rate = delay_rate
        self.delay = delay
        self.sleep = sleep
        self._down = set(down_sites)
        self._counters = {}
        self._lock = threading.Lock()
        self._kill_hook = None
        self._restart_hook = None
        self._triggers = []
        self.fault_stats = {
            "requests": 0,
            "drops": 0,
            "resets": 0,
            "error_replies": 0,
            "delays": 0,
            "down_refused": 0,
            "delivered": 0,
            "agent_kills": 0,
            "agent_restarts": 0,
            "triggered": 0,
        }

    # -- crash schedule --------------------------------------------------
    def crash(self, site):
        """Take *site* down: every request to it fails until recovery."""
        with self._lock:
            self._down.add(site)

    def recover(self, site):
        with self._lock:
            self._down.discard(site)

    def is_down(self, site):
        with self._lock:
            return site in self._down

    # -- agent-level kill/restart ---------------------------------------
    def bind_lifecycle(self, kill=None, restart=None):
        """Register the deployment's real site-lifecycle callbacks.

        :meth:`crash`/:meth:`recover` only sever the *transport*: the
        agent object survives with its fragment, cache and
        subscriptions intact, which is a network partition, not a
        process death.  With lifecycle callbacks bound
        (``Cluster.bind_lifecycle`` / ``TcpCluster.bind_lifecycle`` do
        this), :meth:`kill_agent` destroys the agent's in-memory state
        too, and :meth:`restart_agent` brings it back through the
        durability subsystem's checkpoint + WAL replay -- the failure
        mode the paper's consistency story silently assumed away.
        """
        self._kill_hook = kill
        self._restart_hook = restart
        return self

    def kill_agent(self, site):
        """Process death: sever the transport AND destroy agent state."""
        self.crash(site)
        if self._kill_hook is not None:
            self._kill_hook(site)
        self._count("agent_kills")

    def restart_agent(self, site):
        """Recover *site* from durable state, then restore the link."""
        if self._restart_hook is not None:
            self._restart_hook(site)
        self.recover(site)
        self._count("agent_restarts")

    # -- targeted triggers ----------------------------------------------
    def add_trigger(self, kind, action="drop", src=None, dst=None, times=1):
        """Arm a deterministic fault for specific messages.

        The probabilistic rates above model background weather; a
        *trigger* instead fires on the next *times* messages whose
        ``message.kind`` equals *kind* (and whose endpoints match
        *src*/*dst* when given), regardless of the seeded draw.  That
        is what migration-step chaos needs: "drop exactly the adopt
        request", "reset exactly the adopt reply", "kill the adopter
        the moment the adopt arrives" -- reproducible without tuning
        rates until the right message happens to lose the lottery.

        *action* is one of ``"drop"``, ``"reset"``, ``"error"`` or
        ``"kill"`` (crash the destination agent via the bound
        lifecycle hooks, then fail the request).
        """
        if action not in ("drop", "reset", "error", "kill"):
            raise ValueError(f"unknown trigger action {action!r}")
        with self._lock:
            self._triggers.append({
                "kind": kind, "action": action,
                "src": src, "dst": dst, "left": int(times),
            })

    def _match_trigger(self, src, dst, message):
        kind = getattr(message, "kind", None)
        with self._lock:
            for trigger in self._triggers:
                if trigger["left"] <= 0:
                    continue
                if trigger["kind"] != kind:
                    continue
                if trigger["src"] is not None and trigger["src"] != src:
                    continue
                if trigger["dst"] is not None and trigger["dst"] != dst:
                    continue
                trigger["left"] -= 1
                self.fault_stats["triggered"] += 1
                return trigger["action"]
        return None

    # -- fault draws -----------------------------------------------------
    def _draw(self, src, dst):
        """The deterministic fraction for this link's next request."""
        with self._lock:
            sequence = self._counters.get((src, dst), 0)
            self._counters[(src, dst)] = sequence + 1
            self.fault_stats["requests"] += 1
        return hash_fraction(self.seed, src, dst, sequence)

    def _count(self, key):
        with self._lock:
            self.fault_stats[key] += 1

    def _decide(self, src, dst):
        """``(fault or None)`` for the next request on this link."""
        if self.is_down(dst):
            self._count("down_refused")
            return "down"
        fraction = self._draw(src, dst)
        edge = self.drop_rate
        if fraction < edge:
            self._count("drops")
            return "drop"
        edge += self.reset_rate
        if fraction < edge:
            self._count("resets")
            return "reset"
        edge += self.error_rate
        if fraction < edge:
            self._count("error_replies")
            return "error"
        edge += self.delay_rate
        if fraction < edge:
            self._count("delays")
            return "delay"
        return None

    # -- transport interface --------------------------------------------
    def request(self, src, dst, message):
        triggered = self._match_trigger(src, dst, message)
        if triggered == "kill":
            self.kill_agent(dst)
            raise SiteDown(
                f"injected: site {dst!r} killed on {message.kind}")
        if triggered == "drop":
            raise InjectedFault(
                f"injected: {message.kind} {src!r}->{dst!r} dropped "
                "(trigger)")
        if triggered == "reset":
            self.inner.request(src, dst, message)
            raise InjectedFault(
                f"injected: connection {src!r}->{dst!r} reset before "
                "reply (trigger)")
        if triggered == "error":
            return ErrorMessage(message.message_id, code="injected-error",
                                detail="injected error reply (trigger)",
                                retryable=True, sender=dst)
        fault = self._decide(src, dst)
        if fault == "down":
            raise SiteDown(f"injected: site {dst!r} is down")
        if fault == "drop":
            raise InjectedFault(
                f"injected: {message.kind} {src!r}->{dst!r} dropped")
        if fault == "reset":
            # Delivered and processed -- only the reply is lost.
            self.inner.request(src, dst, message)
            raise InjectedFault(
                f"injected: connection {src!r}->{dst!r} reset before reply")
        if fault == "error":
            return ErrorMessage(message.message_id, code="injected-error",
                                detail="injected error reply",
                                retryable=True, sender=dst)
        if fault == "delay" and self.delay > 0:
            self.sleep(self.delay)
        reply = self.inner.request(src, dst, message)
        self._count("delivered")
        return reply

    def tell(self, src, dst, message):
        """One-way send: injected losses vanish silently, as on a WAN."""
        triggered = self._match_trigger(src, dst, message)
        if triggered == "kill":
            self.kill_agent(dst)
            return
        if triggered in ("drop", "reset", "error"):
            return
        fault = self._decide(src, dst)
        if fault in ("down", "drop"):
            return
        if fault == "error":
            return  # the sender ignores replies anyway
        if fault == "delay" and self.delay > 0:
            self.sleep(self.delay)
        self.inner.tell(src, dst, message)
        if fault != "reset":
            self._count("delivered")

    def __getattr__(self, name):
        # Registration, traffic log, pool stats, close()... all behave
        # as if the wrapper were not there.
        return getattr(self.inner, name)

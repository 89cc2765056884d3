"""Execution tracing: capture the RPC tree of a real query execution.

The simulator runs every query *for real* against the cluster engine
(so caching, routing and subquery fan-out are genuine) and records the
tree of inter-site calls.  The trace is then replayed through the
discrete-event queues with cost-model service times, which is what
turns correct answers into the paper's throughput/latency numbers.
"""

from repro.net.transport import LoopbackNetwork


class TraceNode:
    """One handled message at one site, with its nested calls."""

    __slots__ = ("site", "kind", "children", "request_size", "reply_size")

    def __init__(self, site, kind):
        self.site = site
        self.kind = kind
        self.children = []
        self.request_size = 0
        self.reply_size = 0

    @property
    def messages(self):
        """Messages constructed/parsed at this site for this call."""
        # The incoming request + its reply, plus one request/reply pair
        # per nested call issued from here.
        return 2 + 2 * len(self.children)

    def total_calls(self):
        return 1 + sum(child.total_calls() for child in self.children)

    def sites_touched(self):
        out = {self.site}
        for child in self.children:
            out |= child.sites_touched()
        return out

    def __repr__(self):
        return f"TraceNode({self.site}, {self.kind}, children={len(self.children)})"


class TracingNetwork(LoopbackNetwork):
    """Loopback delivery that builds :class:`TraceNode` trees.

    The trace is a single tree grown on a plain stack, so agents must
    dispatch their fan-out sequentially through this network, as the
    simulated cluster's agents do (``executor="serial"``; the simulator
    models fan-out parallelism in virtual time instead -- see the wave
    replay in :mod:`repro.sim.simcluster`).
    """

    def __init__(self, count_bytes=False):
        super().__init__(count_bytes=count_bytes)
        self.count_bytes = count_bytes
        self._stack = []

    def request(self, src, dst, message):
        node = TraceNode(dst, message.kind)
        if self.count_bytes:
            node.request_size = message.encoded_size()
        if self._stack:
            self._stack[-1].children.append(node)
        self._stack.append(node)
        try:
            reply = super().request(src, dst, message)
        finally:
            self._stack.pop()
        if self.count_bytes and reply is not None:
            node.reply_size = reply.encoded_size()
        return reply

    def capture(self, entry_site, kind, fn):
        """Run *fn* attributing its work to *entry_site*; returns
        ``(fn result, trace root)``."""
        root = TraceNode(entry_site, kind)
        self._stack.append(root)
        try:
            result = fn()
        finally:
            self._stack.pop()
        return result, root
